"""Output checks of the benchmark's commands.

Each check returns a list of problems; an empty list means the output is
correct.  Output too malformed to parse raises ValueError, KeyError,
IndexError, TypeError or AttributeError, which the caller counts as a
problem.  Seed 0 compares sha256 digests pinned in ``workloads.json``.  Every
seed re-derives a seeded sample of printed levels with the pair-scan
functions (``link_level``, ``flow_link_level``), which minimise over the same
floats as the matrix kernels, so the printed text must match bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math


def fmt(v: float) -> str:
    """The CLI's text form of a level."""
    return f"{v:.9g}"


def check_digests(outputs: dict[str, bytes], pinned: dict[str, str]) -> list[str]:
    problems = []
    for name, want in pinned.items():
        got = hashlib.sha256(outputs.get(name, b"")).hexdigest()
        if got != want:
            problems.append(f"sha256 of {name} is {got}, pinned {want}")
    return problems


def _sample(rng, n: int, k: int) -> list[int]:
    return sorted(rng.sample(range(n), min(k, n)))


def check_levels_csv(stdout: bytes, system, link_level, rng, samples: int) -> list[str]:
    """``analyze`` CSV: one row per sample; lambda(x) is level(x, x)."""
    lines = stdout.decode(errors="replace").splitlines()
    coords = system.space.coords
    dim = coords.shape[1]
    header = ",".join(["index"] + [f"coord_{k}" for k in range(dim)] + ["lambda", "beta"])
    if not lines or lines[0] != header:
        return [f"CSV header {lines[:1]!r}, expected {header!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != system.n or any(len(r) != dim + 3 for r in rows):
        return [f"CSV has {len(rows)} rows, expected {system.n} with {dim + 3} fields"]
    if [r[0] for r in rows] != [str(i) for i in range(system.n)]:
        return ["CSV rows are not samples 0..n-1 in order"]
    problems = []
    for i in _sample(rng, system.n, samples):
        lam, _ = link_level(system, i, i)
        want = [fmt(float(c)) for c in coords[i]] + [fmt(lam)]
        if rows[i][1:dim + 2] != want:
            problems.append(f"row {i}: printed {rows[i][1:dim + 2]}, pair scan gives {want}")
    return problems


def check_certificates(stdout: bytes, system, link_level, rng, samples: int) -> list[str]:
    """``detect`` CSV: eps is level(x, z), gap is level(z, x) - level(x, z) >= 4 h."""
    lines = stdout.decode(errors="replace").splitlines()
    if not lines or lines[0] != "x,z,eps,gap":
        return [f"certificate header {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if not rows or any(len(r) != 4 for r in rows):
        return [f"{len(rows)} certificate rows, or a row without 4 fields"]
    gaps = [float(r[3]) for r in rows]
    if any(a < b for a, b in zip(gaps, gaps[1:])):
        return ["certificates are not sorted by descending gap"]
    min_gap = 4.0 * system.spacing
    problems = []
    for i in _sample(rng, len(rows), samples):
        x, z = int(rows[i][0]), int(rows[i][1])
        eps, _ = link_level(system, x, z)
        back, _ = link_level(system, z, x)
        want = [fmt(eps), fmt(back - eps)]
        if rows[i][2:] != want or not back - eps >= min_gap:
            problems.append(f"certificate {i} ({x}, {z}): printed {rows[i][2:]}, "
                            f"pair scan gives {want} against min_gap {fmt(min_gap)}")
    return problems


def check_diagram(stdout: bytes, svg: bytes | None, system, flow_link_level, rng,
                  samples: int) -> list[str]:
    """``diagram`` JSON: nested slices; each point's lambda is the flow level(x, x)."""
    doc = json.loads(stdout)
    points, slices = doc["points"], doc["slices"]
    if [p.get("index") for p in points] != list(range(system.n)):
        return [f"diagram has {len(points)} points, expected samples 0..{system.n - 1}"]
    problems = []
    members = [set(s.get("members", ())) for s in slices]
    if not slices or any(not a <= b for a, b in zip(members, members[1:])):
        problems.append("diagram slices are missing or not nested")
    for i in _sample(rng, system.n, samples):
        lam, _ = flow_link_level(system, i, i)
        want = "inf" if math.isinf(lam) else lam
        got = points[i].get("lambda")
        if got != want:
            problems.append(f"point {i}: printed lambda {got!r}, pair scan gives {want!r}")
    if svg is None or not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
        problems.append("SVG missing or truncated")
    return problems
