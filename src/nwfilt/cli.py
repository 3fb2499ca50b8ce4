"""Command-line interface.

Subcommands:

* ``analyze``  per-sample recurrence and robustness levels as CSV
* ``diagram``  slice the filtration over a budget range, JSON and optional SVG
* ``detect``   wandering-domain certificates (cheaply reachable, dearly returnable pairs)
* ``verify``   definitional lemma sweep over random finite instances

Standard output carries data, standard error carries diagnostics; they are
never mixed.  Exit codes: 0 success (and certificates found / zero
violations), 1 no certificates / violations found, 2 bad specification or
arguments (an unreadable spec file or an unwritable output path included),
3 resource limit exceeded.  Output paths are checked before any work, and
side files are written before standard output, so a command that exits 2 or
3 writes nothing to standard output.  All randomness is seed-controlled and
every output is byte-stable across runs and thread counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# no BLAS thread pool at numpy's import: the engine does no BLAS work
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

# Every module the commands call stays imported here, even where one command
# needs it: perfbench/traced.py wraps only the functions of modules already
# loaded by `import nwfilt.cli`, so a lazier import would drop per-layer
# metrics without an error.  Only the oracle, which no traced target uses, is
# imported by `verify` alone.
from .core import ExtendedLevel, Branch, ResourceLimitError
from .filtration import diagram, level_summary, summarize
from .flows import IntegrationError
from .links import horizon_report, level_matrix, reduced_horizon
from .export import (build_document, check_svg_coords, check_svg_size,
                     export_diagram_json, export_levels_csv, render_svg)
from .specfile import LoadedSystem, SpecError, instance_to_spec, load_system
from .wandering import find_wandering_certificates

EXIT_OK = 0
EXIT_NONE = 1
EXIT_SPEC = 2
EXIT_RESOURCE = 3
MAX_BUDGETS = 10_000   # diagram budgets from --eps-min to --eps-max, the gate before any work
HORIZON_CHECK_CAP = 2048   # largest n for which analyze runs the horizon check


def _coords(loaded: LoadedSystem):
    return loaded.system.space.coords


def _write(path: str | None, data: bytes) -> None:
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
    else:
        Path(path).write_bytes(data)


def _check_writable(*paths: str | None) -> None:
    """Reject output paths that cannot be written, or that name one file twice,
    before any work starts."""
    seen = set()
    for p in paths:
        if p is None or p == "-":
            continue
        path = Path(p)
        if not path.parent.is_dir():
            raise SpecError(f"cannot write {p}: no directory {path.parent}")
        if path.is_dir() or not os.access(path if path.exists() else path.parent, os.W_OK):
            raise SpecError(f"cannot write {p}")
        if path.resolve() in seen:
            raise SpecError(f"cannot write two outputs to {p}")
        seen.add(path.resolve())


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _changes(full: np.ndarray, half: np.ndarray) -> tuple[int, float]:
    """How many levels differ (NaN equals NaN), and the largest numeric change."""
    changed = ~((full == half) | (np.isnan(full) & np.isnan(half)))
    diff = np.abs(half[changed] - full[changed])
    return np.count_nonzero(changed), float(np.max(diff, where=~np.isnan(diff), initial=0.0))


def _horizon_line(full, half) -> str:
    """stable, or the samples whose lam and whose beta differ at the reduced horizon."""
    (k, a), (j, b) = _changes(full.lam, half.lam), _changes(full.beta, half.beta)
    if k == j == 0:
        return "stable"
    return f"lam changed on {k} samples (max {a:.3g}), beta on {j} (max {b:.3g})"


def cmd_analyze(args) -> int:
    _check_writable(args.out, args.matrix_out)
    loaded = load_system(args.spec)
    system, is_map = loaded.system, loaded.kind == "map"
    check = system.n <= HORIZON_CHECK_CAP
    pairs = bool(args.matrix_out) and check and is_map   # the check counts changed pairs
    if args.matrix_out:
        matrix = level_matrix(system, threads=args.threads)
        header = ",".join(str(int(t)) for t in matrix.targets)
        rows = "\n".join(",".join(f"{v:.9g}" for v in row) for row in matrix.levels)
        Path(args.matrix_out).write_bytes((header + "\n" + rows + "\n").encode())
    # With a map's matrix the check compares its pairs (horizon_report).
    # Otherwise it runs the summary's pass on the reduced window's exit
    # minima, then on the same array lowered over the rest of the window, for
    # maps and flows alike.
    if check and not pairs:
        summary, half = level_summary(system, loaded.tau, args.threads, horizon_check=True)
    elif args.matrix_out:
        summary = summarize(matrix, zero_tol=loaded.tau)
    else:
        summary = level_summary(system, loaded.tau, args.threads)
    _write(args.out, export_levels_csv(summary, _coords(loaded)))
    meta = loaded.meta
    if is_map:
        _diag(f"{loaded.name}: n={system.n} h={meta.get('h')} "
              f"n_max={system.horizon} tau={loaded.tau:.9g}")
        at = f"n_max={reduced_horizon(system)}"
    else:
        hz = meta["horizon"]
        _diag(f"{loaded.name}: n={system.n} h={meta.get('h')} dt={hz['dt']} "
              f"T={hz['t_min']} t_max={hz['t_max']} tau={loaded.tau:.9g} "
              f"(levels computed at the largest duration floor T)")
        at = f"t_max={reduced_horizon(system) * system.dt:.6g}"
    if not check:
        _diag(f"horizon check skipped: n={system.n} > {HORIZON_CHECK_CAP}")
    elif pairs:
        rep = horizon_report(system, matrix, args.threads)
        state = "stable" if rep.stable else f"{rep.changed_pairs} pairs changed (max {rep.max_change:.3g})"
        _diag(f"horizon check at {at}: {state}")
    else:
        _diag(f"horizon check at {at}: {_horizon_line(summary, half)}")
    return EXIT_OK


def _parse_magnitudes(args) -> list[float]:
    """The positive budgets eps_min, eps_min + step, ... up to eps_max, each rounded."""
    if not all(np.isfinite([args.eps_min, args.eps_max, args.eps_step])):
        raise SpecError("--eps-min, --eps-max and --eps-step must be finite")
    if args.eps_step <= 0:
        raise SpecError("--eps-step must be positive")
    if args.eps_min > args.eps_max:
        raise SpecError("--eps-min must not exceed --eps-max")
    mags = []
    v = args.eps_min
    for _ in range(MAX_BUDGETS + 1):
        if v > args.eps_max + 1e-12:
            return mags
        if v > 0:
            mags.append(round(v, 12))
        v += args.eps_step
    raise ResourceLimitError(
        f"more than {MAX_BUDGETS} budgets from --eps-min to --eps-max; "
        "use a larger --eps-step or a narrower range")


def cmd_diagram(args) -> int:
    mags = _parse_magnitudes(args)
    check_svg_size(args.width, args.height)
    _check_writable(args.json, args.svg)
    loaded = load_system(args.spec)
    if args.svg:
        check_svg_coords(_coords(loaded))
    summary = level_summary(loaded.system, loaded.tau, args.threads)
    levels = [ExtendedLevel(Branch.NEG, m) for m in reversed(mags)]
    levels += [ExtendedLevel(Branch.NEG, 0.0), ExtendedLevel(Branch.POS, 0.0)]
    levels += [ExtendedLevel(Branch.POS, m) for m in mags]
    slices = diagram(summary, levels)
    doc = build_document(summary, slices, loaded.meta, _coords(loaded),
                         loaded.system.spacing)
    if args.svg:
        Path(args.svg).write_bytes(render_svg(doc, args.width, args.height))
    _write(args.json, export_diagram_json(doc))
    _diag(f"{loaded.name}: {len(slices)} slices over "
          f"[-{args.eps_max}, -0] and [+0, {args.eps_max}]")
    return EXIT_OK


def cmd_detect(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise SpecError("--limit must be at least 1")
    if args.min_gap is not None and not args.min_gap > 0:
        raise SpecError("--min-gap must be positive")
    _check_writable(args.out)
    loaded = load_system(args.spec)
    if loaded.kind != "map":
        raise SpecError("certificate detection runs on maps")
    matrix = level_matrix(loaded.system, threads=args.threads)
    h = loaded.system.spacing
    min_gap = args.min_gap if args.min_gap is not None else (4.0 * h if h else 1e-9)
    certs = find_wandering_certificates(matrix, min_gap, limit=args.limit)
    coords = _coords(loaded)
    if args.out:
        payload = {"schema_version": 1,
                   "system": loaded.meta, "min_gap": min_gap,
                   "certificates": [
                       {"x": c.x, "z": c.z,
                        **({"x_coords": [float(v) for v in coords[c.x]],
                            "z_coords": [float(v) for v in coords[c.z]]} if coords is not None else {}),
                        "eps": c.eps, "gap": float(c.gap) if np.isfinite(c.gap) else "inf"}
                       for c in certs]}
        Path(args.out).write_bytes((json.dumps(payload, indent=2) + "\n").encode())
    lines = ["x,z,eps,gap"]
    for c in certs:
        lines.append(f"{c.x},{c.z},{c.eps:.9g},{c.gap:.9g}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    _diag(f"{loaded.name}: {len(certs)} certificates at min_gap={min_gap:.9g} "
          f"(evidence at sampled resolution, not proof)")
    return EXIT_OK if certs else EXIT_NONE


def cmd_verify(args) -> int:
    from .oracle import run_verification

    if args.seeds < 1:
        raise SpecError("--seeds must be at least 1")
    if args.max_size < 2 or args.max_size > 12:
        raise SpecError("--max-size must be in [2, 12]")
    dump_dir = Path(args.dump_failures) if args.dump_failures else None
    if dump_dir:
        dump_dir.mkdir(parents=True, exist_ok=True)

    def on_failure(inst, report):
        if dump_dir:
            spec = instance_to_spec(inst.cost, inst.table, inst.horizon)
            (dump_dir / f"instance_{inst.seed}.json").write_text(json.dumps(spec, indent=2) + "\n")

    summary = run_verification(args.seeds, max_size=args.max_size,
                               seed_start=args.seed_start, on_failure=on_failure)
    print(f"instances={summary.instances} violations={len(summary.failures)}")
    for seed, fails in summary.failures:
        for f in fails:
            print(f"seed={seed} check={f.name} {f.detail}")
    _diag(f"verified {summary.instances} instances, sizes 2..{args.max_size}, "
          f"seeds {args.seed_start}..{args.seed_start + args.seeds - 1}")
    return EXIT_OK if summary.ok else EXIT_NONE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nwfilt",
                                 description="Coarse recurrence analysis of sampled maps and semiflows")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--threads", type=int, default=1,
                       help="parallel workers for matrix assembly (output is identical for any value)")

    p = sub.add_parser("analyze", help="per-sample levels as CSV")
    p.add_argument("spec")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--matrix-out", default=None, help="optional full level-matrix CSV")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("diagram", help="filtration slices as JSON and optional SVG")
    p.add_argument("spec")
    p.add_argument("--eps-min", type=float, default=0.0)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--eps-step", type=float, required=True)
    p.add_argument("--json", default=None, help="JSON path (default: stdout)")
    p.add_argument("--svg", default=None, help="optional SVG path (1-D systems)")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=420)
    common(p)
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("detect", help="wandering-domain certificates")
    p.add_argument("spec")
    p.add_argument("--min-gap", type=float, default=None,
                   help="reporting gap (default: 4x grid spacing)")
    p.add_argument("--out", default=None, help="optional JSON certificate dump")
    p.add_argument("--limit", type=int, default=None, help="report at most this many certificates")
    common(p)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("verify", help="definitional lemma sweep on random instances")
    p.add_argument("--seeds", type=int, default=1000)
    p.add_argument("--seed-start", type=int, default=0)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--dump-failures", default=None, help="directory for failing instances")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise SpecError("--threads must be at least 1")
        return args.fn(args)
    except SpecError as e:
        _diag(f"spec error: {e}")
        return EXIT_SPEC
    except IntegrationError as e:
        _diag(f"integration error: {e}")
        return EXIT_SPEC
    except ResourceLimitError as e:
        _diag(f"resource limit: {e}")
        return EXIT_RESOURCE
    except ValueError as e:
        _diag(f"error: {e}")
        return EXIT_SPEC
    except OSError as e:
        _diag(f"I/O error: {e}")
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
