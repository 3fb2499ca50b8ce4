"""Benchmark of the nwfilt command-line interface on four pipeline workloads.

Run from the repository root:

    python3 perfbench/run.py --workload analyze_f2 --seed 0 --seconds 30 --trace 0

A run drives the real CLI (``python3 -m nwfilt.cli`` with ``src`` on the path)
as a closed loop with one client: the next command starts only after the
previous one has exited, every command is its own child process with
``--threads 1``, and no command starts that would end after ``--seconds``
(the first one always runs).  The workloads and their seed-0 specs live in
``workloads.json``; other seeds scale every length of the input by a seeded
factor, which keeps its size and the work done on it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the untraced
loop for half the time, then one command under the tracer of ``traced.py``,
and prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric by name with its unit.
The self-test is ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads.json"

SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 60.0
CHECK_SAMPLES = 32
TRACEBACK = b"Traceback (most recent call last)"

# Times import nwfilt plus specfile.load_system(spec) in a fresh interpreter.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import nwfilt.specfile\n"
    "nwfilt.specfile.load_system(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


@dataclass
class Outcome:
    """One finished child process of the closed loop."""

    wall_s: float                 # spawn to exit
    rss_mb: float                 # peak resident memory of the child
    exit_code: int | None         # None when killed by the timeout
    stderr: bytes
    outputs: dict[str, bytes]     # "stdout", plus "svg" when the command writes one


def scale_for(seed: int) -> float:
    """Length scale of a seed's input; seed 0 is the canonical input."""
    return 1.0 if seed == 0 else 2.0 ** random.Random(seed).uniform(-1.0, 1.0)


def tail_table_spec(n_max: int, m_max: int, scale: float) -> dict:
    """The counterexample_tail system as an explicit table spec, scaled.

    Same points, map and horizon as the builtin (tail (1/n, 0), lattice
    (1/n, 1/m), re-injection from the top row to (1, 0)); at scale 1 the CLI
    prints the same bytes for it as for the builtin.
    """
    index, points = {}, []
    for n in range(1, n_max + 1):
        index[(n, 0)] = len(points)
        points.append([scale * (1.0 / n), 0.0])
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            index[(n, m)] = len(points)
            points.append([scale * (1.0 / n), scale * (1.0 / m)])
    step = [0] * len(points)
    for (n, m), i in index.items():
        if m == 0:
            target = (min(n + 1, n_max), 0)
        elif m == 1:
            target = (1, 0)
        else:
            target = (min(n + 1, n_max), m - 1)
        step[i] = index[target]
    return {"kind": "map",
            "source": {"table": {"points": points, "cost": "euclidean", "map": step}},
            "horizon": {"n_max": n_max + m_max + 2}}


def seeded_inputs(workload: dict, seed: int) -> tuple[dict, list[str]]:
    """Spec and CLI arguments (with {spec}/{svg} placeholders) for a seed."""
    s = scale_for(seed)
    spec = copy.deepcopy(workload["spec"])
    args = list(workload["command"])
    if seed == 0:
        return spec, args
    grid = spec.get("grid")
    if grid is not None:
        grid["box"] = [[lo * s, hi * s] for lo, hi in grid["box"]]
        grid["h"] = grid["h"] * s
    else:
        params = spec["source"]["params"]
        spec = tail_table_spec(params["n_max"], params["m_max"], s)
    for flag in workload.get("scaled_args", []):
        i = args.index(flag) + 1
        args[i] = repr(float(args[i]) * s)
    return spec, args


def run_command(argv: list[str], env: dict, work: Path, timeout: float,
                svg: Path | None = None) -> Outcome:
    """Run one child to completion and read its wall time and peak RSS."""
    out_path, err_path = work / "stdout", work / "stderr"
    if svg is not None and svg.exists():
        svg.unlink()
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    outputs = {"stdout": out_path.read_bytes()}
    if svg is not None and svg.exists():
        outputs["svg"] = svg.read_bytes()
    return Outcome(wall_s=wall, rss_mb=usage.ru_maxrss * 1024 / 1e6,
                   exit_code=None if killed.is_set() else proc.returncode,
                   stderr=err_path.read_bytes(), outputs=outputs)


def closed_loop(run_one, seconds: float) -> list[Outcome]:
    """Run commands back to back while the next one is expected to fit."""
    outcomes: list[Outcome] = []
    t0 = time.perf_counter()
    while True:
        outcomes.append(run_one())
        typical = statistics.median(o.wall_s for o in outcomes)
        if time.perf_counter() - t0 + typical > seconds:
            return outcomes


def setup_seconds(spec_path: Path, env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(spec_path)], cwd=ROOT,
                          env=env, capture_output=True, timeout=COMMAND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout)


def judge(outcomes: list[Outcome], expected_exit: int, check) -> list[list[str]]:
    """Problems of each outcome; an outcome with none is a correct run.

    ``check`` maps a command's outputs to a list of problems.  It runs once
    per distinct set of outputs, outside the timed window.
    """
    verdicts: dict[tuple, list[str]] = {}
    problems = []
    for o in outcomes:
        p = []
        if o.exit_code is None:
            p.append("timed out")
        elif o.exit_code != expected_exit:
            p.append(f"exit code {o.exit_code}, expected {expected_exit}")
        if TRACEBACK in o.stderr:
            p.append("traceback on stderr")
        if not p:
            key = tuple((k, hashlib.sha256(v).hexdigest()) for k, v in sorted(o.outputs.items()))
            if key not in verdicts:
                verdicts[key] = check(o.outputs)
            p = verdicts[key]
        problems.append(p)
    return problems


def fail_frac(problems: list[list[str]]) -> float:
    """Failed commands over attempted commands."""
    return sum(1 for p in problems if p) / len(problems)


def make_check(workload: dict, seed: int, spec_path: Path):
    """The output check of a workload: pinned digests at seed 0, plus a seeded
    re-derivation of sampled entries with the pair-scan functions."""
    sys.path.insert(0, str(SRC))
    from nwfilt.flows import flow_link_level
    from nwfilt.links import link_level
    from nwfilt.specfile import load_system

    system = load_system(spec_path).system
    pinned = workload["seed0_sha256"] if seed == 0 else {}
    kind = workload["command"][0]

    def check(outputs: dict[str, bytes]) -> list[str]:
        rng = random.Random(f"check-{seed}")
        problems = checks.check_digests(outputs, pinned)
        try:
            if kind == "analyze":
                problems += checks.check_levels_csv(outputs["stdout"], system, link_level,
                                                    rng, CHECK_SAMPLES)
            elif kind == "detect":
                problems += checks.check_certificates(outputs["stdout"], system, link_level,
                                                      rng, CHECK_SAMPLES)
            else:
                problems += checks.check_diagram(outputs["stdout"], outputs.get("svg"),
                                                 system, flow_link_level, rng, CHECK_SAMPLES)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as e:
            problems.append(f"malformed output: {e!r}")
        return problems

    return check, system.n


def report(name: str, seed: int, outcomes: list[Outcome], problems: list[list[str]],
           metrics: dict, notes: dict) -> dict:
    failed = sum(1 for p in problems if p)
    for o, p in zip(outcomes, problems):
        if p:
            print(f"failed run (exit {o.exit_code}, {o.wall_s:.3f} s): {'; '.join(p[:5])}",
                  file=sys.stderr)
    print(f"{name} seed={seed}: {len(outcomes)} commands, closed loop, 1 client, --threads 1")
    for key, (value, unit, how) in {**metrics, **notes}.items():
        print(f"  {key:<44} {value:>16.6g} {unit:<6} {how}")
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nwfilt" / "cli.py").is_file():
        print(f"no nwfilt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workloads = json.loads(WORKLOADS.read_text())["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec, cli_args = seeded_inputs(workload, args.seed)
        spec_path, svg_path = work / "spec.json", work / "out.svg"
        spec_path.write_text(json.dumps(spec) + "\n")
        svg = svg_path if "{svg}" in cli_args else None
        cli_args = [a.replace("{spec}", str(spec_path)).replace("{svg}", str(svg_path))
                    for a in cli_args]
        # --threads 1 for the whole command: numpy's BLAS pool stays single-threaded
        # too, so set-up does not time the start of idle worker threads.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        expected = workload["expected_exit"]

        setup = [] if args.trace else [setup_seconds(spec_path, env)
                                       for _ in range(SETUP_PROBES)]
        cli = [sys.executable, "-m", "nwfilt.cli", *cli_args]
        outcomes = closed_loop(lambda: run_command(cli, env, work, COMMAND_TIMEOUT_S, svg),
                               args.seconds / 2 if args.trace else args.seconds)
        wall = statistics.median(o.wall_s for o in outcomes)
        if args.trace:
            spans_path = work / "spans.jsonl"
            tracer_cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), *cli_args]
            traced_run = run_command(tracer_cmd, env, work, COMMAND_TIMEOUT_S, svg)
            outcomes.append(traced_run)

        check, n = make_check(workload, args.seed, spec_path)
        problems = judge(outcomes, expected, check)
        ok = [o for o, p in zip(outcomes, problems) if not p]
        if args.trace:
            layers = {} if not spans_path.exists() else traced.layer_metrics(
                spans_path, traced_run.wall_s, wall, len(traced_run.outputs["stdout"]))
            result = report(args.workload, args.seed, outcomes, problems, layers, {})
        else:
            metrics = {
                "wall_s": (wall, "s", f"median of {len(outcomes)} commands"),
                "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} probes"),
                "peak_rss_mb": (statistics.median(o.rss_mb for o in outcomes), "MB",
                                "median over commands"),
                "pairs_per_s": (n * n / wall, "1/s", f"{n}^2 target pairs per wall_s"),
            }
            notes = {"fail_frac": (fail_frac(problems), "1", f"{len(outcomes) - len(ok)} of "
                                   f"{len(outcomes)} commands failed")}
            if workload["command"][0] == "detect" and ok:
                certs = ok[0].outputs["stdout"].count(b"\n") - 1
                notes["certs_per_s"] = (certs / wall, "1/s", f"{certs} certificates per wall_s")
            result = report(args.workload, args.seed, outcomes, problems, metrics, notes)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
