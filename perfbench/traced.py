"""Traced run of one nwfilt CLI command, and the per-layer metrics of its spans.

As a script it runs ``nwfilt.cli.main`` with a span around every call into
the public functions listed in ``TARGETS``:

    PYTHONPATH=src python3 perfbench/traced.py SPANS_FILE analyze spec.json --threads 1

Each target is wrapped by replacing its name in every nwfilt module that
holds it, so nothing under ``src/`` changes.  A target that no longer exists
is recorded as absent and its metrics are dropped, not the run.  Spans stay
in memory, each with the index of its parent span, and are written once at
the end; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path


def _matrix_ops(args, kwargs, result) -> dict:
    # One max and one min per (row, column, entry sample): m^2 * n.
    return {"elem_ops": result.levels.shape[0] ** 2 * args[0].n}


def _certificate_counts(args, kwargs, result) -> dict:
    # Each certificate's witness rescans every (entry sample, step) candidate.
    system = kwargs.get("system", args[2] if len(args) > 2 else None)
    per_witness = system.n * system.horizon if system is not None else 0
    return {"certificates": len(result), "witness_candidates": len(result) * per_witness}


# (module, function, counter hook, track memory): the layer boundaries.
TARGETS = [
    ("specfile", "load_system", None, False),
    ("core", "build_sampled_system", None, False),
    ("core", "build_tabulated_system", None, False),
    ("flows", "integrate", None, False),
    ("links", "entry_cost_rows", None, False),
    ("links", "exit_min_matrix", None, False),
    ("links", "level_matrix", _matrix_ops, True),
    ("links", "horizon_stability", None, False),
    ("links", "link_level", None, False),
    ("flows", "flow_exit_min", None, False),
    ("flows", "flow_level_matrix", _matrix_ops, True),
    ("wandering", "find_wandering_certificates", _certificate_counts, False),
    ("filtration", "summarize", None, False),
    ("filtration", "diagram", None, False),
    ("export", "export_levels_csv", None, False),
    ("export", "export_diagram_json", None, False),
    ("export", "render_svg", None, False),
]


class Tracer:
    """In-memory spans ``[name, parent index, start, end, counters]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, count=None, memory=False):
        span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        own_memory = memory and not tracemalloc.is_tracing()
        if own_memory:
            tracemalloc.start()
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()
            if own_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        try:
            counters = count(args, kwargs, result) if count else {}
        except (AttributeError, IndexError, TypeError):
            counters = {}   # the signature or result changed shape: no counts
        if own_memory:
            counters["peak_mb"] = peak / 1e6
        span[4] = counters or None
        return result

    def wrap(self, name, fn, count=None, memory=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count, memory)
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in every loaded nwfilt module; return the absent ones."""
    modules = [m for k, m in sys.modules.items() if k == "nwfilt" or k.startswith("nwfilt.")]
    absent = []
    for module, function, count, memory in TARGETS:
        name = f"{module}.{function}"
        original = getattr(sys.modules.get(f"nwfilt.{module}"), function, None)
        if not callable(original):
            absent.append(name)
            continue
        wrapped = tracer.wrap(name, original, count, memory)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)
    return absent


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    import nwfilt.cli

    tracer = Tracer()
    t0 = time.perf_counter()
    absent = install(tracer)
    install_s = time.perf_counter() - t0
    try:
        return tracer.call("cli.main", nwfilt.cli.main, (cli_args,), {})
    finally:
        t0 = time.perf_counter()
        with open(spans_path, "w") as f:
            f.write(json.dumps({"spans": tracer.spans, "absent": absent,
                                "install_s": install_s}) + "\n")
            f.write(json.dumps({"write_s": time.perf_counter() - t0}) + "\n")


def _ratio(a: float, b: float) -> float:
    """a / b, reading 0 when nothing was done (b == 0)."""
    return a / b if b else 0.0


# metric -> (unit, span name, field of the span aggregate or a function of it)
LAYER_METRICS = {
    "specfile.load_system.s": ("s", "specfile.load_system", "s"),
    "core.build_sampled_system.s": ("s", "core.build_sampled_system", "s"),
    "core.build_tabulated_system.s": ("s", "core.build_tabulated_system", "s"),
    "flows.integrate.s": ("s", "flows.integrate", "s"),
    "links.level_matrix.s": ("s", "links.level_matrix", "s"),
    "links.level_matrix.calls": ("count", "links.level_matrix", "calls"),
    "links.level_matrix.peak_mb": ("MB", "links.level_matrix", "peak_mb"),
    "links.product.self_s": ("s", "links.level_matrix", "self_s"),
    "links.product.elem_ops": ("count", "links.level_matrix", "elem_ops"),
    "links.product.elem_ops_per_s": ("1/s", "links.level_matrix",
                                     lambda a: _ratio(a["elem_ops"], a["self_s"])),
    "links.horizon_stability.s": ("s", "links.horizon_stability", "s"),
    "links.exit_min_matrix.s": ("s", "links.exit_min_matrix", "s"),
    "links.exit_min_matrix.calls": ("count", "links.exit_min_matrix", "calls"),
    "links.entry_cost_rows.s": ("s", "links.entry_cost_rows", "s"),
    "links.link_level.s": ("s", "links.link_level", "s"),
    "links.link_level.calls": ("count", "links.link_level", "calls"),
    "links.link_level.us_per_call": ("us", "links.link_level",
                                     lambda a: _ratio(1e6 * a["s"], a["calls"])),
    "flows.flow_exit_min.s": ("s", "flows.flow_exit_min", "s"),
    "flows.flow_level_matrix.s": ("s", "flows.flow_level_matrix", "s"),
    "flows.flow_level_matrix.peak_mb": ("MB", "flows.flow_level_matrix", "peak_mb"),
    "flows.product.self_s": ("s", "flows.flow_level_matrix", "self_s"),
    "flows.product.elem_ops": ("count", "flows.flow_level_matrix", "elem_ops"),
    "flows.product.elem_ops_per_s": ("1/s", "flows.flow_level_matrix",
                                     lambda a: _ratio(a["elem_ops"], a["self_s"])),
    "wandering.find_wandering_certificates.s": ("s", "wandering.find_wandering_certificates", "s"),
    "wandering.self_s": ("s", "wandering.find_wandering_certificates", "self_s"),
    "wandering.certificates": ("count", "wandering.find_wandering_certificates", "certificates"),
    "wandering.witness_candidates": ("count", "wandering.find_wandering_certificates",
                                     "witness_candidates"),
    "wandering.witness_useful_ratio": ("1", "wandering.find_wandering_certificates",
                                       lambda a: _ratio(a["certificates"],
                                                        a["witness_candidates"])),
    "filtration.summarize.s": ("s", "filtration.summarize", "s"),
    "filtration.diagram.s": ("s", "filtration.diagram", "s"),
    "export.export_levels_csv.s": ("s", "export.export_levels_csv", "s"),
    "export.export_diagram_json.s": ("s", "export.export_diagram_json", "s"),
    "export.render_svg.s": ("s", "export.render_svg", "s"),
    "cli.self_s": ("s", "cli.main", "self_s"),
}


def layer_metrics(spans_path: Path, traced_wall: float, untraced_wall: float,
                  stdout_bytes: int) -> dict[str, tuple]:
    """Per-layer metrics ``name -> (value, unit, note)`` of one traced command.

    Self time is a span's duration minus its children's.  ``python.startup_s``
    is the traced command's time outside ``cli.main`` less the tracer's own
    bookkeeping (wrapping, writing spans), so the self times of all layers add
    up to the traced wall time less that bookkeeping: they exceed the untraced
    wall time by ``trace.overhead_s`` minus the bookkeeping.
    """
    head, tail = spans_path.read_text().splitlines()[:2]
    record, write_s = json.loads(head), json.loads(tail)["write_s"]
    spans = record["spans"]
    inner = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            inner[parent] += t1 - t0
    agg: dict[str, Counter] = {}
    for (name, _, t0, t1, counters), child in zip(spans, inner):
        a = agg.setdefault(name, Counter())
        a["calls"] += 1
        a["s"] += t1 - t0
        a["self_s"] += t1 - t0 - child
        for k, v in (counters or {}).items():
            a[k] = max(a[k], v) if k == "peak_mb" else a[k] + v

    metrics = {}
    absent = set(record["absent"])
    for metric, (unit, span, field) in LAYER_METRICS.items():
        if span in absent:
            print(f"trace: {span} not found in nwfilt; {metric} dropped", file=sys.stderr)
            continue
        a = agg.get(span, Counter())
        value = field(a) if callable(field) else a[field]
        metrics[metric] = (value if unit == "count" else float(value), unit,
                           f"{a['calls']} spans of {span}")

    startup = traced_wall - agg["cli.main"]["s"] - record["install_s"] - write_s
    self_sum = startup + sum(a["self_s"] for a in agg.values())
    overhead = traced_wall - untraced_wall
    metrics["cli.stdout_bytes"] = (stdout_bytes, "count", "bytes written to stdout")
    metrics["python.startup_s"] = (startup, "s", "interpreter start, imports and exit")
    metrics["trace.self_sum_s"] = (self_sum, "s", f"untraced wall_s {untraced_wall:.4f} s")
    metrics["trace.overhead_s"] = (overhead, "s", "traced minus untraced wall time")

    print("self time by layer (traced command):", file=sys.stderr)
    rows = [("python.startup", startup)] + [(k, a["self_s"]) for k, a in agg.items()]
    for name, value in sorted(rows, key=lambda r: -r[1]):
        print(f"  {name:<40} {value:10.4f} s", file=sys.stderr)
    print(f"  sum {self_sum:.4f} s; untraced wall {untraced_wall:.4f} s; traced wall "
          f"{traced_wall:.4f} s; gap {self_sum - untraced_wall:.4f} s; trace overhead "
          f"{overhead:.4f} s", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
