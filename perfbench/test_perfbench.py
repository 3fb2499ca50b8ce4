"""Self-test of the benchmark's failure accounting.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SMALL = {"kind": "map", "source": {"builtin": "f2"},
         "grid": {"box": [[-0.5, 0.5]], "h": 0.05}, "horizon": {"n_max": 8}}
# 10^6 grid samples are over the CLI's sample cap, so analyze exits 3.
OVER_CAP = {"kind": "map", "source": {"builtin": "f2"},
            "grid": {"box": [[-5.0, 5.0]], "h": 1e-5}, "horizon": {"n_max": 8}}


def _analyze(tmp_path: Path, name: str, spec: dict) -> tuple[run.Outcome, Path]:
    spec_path = tmp_path / f"{name}.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    argv = [sys.executable, "-m", "nwfilt.cli", "analyze", str(spec_path), "--threads", "1"]
    return run.run_command(argv, env, tmp_path, 60.0), spec_path


def test_corrupted_stdout_and_exit_3_count_as_failed(tmp_path):
    good, spec_path = _analyze(tmp_path, "small", SMALL)
    lines = good.outputs["stdout"].decode().splitlines()
    row = lines[6].split(",")
    row[2] += "1"                       # one wrong digit in one lambda
    lines[6] = ",".join(row)
    corrupted = dataclasses.replace(good, outputs={"stdout": ("\n".join(lines) + "\n").encode()})
    over_cap, _ = _analyze(tmp_path, "over_cap", OVER_CAP)
    assert over_cap.exit_code == 3

    check, n = run.make_check({"command": ["analyze"], "seed0_sha256": {}}, 1, spec_path)
    assert n == 21
    problems = run.judge([good, corrupted, over_cap], expected_exit=0, check=check)

    assert problems[0] == []
    assert any("row 5" in p for p in problems[1])
    assert problems[2] == ["exit code 3, expected 0"]
    assert run.fail_frac(problems) == 2 / 3


def test_missing_target_is_absent_and_its_metrics_dropped(tmp_path, monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import nwfilt.cli  # noqa: F401  (loads every module the tracer patches)

    monkeypatch.setattr(run.traced, "TARGETS",
                        [("flows", "no_such_kernel", None, False)])
    assert run.traced.install(run.traced.Tracer()) == ["flows.no_such_kernel"]

    spans = [["cli.main", -1, 0.0, 1.0, None],
             ["links.level_matrix", 0, 0.1, 0.6, {"elem_ops": 10}],
             ["links.exit_min_matrix", 1, 0.2, 0.3, None]]
    path = tmp_path / "spans.jsonl"
    path.write_text(json.dumps({"spans": spans, "absent": ["flows.flow_exit_min"],
                                "install_s": 0.0}) + "\n" + json.dumps({"write_s": 0.0}) + "\n")
    metrics = run.traced.layer_metrics(path, traced_wall=1.25, untraced_wall=1.2,
                                       stdout_bytes=7)

    assert "flows.flow_exit_min.s" not in metrics
    assert metrics["links.product.self_s"][0] == pytest.approx(0.4)
    assert metrics["links.product.elem_ops"][0] == 10
    assert metrics["cli.self_s"][0] == pytest.approx(0.5)
    assert metrics["python.startup_s"][0] == pytest.approx(0.25)
    assert metrics["trace.self_sum_s"][0] == pytest.approx(1.25)
