"""The nwfilt names that the benchmark harness under ``perfbench/`` uses.

``perfbench/traced.py`` wraps every ``(module, function)`` of its ``TARGETS``
and records a missing one as absent, which silently zeroes that layer's
metrics.  It wraps only modules that ``import nwfilt.cli`` has loaded, so the
CLI must keep importing each of them.  ``perfbench/run.py``'s ``make_check``
imports the pair-scan functions and the spec loader; an import error there
fails every command's check as malformed output.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def traced_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, f) for m, f, *_ in module.TARGETS]


@pytest.mark.parametrize("module, name", traced_targets())
def test_traced_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"nwfilt.{module}"), name, None))


def test_check_imports():
    from nwfilt.flows import flow_link_level
    from nwfilt.links import link_level
    from nwfilt.specfile import load_system

    assert all(map(callable, (flow_link_level, link_level, load_system)))


def test_cli_import_loads_every_traced_module():
    """In a fresh interpreter, as in ``traced.py``: every target's module is
    loaded by ``import nwfilt.cli``, and the oracle, which only ``verify`` uses,
    is not."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import json, sys, nwfilt.cli\n"
            "print(json.dumps(sorted(k for k in sys.modules if k.startswith('nwfilt.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {f"nwfilt.{m}" for m, _ in traced_targets()} <= loaded
    assert "nwfilt.oracle" not in loaded
