"""The nwfilt names that the benchmark harness under ``perfbench/`` uses.

``perfbench/traced.py`` wraps every ``(module, function)`` of its ``TARGETS``
and records a missing one as absent, which silently zeroes that layer's
metrics.  ``perfbench/run.py``'s ``make_check`` imports the pair-scan
functions and the spec loader; an import error there fails every command's
check as malformed output.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


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
