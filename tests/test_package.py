"""The lazy package surface: ``import nwfilt`` loads a submodule only when one
of its names is first used, and a spec load imports only what it runs.

Each case runs in a fresh interpreter, since the test process has already
imported most of the package.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The public names, by submodule, as the package re-exported them eagerly.
PUBLIC = {
    "core": ["Branch", "CostSpace", "ExtendedLevel", "MapSystem", "ResourceLimitError",
             "build_sampled_system", "build_tabulated_system", "compare_levels",
             "grid_points", "neg_level", "pos_level", "validate_cost_space"],
    "links": ["LevelMatrix", "LinkWitness", "level_matrix", "link_level",
              "horizon_stability", "reachable_set", "recompute_witness_level"],
    "filtration": ["DiagramSlice", "LevelSummary", "critical_levels", "diagram", "nw_level",
                   "omega_membership", "omega_slice", "summarize"],
    "flows": ["SemiflowSystem", "build_flow_system",
              "flow_level_matrix", "flow_link_level", "integrate"],
    "wandering": ["WanderingCertificate", "certify_point", "find_wandering_certificates"],
    "builtins": ["BuiltinSystem", "analytic_level", "builtin", "builtin_names",
                 "build_builtin_flow", "build_grid_system", "counterexample_tail",
                 "tail_start_index"],
    "oracle": ["FiniteInstance", "definitional_omega", "definitional_reachable",
               "random_instance", "run_verification", "verify_lemmas"],
    "export": ["DiagramDocument", "build_document", "export_diagram_json",
               "export_levels_csv", "level_token", "parse_diagram_json",
               "parse_level_token", "render_svg"],
    "specfile": ["LoadedSystem", "SpecError", "build_from_spec", "load_system"],
}
NAMES = sorted(n for names in PUBLIC.values() for n in names)

LOADED = ("import json, sys\n"
          "print(json.dumps({'nwfilt': sorted(k for k in sys.modules if k.startswith('nwfilt.')),\n"
          "                  'numpy': 'numpy' in sys.modules,\n"
          "                  'futures': 'concurrent.futures' in sys.modules}))\n")


def run_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code: str, *args: str) -> dict:
    return json.loads(run_python(code + LOADED, *args).splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    got = loaded_after("import nwfilt\nassert nwfilt.__version__\n")
    assert got == {"nwfilt": [], "numpy": False, "futures": False}


@pytest.mark.parametrize("spec, extra", [
    ({"kind": "map", "source": {"builtin": "f2"},
      "grid": {"box": [[-1.0, 1.0]], "h": 0.1}, "horizon": {"n_max": 4}}, []),
    ({"kind": "map", "source": {"builtin": "counterexample_tail",
                                "params": {"n_max": 4, "m_max": 4}}}, []),
    ({"kind": "semiflow", "source": {"builtin": "flow_att"},
      "grid": {"box": [[-1.0, 1.0]], "h": 0.1},
      "horizon": {"dt": 0.1, "t_min": 1.0, "t_max": 2.0}}, ["flows"]),
], ids=["map", "table", "semiflow"])
def test_spec_load_imports_only_what_it_runs(tmp_path, spec, extra):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    got = loaded_after("import sys, nwfilt.specfile\nnwfilt.specfile.load_system(sys.argv[1])\n",
                       str(path))
    want = sorted(f"nwfilt.{m}" for m in ["core", "builtins", "specfile", *extra])
    assert got == {"nwfilt": want, "numpy": True, "futures": False}


def test_every_public_name_is_its_submodule_attribute():
    out = run_python(
        "import importlib, json, sys, nwfilt\n"
        "public = json.loads(sys.argv[1])\n"
        "bad = [n for m, names in public.items() for n in names\n"
        "       if getattr(nwfilt, n) is not getattr(importlib.import_module('nwfilt.' + m), n)]\n"
        "print(json.dumps([bad, sorted(nwfilt.__all__)]))\n", json.dumps(PUBLIC))
    bad, exported = json.loads(out)
    assert bad == [] and exported == NAMES


def test_star_import_and_dir_list_every_name():
    out = run_python(
        "import json, nwfilt\n"
        "scope = {}\n"
        "exec('from nwfilt import *', scope)\n"
        "print(json.dumps([sorted(set(scope) - {'__builtins__'}), dir(nwfilt)]))\n")
    bound, listed = json.loads(out)
    assert bound == NAMES
    assert set(NAMES) <= set(listed) and "__version__" in listed


def test_unknown_name_raises_attribute_error():
    out = run_python(
        "import nwfilt\n"
        "for name in ('no_such_name', 'cli', '_MODULE'):\n"
        "    try:\n"
        "        getattr(nwfilt, name)\n"
        "    except AttributeError as e:\n"
        "        print(e)\n"
        "print(hasattr(nwfilt, 'no_such_name'))\n")
    assert out.splitlines() == ["module 'nwfilt' has no attribute 'no_such_name'",
                                "module 'nwfilt' has no attribute 'cli'",
                                "module 'nwfilt' has no attribute '_MODULE'",
                                "False"]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run_python(code + "assert certs\n")


BLAS_SEEN = """
import json, os, sys

seen = {}


class Spy:
    # the BLAS variables as numpy's import finds them
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})


sys.meta_path.insert(0, Spy())
import nwfilt.cli
print(json.dumps(seen))
"""


@pytest.mark.parametrize("given, want", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"},
     {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}),
], ids=["unset", "user-set"])
def test_cli_sets_one_blas_thread_before_numpy_unless_the_user_did(given, want):
    """The engine does no BLAS work: the CLI asks for one BLAS thread before
    numpy is imported, and keeps a value the user set."""
    env = {k: v for k, v in os.environ.items() if k not in want}
    env.update(given, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", BLAS_SEEN], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == want
