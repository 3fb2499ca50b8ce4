"""Coarse recurrence analysis for sampled dynamical systems.

The library measures how cheaply a sampled map or semiflow steers between
states with a single perturbation at entry and exit, derives per-sample
recurrence and robustness levels from those link costs, slices the resulting
filtration over a split-origin index line, and searches for certificates of
wandering behavior.  An exact brute-force oracle over small finite systems
validates every reduction the engine uses.

The public names below are loaded lazily (PEP 562): ``import nwfilt`` imports
neither numpy nor any submodule, and ``nwfilt.NAME`` imports NAME's submodule
on first use.  So a command or script pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "core": ("Branch", "CostSpace", "ExtendedLevel", "MapSystem", "ResourceLimitError",
             "build_sampled_system", "build_tabulated_system", "compare_levels",
             "grid_points", "neg_level", "pos_level", "validate_cost_space"),
    "links": ("LevelMatrix", "LinkWitness", "level_matrix", "link_level",
              "horizon_stability", "reachable_set", "recompute_witness_level"),
    "filtration": ("DiagramSlice", "LevelSummary", "critical_levels", "diagram",
                   "nw_level", "omega_membership", "omega_slice", "robustness_level",
                   "summarize"),
    "flows": ("FlowLinkWitness", "SemiflowSystem", "build_flow_system",
              "flow_level_matrix", "flow_link_level", "integrate"),
    "wandering": ("WanderingCertificate", "certify_point", "find_wandering_certificates"),
    "builtins": ("BuiltinSystem", "analytic_level", "builtin", "builtin_names",
                 "build_builtin_flow", "build_grid_system", "counterexample_tail",
                 "tail_start_index"),
    "oracle": ("FiniteInstance", "definitional_omega", "definitional_reachable",
               "random_instance", "run_verification", "verify_lemmas"),
    "export": ("DiagramDocument", "build_document", "export_diagram_json",
               "export_levels_csv", "level_token", "parse_diagram_json",
               "parse_level_token", "render_svg"),
    "specfile": ("LoadedSystem", "SpecError", "build_from_spec", "load_system"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
