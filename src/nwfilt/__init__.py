"""Coarse recurrence analysis for sampled dynamical systems.

The library measures how cheaply a sampled map or semiflow steers between
states with a single perturbation at entry and exit, derives per-sample
recurrence and robustness levels from those link costs, slices the resulting
filtration over a split-origin index line, and searches for certificates of
wandering behavior.  An exact brute-force oracle over small finite systems
validates every reduction the engine uses.
"""

from .core import (Branch, CostSpace, ExtendedLevel, MapSystem, ResourceLimitError,
                   build_sampled_system, build_tabulated_system, compare_levels,
                   grid_points, neg_level, pos_level, validate_cost_space)
from .links import (LevelMatrix, LinkWitness, level_matrix, link_level,
                    horizon_stability, reachable_set, recompute_witness_level)
from .filtration import (DiagramSlice, LevelSummary, critical_levels, diagram,
                         nw_level, omega_membership, omega_slice,
                         robustness_level, summarize)
from .flows import (FlowLinkWitness, SemiflowSystem, build_flow_system,
                    flow_level_matrix, flow_link_level, integrate)
from .wandering import WanderingCertificate, certify_point, find_wandering_certificates
from .builtins import (BuiltinSystem, analytic_level, builtin, builtin_names,
                       build_builtin_flow, build_grid_system, counterexample_tail,
                       tail_start_index)
from .oracle import (FiniteInstance, definitional_omega, definitional_reachable,
                     random_instance, run_verification, verify_lemmas)
from .export import (DiagramDocument, build_document, export_diagram_json,
                     export_levels_csv, level_token, parse_diagram_json,
                     parse_level_token, render_svg)
from .specfile import LoadedSystem, SpecError, build_from_spec, load_system

__version__ = "0.1.0"
