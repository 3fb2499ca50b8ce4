"""Registry of reference systems with closed-form level functions.

Each builtin couples an evaluator (a coordinate map or a vector field) with
the analytically known recurrence level ``lam`` and robustness level ``beta``
where those admit closed forms; the regression suite checks the engine
against them at grid resolution.

Maps (on the real line, default box [-5, 5]):

* ``f2``        x -> 2x          lam = |x|/3, beta defined only at 0 (value 0)
* ``f_half``    x -> x/2         lam = |x|/3, beta(0) = inf
* ``f_rep``     x, 2x (x > 0)    lam = max(x, 0)/3, beta = |x| on x <= 0
* ``f_att``     x, x/2 (x > 0)   lam = max(x, 0)/3, beta = inf on x <= 0
* ``identity``  x -> x           lam = 0, beta = inf everywhere

Flows (default box [-3, 3]):

* ``flow_Z``    field -x         lam = |x|, beta(0) = inf
* ``flow_Y``    field +x         lam = |x| (a one-jump link parks on the
                                 rest point at 0 and jumps back out, so the
                                 level is the distance to 0; see the notes)
* ``flow_rep``  field 0 / +x     lam = max(x, 0), beta = |x| on x <= 0
* ``flow_att``  field 0 / -x     lam = max(x, 0), beta = inf on x <= 0
* ``translation_flow`` field 1   no recurrent samples at any budget

``counterexample_tail`` is a tabulated planar system: a chain of rest stops
marching towards the origin along the x-axis, shadowed by a lattice of points
that re-inject onto the start of the chain.  Its start point p = (1, 0) has
recurrence level exactly 1/2 at every truncation, while the return levels
from points on its forward orbit shrink like one over the lattice depth, so
the robust-return relation at zero budget emerges only in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .core import DEFAULT_MAX_SAMPLES, MapSystem, build_sampled_system, build_tabulated_system

if TYPE_CHECKING:
    from .flows import SemiflowSystem

TAIL_NAME = "counterexample_tail"


@dataclass(frozen=True)
class BuiltinSystem:
    name: str
    kind: str                          # "map" | "semiflow" | "table"
    evaluator: Callable | None
    analytic_lambda: Callable[[np.ndarray], np.ndarray] | None = None
    analytic_beta: Callable[[np.ndarray], np.ndarray] | None = None
    default_box: tuple[float, float] = (-5.0, 5.0)
    default_spacing: float = 0.01
    default_horizon: int = 64
    default_dt: float = 0.01
    default_t_min: float = 10.0
    default_t_max: float = 20.0
    description: str = ""


def _map1d(fn):
    def step(pts: np.ndarray) -> np.ndarray:
        return fn(pts[:, 0])[:, None]
    return step


def _beta_only_at_zero(value: float):
    def beta(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0, value, np.nan)
    return beta


def _beta_on_nonpositive(kind: str):
    def beta(x):
        x = np.asarray(x, dtype=float)
        val = np.abs(x) if kind == "abs" else np.full_like(x, np.inf)
        return np.where(x <= 0, val, np.nan)
    return beta


_REGISTRY: dict[str, BuiltinSystem] = {}


def _register(b: BuiltinSystem) -> None:
    _REGISTRY[b.name] = b


_register(BuiltinSystem(
    name="f2", kind="map", evaluator=_map1d(lambda x: 2.0 * x),
    analytic_lambda=lambda x: np.abs(x) / 3.0,
    analytic_beta=_beta_only_at_zero(0.0),
    description="doubling map on the line"))

_register(BuiltinSystem(
    name="f_half", kind="map", evaluator=_map1d(lambda x: 0.5 * x),
    analytic_lambda=lambda x: np.abs(x) / 3.0,
    analytic_beta=_beta_only_at_zero(np.inf),
    description="halving map on the line"))

_register(BuiltinSystem(
    name="f_rep", kind="map",
    evaluator=_map1d(lambda x: np.where(x <= 0, x, 2.0 * x)),
    analytic_lambda=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0) / 3.0,
    analytic_beta=_beta_on_nonpositive("abs"),
    description="half-line of rest points with doubling on the right"))

_register(BuiltinSystem(
    name="f_att", kind="map",
    evaluator=_map1d(lambda x: np.where(x <= 0, x, 0.5 * x)),
    analytic_lambda=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0) / 3.0,
    analytic_beta=_beta_on_nonpositive("inf"),
    description="half-line of rest points with halving on the right"))

_register(BuiltinSystem(
    name="identity", kind="map", evaluator=_map1d(lambda x: x.copy()),
    analytic_lambda=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    analytic_beta=lambda x: np.full_like(np.asarray(x, dtype=float), np.inf),
    description="identity map"))

_register(BuiltinSystem(
    name="flow_Z", kind="semiflow", evaluator=lambda x: -x,
    analytic_lambda=lambda x: np.abs(x),
    analytic_beta=_beta_only_at_zero(np.inf),
    default_box=(-3.0, 3.0),
    description="linear attraction to 0"))

_register(BuiltinSystem(
    name="flow_Y", kind="semiflow", evaluator=lambda x: x.copy(),
    analytic_lambda=lambda x: np.abs(x),
    analytic_beta=None,
    default_box=(-3.0, 3.0),
    description="linear repulsion from 0 (rest-point parking dominates the level)"))

_register(BuiltinSystem(
    name="flow_rep", kind="semiflow",
    evaluator=lambda x: np.where(x <= 0, 0.0, x),
    analytic_lambda=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
    analytic_beta=_beta_on_nonpositive("abs"),
    default_box=(-3.0, 3.0), default_t_min=1.0,
    description="rest half-line with repulsion on the right"))

_register(BuiltinSystem(
    name="flow_att", kind="semiflow",
    evaluator=lambda x: np.where(x <= 0, 0.0, -x),
    analytic_lambda=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0),
    analytic_beta=_beta_on_nonpositive("inf"),
    default_box=(-3.0, 3.0), default_t_min=1.0,
    description="rest half-line with attraction from the right"))

_register(BuiltinSystem(
    name="translation_flow", kind="semiflow",
    evaluator=lambda x: np.ones_like(x),
    analytic_lambda=None, analytic_beta=None,
    default_box=(-5.0, 5.0), default_t_min=1.0, default_t_max=10.0,
    description="uniform translation; nothing recurs"))

_register(BuiltinSystem(
    name=TAIL_NAME, kind="table", evaluator=None,
    description="re-injecting tail lattice in the plane"))


def builtin_names() -> list[str]:
    return sorted(_REGISTRY)


def builtin(name: str) -> BuiltinSystem:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; known: {', '.join(builtin_names())}") from None


def _flow_field(b: BuiltinSystem):
    def fld(state: np.ndarray) -> np.ndarray:
        return b.evaluator(state)
    return fld


def build_grid_system(name: str, box=None, spacing: float | None = None,
                      horizon: int | None = None,
                      max_samples: int = DEFAULT_MAX_SAMPLES) -> MapSystem:
    """Grid-sample a builtin map over a box (defaults from the registry)."""
    b = builtin(name)
    if b.kind != "map":
        raise ValueError(f"builtin {name!r} is not a map")
    box = [list(b.default_box)] if box is None else box
    spacing = b.default_spacing if spacing is None else spacing
    horizon = b.default_horizon if horizon is None else horizon
    sys = build_sampled_system(b.evaluator, box, spacing, horizon, name=name,
                               max_samples=max_samples)
    return sys


def build_builtin_flow(name: str, box=None, spacing: float | None = None,
                       dt: float | None = None, t_min: float | None = None,
                       t_max: float | None = None,
                       max_samples: int = DEFAULT_MAX_SAMPLES) -> SemiflowSystem:
    """Grid-sample a builtin vector field (defaults from the registry)."""
    from .flows import build_flow_system   # map specs never load the flow engine

    b = builtin(name)
    if b.kind != "semiflow":
        raise ValueError(f"builtin {name!r} is not a semiflow")
    box = [list(b.default_box)] if box is None else box
    spacing = b.default_spacing if spacing is None else spacing
    dt = b.default_dt if dt is None else dt
    t_min = b.default_t_min if t_min is None else t_min
    t_max = b.default_t_max if t_max is None else t_max
    return build_flow_system(_flow_field(b), box, spacing, dt, t_min, t_max,
                             name=name, max_samples=max_samples)


def analytic_level(name: str, x, which: str = "lambda") -> np.ndarray:
    """Closed-form lam or beta of a builtin, where registered."""
    b = builtin(name)
    fn = b.analytic_lambda if which == "lambda" else b.analytic_beta
    if fn is None:
        raise ValueError(f"builtin {name!r} has no registered analytic {which}")
    return fn(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# The re-injecting tail lattice
# ---------------------------------------------------------------------------


def counterexample_tail(n_max: int, m_max: int,
                        horizon: int | None = None) -> MapSystem:
    """Tabulated planar system on a tail A and a shadowing lattice B.

    A holds (1/n, 0) for n in [1, n_max]; B holds (1/n, 1/m) for n in
    [2, n_max], m in [1, m_max].  The map advances the tail, (1/n, 0) ->
    (1/(n+1), 0), sends the top lattice row (y = 1) to the start point
    p = (1, 0), and otherwise shifts the lattice diagonally, (1/n, 1/m) ->
    (1/(n+1), 1/(m-1)).  Truncation keeps the map total: the last tail point
    is fixed and lattice points at n = n_max advance only in m.  The cost is
    the Euclidean distance of the plane.
    """
    if n_max < 2 or m_max < 1:
        raise ValueError("need n_max >= 2 and m_max >= 1")
    coords = []
    index = {}
    for n in range(1, n_max + 1):
        index[(n, 0)] = len(coords)
        coords.append((1.0 / n, 0.0))
    for n in range(2, n_max + 1):
        for m in range(1, m_max + 1):
            index[(n, m)] = len(coords)
            coords.append((1.0 / n, 1.0 / m))
    table = np.empty(len(coords), dtype=np.int64)
    for (n, m), i in index.items():
        if m == 0:
            target = (n + 1, 0) if n < n_max else (n, 0)
        elif m == 1:
            target = (1, 0)
        else:
            target = (n + 1, m - 1) if n < n_max else (n, m - 1)
        table[i] = index[target]
    if horizon is None:
        horizon = n_max + m_max + 2
    return build_tabulated_system(table, horizon=horizon,
                                  coords=np.asarray(coords, dtype=float),
                                  name=TAIL_NAME)


def tail_start_index(system: MapSystem) -> int:
    """Index of the start point p = (1, 0) of the tail system."""
    return system.index_of([1.0, 0.0])
