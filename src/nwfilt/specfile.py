"""System specification files.

A system file is a JSON document:

    {
      "kind": "map" | "semiflow",
      "source": {"builtin": NAME, "params": {...}}
              | {"table": {"points": [[...], ...],
                           "cost": "euclidean" | [[...], ...],
                           "map": [indices]}},
      "grid": {"box": [[lo, hi], ...], "h": SPACING},
      "horizon": {"n_max": INT} | {"dt": DT, "t_min": T, "t_max": TMAX},
      "tolerance": {"tau": NUMBER | "auto"}
    }

Exactly one of builtin/table must be present.  Continuous builtins require a
grid; tables and the tabulated builtin forbid one.  Semiflows only support
builtin sources.  A tau of "auto" resolves to twice the grid spacing for
sampled systems and to exactly 0 for tables.  Omitted grid/horizon fields fall
back to the registry defaults of the builtin.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import builtins as reg
from .core import (DEFAULT_MAX_SAMPLES, ResourceLimitError, build_tabulated_system,
                   check_store_size)


class SpecError(ValueError):
    """A malformed or inconsistent system specification."""


@dataclass(frozen=True)
class LoadedSystem:
    kind: str                       # "map" | "semiflow"
    system: object                  # MapSystem | SemiflowSystem
    tau: float
    name: str
    meta: dict                      # serializable description for exports


def load_spec(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise SpecError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(spec, dict):
        raise SpecError("top-level spec must be a JSON object")
    return spec


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecError(msg)


def _num(v, integer: bool = False) -> bool:
    """Whether a JSON value is a number (an integer if asked) that converts to a
    float: true and false are not numbers."""
    return (isinstance(v, int if integer else (int, float)) and not isinstance(v, bool)
            and (isinstance(v, float) or abs(v) <= sys.float_info.max))


def _n_max(horizon: dict, default: int) -> int:
    n_max = horizon.get("n_max", default)
    _require(_num(n_max, True) and n_max >= 1, '"horizon.n_max" must be a positive integer')
    return n_max


def build_from_spec(spec: dict, max_samples: int = DEFAULT_MAX_SAMPLES) -> LoadedSystem:
    kind = spec.get("kind")
    _require(kind in ("map", "semiflow"), f'"kind" must be "map" or "semiflow", got {kind!r}')
    source = spec.get("source")
    _require(isinstance(source, dict), '"source" must be an object')
    keys = set(source) & {"builtin", "table"}
    _require(len(keys) == 1, '"source" needs exactly one of "builtin" or "table"')
    grid = spec.get("grid")
    horizon = spec.get("horizon", {})
    _require(isinstance(horizon, dict), '"horizon" must be an object')
    tol = spec.get("tolerance", {"tau": "auto"})
    tau_raw = tol.get("tau", "auto") if isinstance(tol, dict) else None
    _require(tau_raw == "auto" or _num(tau_raw), '"tolerance.tau" must be a number or "auto"')
    if _num(tau_raw):
        _require(tau_raw >= 0, '"tolerance.tau" must be non-negative')

    if "table" in keys:
        _require(kind == "map", "tabulated sources are only supported for maps")
        _require(grid is None, "tables carry their own points; drop the grid section")
        return _build_table(source["table"], horizon, tau_raw)

    name = source["builtin"]
    _require(isinstance(name, str), '"builtin" must be a name')
    try:
        b = reg.builtin(name)
    except KeyError as e:
        raise SpecError(str(e)) from None
    params = source.get("params", {}) or {}
    _require(isinstance(params, dict), '"source.params" must be an object')
    known = ["m_max", "n_max"] if b.kind == "table" else []
    unknown = sorted(set(params) - set(known))
    _require(not unknown, f"unknown params {unknown} for builtin {name!r} (known: {known or 'none'})")

    if b.kind == "table":
        _require(kind == "map", f"builtin {name!r} is a map")
        _require(grid is None, f"builtin {name!r} builds its own points; drop the grid section")
        n_max, m_max = params.get("n_max", 50), params.get("m_max", 50)
        _require(_num(n_max, True) and _num(m_max, True) and n_max >= 2 and m_max >= 1,
                 "need integers n_max >= 2 and m_max >= 1")
        n, steps = reg.tail_size(n_max, m_max)         # priced before the tail is built
        steps = _n_max(horizon, steps)
        if n > max_samples:
            raise ResourceLimitError(f"{name} would have {n} samples, cap is {max_samples}; "
                                     "lower its n_max or m_max")
        check_store_size(8 * n * steps, f"the orbit table ({n} samples x {steps} iterates)",
                         "lower horizon.n_max")
        system = reg.counterexample_tail(n_max, m_max, horizon=steps)
        tau = 0.0 if tau_raw == "auto" else float(tau_raw)
        meta = {"name": name, "kind": "map", "box": None, "h": None,
                "horizon": {"n_max": system.horizon},
                "params": {"n_max": n_max, "m_max": m_max}, "tau": tau}
        return LoadedSystem("map", system, tau, name, meta)

    _require(kind == b.kind, f"builtin {name!r} is a {b.kind}, not a {kind}")
    box, h = _grid_fields(grid, b)
    if kind == "map":
        n_max = _n_max(horizon, b.default_horizon)
        system = reg.build_grid_system(name, box=box, spacing=h, horizon=n_max,
                                       max_samples=max_samples)
        tau = 2.0 * h if tau_raw == "auto" else float(tau_raw)
        meta = {"name": name, "kind": kind, "box": box, "h": h,
                "horizon": {"n_max": n_max}, "tau": tau}
        return LoadedSystem(kind, system, tau, name, meta)

    dt = horizon.get("dt", b.default_dt)
    t_min = horizon.get("t_min", b.default_t_min)
    t_max = horizon.get("t_max", b.default_t_max)
    for fieldname, v in (("dt", dt), ("t_min", t_min), ("t_max", t_max)):
        _require(_num(v) and v > 0, f'"horizon.{fieldname}" must be positive')
    _require(dt <= t_min <= t_max, "need dt <= t_min <= t_max")
    system = reg.build_builtin_flow(name, box=box, spacing=h, dt=float(dt),
                                    t_min=float(t_min), t_max=float(t_max),
                                    max_samples=max_samples)
    tau = 2.0 * h if tau_raw == "auto" else float(tau_raw)
    meta = {"name": name, "kind": kind, "box": box, "h": h,
            "horizon": {"dt": float(dt), "t_min": float(t_min), "t_max": float(t_max)},
            "tau": tau}
    return LoadedSystem(kind, system, tau, name, meta)


def _grid_fields(grid, b) -> tuple[list, float]:
    if grid is None:
        return [list(b.default_box)], b.default_spacing
    _require(isinstance(grid, dict), '"grid" must be an object')
    box = grid.get("box", [list(b.default_box)])
    _require(isinstance(box, list) and box and all(
        isinstance(iv, list) and len(iv) == 2 and all(
            _num(v) and abs(v) < np.inf for v in iv) for iv in box),
             '"grid.box" must be [[lo, hi], ...]')
    _require(len(box) == 1, f'builtin {b.name!r} lives on the line; "grid.box" must be '
             f'one [lo, hi] interval, got {len(box)}')
    h = grid.get("h", b.default_spacing)
    _require(_num(h) and 0 < h < np.inf, '"grid.h" must be positive and finite')
    return box, float(h)


def _build_table(table: dict, horizon: dict, tau_raw) -> LoadedSystem:
    _require(isinstance(table, dict), '"table" must be an object')
    _require("map" in table, '"table.map" is required')
    step = table["map"]
    _require(isinstance(step, list) and step and all(
        _num(i, True) and 0 <= i < len(step) for i in step),
             '"table.map" must be a non-empty list of sample indices')
    n = len(step)
    points = table.get("points")
    cost = table.get("cost", "euclidean")
    coords = None
    matrix = None
    if isinstance(cost, str):
        _require(cost == "euclidean", f'unknown cost kind {cost!r}')
        _require(points is not None, 'euclidean tables need "table.points"')
    else:
        _require(isinstance(cost, list), '"table.cost" must be "euclidean" or a matrix')
        try:
            if any(isinstance(v, bool) for row in cost for v in row):
                raise ValueError("a boolean is not a cost")
            matrix = np.asarray([[float(v) for v in row] for row in cost], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise SpecError('"table.cost" entries must be numbers or "inf"') from None
        _require(matrix.shape == (n, n), '"table.cost" matrix must be n x n')
    if points is not None:
        _require(isinstance(points, list) and all(
            _num(v) for p in points for v in (p if isinstance(p, list) else [p])),
            '"table.points" must be a list of coordinate lists')
        try:
            coords = np.asarray(points, dtype=float)
        except (TypeError, ValueError):
            raise SpecError('"table.points" must be a list of coordinate lists') from None
        if coords.ndim == 1:
            coords = coords[:, None]
        _require(coords.shape[0] == n, '"table.points" must match the map length')
        _require(bool(np.all(np.isfinite(coords))), '"table.points" must be finite numbers')
    n_max = _n_max(horizon, 2 * n)
    try:
        system = build_tabulated_system(step, horizon=n_max, coords=coords,
                                        cost_matrix=matrix, name="table")
    except ValueError as e:
        raise SpecError(str(e)) from None
    tau = 0.0 if tau_raw == "auto" else float(tau_raw)
    meta = {"name": "table", "kind": "map", "box": None, "h": None,
            "horizon": {"n_max": n_max}, "tau": tau}
    return LoadedSystem("map", system, tau, "table", meta)


def load_system(path: str | Path, max_samples: int = DEFAULT_MAX_SAMPLES) -> LoadedSystem:
    return build_from_spec(load_spec(path), max_samples=max_samples)


def instance_to_spec(cost: np.ndarray, table: np.ndarray, horizon: int) -> dict:
    """Dump an explicit finite system as a reloadable table spec."""
    return {"kind": "map",
            "source": {"table": {"cost": [[float(v) if np.isfinite(v) else "inf"
                                           for v in row] for row in cost],
                                 "map": [int(i) for i in table]}},
            "horizon": {"n_max": int(horizon)},
            "tolerance": {"tau": 0.0}}
