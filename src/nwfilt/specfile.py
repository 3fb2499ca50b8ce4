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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import builtins as reg
from .core import DEFAULT_MAX_SAMPLES, build_tabulated_system


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
    _require(tau_raw == "auto" or isinstance(tau_raw, (int, float)),
             '"tolerance.tau" must be a number or "auto"')
    if isinstance(tau_raw, (int, float)):
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
        n_max = int(params.get("n_max", 50))
        m_max = int(params.get("m_max", 50))
        try:
            system = reg.counterexample_tail(n_max, m_max,
                                             horizon=horizon.get("n_max"))
        except ValueError as e:
            raise SpecError(str(e)) from None
        tau = 0.0 if tau_raw == "auto" else float(tau_raw)
        meta = {"name": name, "kind": "map", "box": None, "h": None,
                "horizon": {"n_max": system.horizon},
                "params": {"n_max": n_max, "m_max": m_max}, "tau": tau}
        return LoadedSystem("map", system, tau, name, meta)

    _require(kind == b.kind, f"builtin {name!r} is a {b.kind}, not a {kind}")
    box, h = _grid_fields(grid, b)
    if kind == "map":
        n_max = horizon.get("n_max", b.default_horizon)
        _require(isinstance(n_max, int) and n_max >= 1, '"horizon.n_max" must be a positive integer')
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
        _require(isinstance(v, (int, float)) and v > 0, f'"horizon.{fieldname}" must be positive')
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
        isinstance(iv, list) and len(iv) == 2 for iv in box), '"grid.box" must be [[lo, hi], ...]')
    _require(len(box) == 1, f'builtin {b.name!r} lives on the line; "grid.box" must be '
             f'one [lo, hi] interval, got {len(box)}')
    h = grid.get("h", b.default_spacing)
    _require(isinstance(h, (int, float)) and h > 0, '"grid.h" must be positive')
    return box, float(h)


def _build_table(table: dict, horizon: dict, tau_raw) -> LoadedSystem:
    _require(isinstance(table, dict), '"table" must be an object')
    _require("map" in table, '"table.map" is required')
    step = table["map"]
    _require(isinstance(step, list) and step, '"table.map" must be a non-empty index list')
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
            matrix = np.asarray([[float(v) for v in row] for row in cost], dtype=float)
        except (TypeError, ValueError):
            raise SpecError('"table.cost" entries must be numbers or "inf"') from None
        _require(matrix.shape == (n, n), '"table.cost" matrix must be n x n')
    if points is not None:
        try:
            coords = np.asarray(points, dtype=float)
        except (TypeError, ValueError):
            raise SpecError('"table.points" must be a list of coordinate lists') from None
        if coords.ndim == 1:
            coords = coords[:, None]
        _require(coords.shape[0] == n, '"table.points" must match the map length')
        _require(bool(np.all(np.isfinite(coords))), '"table.points" must be finite numbers')
    n_max = horizon.get("n_max", 2 * n)
    _require(isinstance(n_max, int) and n_max >= 1, '"horizon.n_max" must be a positive integer')
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
