"""Semiflow analysis: fixed-step integration and duration-constrained links.

The continuous-time analogue of a link replaces the step count by a flow
duration: jump from x to a sample z, flow for some time r at least T, jump out
near y.  The level of a pair at duration floor T is

    level_T(x, y) = min over samples z and grid times r in [T, t_max]
                    of max(cost(x, z), cost(flow_r(z), y)).

level_T is non-decreasing in T (larger floors shrink the feasible durations),
and membership in the continuous-time recurrent sets requires links at every
duration floor, so the engine evaluates at the largest configured floor and
reports that floor as the approximation parameter.  Durations live on the
integration time grid; trajectories are integrated with the classical
fixed-step 4th-order scheme and stored at times {0, dt, 2 dt, ..., t_max}
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .core import (CostSpace, DEFAULT_MAX_SAMPLES, check_store_size, grid_points,
                   points_to_samples_cost)

if TYPE_CHECKING:
    from .links import LevelMatrix

RK4_BLOCK = 64      # steps integrated between two finiteness tests and store copies


class IntegrationError(RuntimeError):
    """Raised when the vector field produces a non-finite state."""


def integrate(field_fn: Callable[[np.ndarray], np.ndarray], z0,
              t_max: float, dt: float) -> np.ndarray:
    """Fixed-step 4th-order explicit integration of an autonomous field.

    ``z0`` may be a single state or an (n, d) batch; the returned trajectory
    has shape (steps + 1, ...) with steps = round(t_max / dt), sampled at
    times {0, dt, ..., t_max}.  A batch is stored sample-major, so the result
    is a time-major view of an (n, steps + 1, ...) array.  States are computed
    ``RK4_BLOCK`` steps at a time into a small buffer that is tested for
    finiteness and then copied into the store.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = t_max / dt
    if not np.isfinite(steps):
        raise ValueError("t_max / dt must be finite")
    steps = int(round(steps))
    y = np.array(z0, dtype=float)
    if y.ndim < 2:
        out = np.empty((steps + 1,) + y.shape)
    else:
        out = np.swapaxes(np.empty((y.shape[0], steps + 1) + y.shape[1:]), 0, 1)
    out[0] = y
    block = np.empty((min(RK4_BLOCK, steps),) + y.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i0 in range(0, steps, RK4_BLOCK):     # non-finite states raise below
            rows = block[:min(RK4_BLOCK, steps - i0)]
            for j in range(len(rows)):
                k1 = field_fn(y)
                k2 = field_fn(y + 0.5 * dt * k1)
                k3 = field_fn(y + 0.5 * dt * k2)
                k4 = field_fn(y + dt * k3)
                y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rows[j] = y
            # (step, component...); a scalar state has the one component [0]
            finite = np.isfinite(rows).reshape(len(rows), *(rows.shape[1:] or (1,)))
            if not finite.all():        # the first bad step, then its first bad component
                j, *bad = np.argwhere(~finite)[0].tolist()
                raise IntegrationError(
                    f"non-finite state at t={(i0 + j + 1) * dt:.6g}, component {bad}")
            out[i0 + 1:i0 + 1 + len(rows)] = rows
    return out


def _check_times(dt: float, t_min: float, t_max: float) -> None:
    if not (0 < dt <= t_min <= t_max):
        raise ValueError("need 0 < dt <= t_min <= t_max")


@dataclass(frozen=True)
class SemiflowSystem:
    """Grid-sampled vector field with stored trajectories.

    ``traj[z, i]`` is the state of sample z at time ``i * dt``; the duration
    floor ``t_min`` and the horizon ``t_max`` delimit the admissible link
    durations.
    """

    space: CostSpace
    dt: float
    t_min: float
    t_max: float
    traj: np.ndarray              # (n, steps + 1, d)
    spacing: float | None = None
    box: np.ndarray | None = None
    name: str = "semiflow"

    def __post_init__(self):
        _check_times(self.dt, self.t_min, self.t_max)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def steps(self) -> int:
        return self.traj.shape[1] - 1

    def time_index(self, t: float) -> int:
        return int(round(t / self.dt))

    def index_of(self, coord) -> int:
        costs = points_to_samples_cost(np.atleast_2d(np.asarray(coord, dtype=float)),
                                       self.space)
        return int(np.argmin(costs[0]))


def build_flow_system(field_fn: Callable[[np.ndarray], np.ndarray],
                      box: Sequence[Sequence[float]], spacing: float,
                      dt: float, t_min: float, t_max: float,
                      name: str = "semiflow",
                      max_samples: int = DEFAULT_MAX_SAMPLES) -> SemiflowSystem:
    """Sample a box, integrate every sample forward, and package the system."""
    _check_times(dt, t_min, t_max)
    pts = grid_points(box, spacing, max_samples=max_samples)
    # integrate's store, n x (steps+1) x d floats, priced twice: the factor 2 is a margin
    steps = t_max / dt
    check_store_size(2 * pts.size * (steps + 1) * 8,
                     f"the trajectories ({pts.shape[0]} samples x {steps:.4g} steps)",
                     "raise horizon.dt, lower horizon.t_max or use a coarser grid")
    traj = integrate(field_fn, pts, t_max, dt)      # (steps+1, n, d) view of the store
    traj = np.ascontiguousarray(np.swapaxes(traj, 0, 1))
    return SemiflowSystem(space=CostSpace(coords=pts), dt=dt, t_min=t_min, t_max=t_max,
                          traj=traj, spacing=spacing, box=np.asarray(box, dtype=float),
                          name=name)


@dataclass(frozen=True)
class FlowLinkWitness:
    """An achieving (entry sample, duration) pair for a flow link level."""

    start_index: int
    duration: float
    start_cost: float
    end_cost: float

    @property
    def level(self) -> float:
        return max(self.start_cost, self.end_cost)


def _duration_window(system: SemiflowSystem, T: float | None) -> tuple[int, float]:
    t = system.t_min if T is None else float(T)
    if t > system.t_max:
        raise ValueError(f"duration floor {t} exceeds the horizon {system.t_max}")
    if t < system.dt:
        raise ValueError("duration floor must be at least dt")
    return system.time_index(t), t


def flow_exit_min(system: SemiflowSystem, cols: np.ndarray, i_min: int) -> np.ndarray:
    """M[z, j] = min over grid durations r >= i_min * dt of cost(flow_r(z), cols[j])."""
    from .links import nearest_exit_costs

    return nearest_exit_costs(system.traj[:, i_min:, :], system.space.coords[cols])


def flow_level_matrix(system: SemiflowSystem, T: float | None = None,
                      targets: Iterable[int] | None = None,
                      threads: int = 1) -> LevelMatrix:
    """Pairwise flow link levels at duration floor T (default: the configured t_min)."""
    from .links import EntryCostRows, LevelMatrix, ordered_product, target_indices

    i_min, t = _duration_window(system, T)
    n = system.n
    tg = target_indices(n, targets)
    coords = system.space.coords

    def costs(cols: np.ndarray) -> tuple:
        return EntryCostRows(system, cols), flow_exit_min(system, cols, i_min), None

    return LevelMatrix(levels=ordered_product(coords, tg, n, costs, threads)[0], targets=tg,
                       horizon=system.steps, spacing=system.spacing, kind="flow",
                       meta={"name": system.name, "n": n, "dt": system.dt,
                             "t_min": t, "t_max": system.t_max})


def flow_link_level(system: SemiflowSystem, x: int, y: int,
                    T: float | None = None) -> tuple[float, FlowLinkWitness]:
    """Minimal flow link level from sample x to sample y at duration floor T."""
    i_min, _ = _duration_window(system, T)
    coords = system.space.coords
    entry = points_to_samples_cost(coords[x][None, :], system.space)[0]
    window = system.traj[:, i_min:, :]
    if coords.shape[1] == 1:
        exits = np.abs(window[:, :, 0] - coords[y, 0])
    else:
        diff = window - coords[y][None, None, :]
        exits = np.sqrt(np.sum(diff * diff, axis=2))
    lev = np.maximum(entry[:, None], exits)
    best = lev.min()
    zs, ks = np.nonzero(lev == best)
    order = np.lexsort((zs, ks))
    z, k = int(zs[order[0]]), int(ks[order[0]])
    wit = FlowLinkWitness(start_index=z, duration=(i_min + k) * system.dt,
                          start_cost=float(entry[z]), end_cost=float(exits[z, k]))
    return float(best), wit
