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

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .core import CostSpace, DEFAULT_MAX_SAMPLES, MapSystem, check_store_size, grid_points

if TYPE_CHECKING:
    from .links import LevelMatrix, LinkWitness

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
    finiteness and then copied into the store.  Each stage sum goes into a
    preallocated buffer (``out=``) in the textbook order of operations, so
    the floats are those of ``y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)``; each
    stage has its own buffer, as a field may return its input.
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
    s2, s3, s4, acc, part, nxt = (np.empty_like(y) for _ in range(6))
    half = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i0 in range(0, steps, RK4_BLOCK):     # non-finite states raise below
            rows = block[:min(RK4_BLOCK, steps - i0)]
            for j in range(len(rows)):
                k1 = field_fn(y)
                k2 = field_fn(np.add(y, np.multiply(half, k1, out=s2), out=s2))
                k3 = field_fn(np.add(y, np.multiply(half, k2, out=s3), out=s3))
                k4 = field_fn(np.add(y, np.multiply(dt, k3, out=s4), out=s4))
                np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
                np.add(acc, np.multiply(2.0, k3, out=part), out=acc)
                np.add(acc, k4, out=acc)
                y, nxt = np.add(y, np.multiply(dt / 6.0, acc, out=acc), out=nxt), y
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


@dataclass(frozen=True, kw_only=True)
class SemiflowSystem(MapSystem):
    """Grid-sampled vector field as a map system over the time grid.

    ``orbit_coords[z, k]`` is the state of sample z at time ``(k + 1) * dt``
    and ``horizon`` the number of steps up to ``t_max``.  Links leave at
    durations of at least ``t_min``: ``first_step`` is ``round(t_min / dt)``,
    so another duration floor is ``dataclasses.replace(system, t_min=T)`` and
    a witness lasts ``steps * dt``.
    """

    dt: float
    t_min: float
    t_max: float
    first_step: int = field(init=False, default=1)

    def __post_init__(self):
        _check_times(self.dt, self.t_min, self.t_max)
        object.__setattr__(self, "first_step", int(round(self.t_min / self.dt)))
        super().__post_init__()

    def at_floor(self, T: float | None) -> SemiflowSystem:
        """The same trajectories with links at durations of at least T (None: t_min)."""
        return self if T is None else replace(self, t_min=float(T))


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
    traj = np.swapaxes(integrate(field_fn, pts, t_max, dt), 0, 1)   # the sample-major store
    return SemiflowSystem(space=CostSpace(coords=pts), horizon=traj.shape[1] - 1,
                          orbit_coords=traj[:, 1:], spacing=spacing, name=name,
                          dt=dt, t_min=t_min, t_max=t_max)


# The flow entry points: the map engine at duration floor T.  perfbench/ imports
# and traces them by name.

def flow_exit_min(system: SemiflowSystem, cols: np.ndarray, T: float | None = None) -> np.ndarray:
    """M[z, j] = min over grid durations r >= T of cost(flow_r(z), cols[j])."""
    from .links import exit_min_matrix

    return exit_min_matrix(system.at_floor(T), cols)


def flow_level_matrix(system: SemiflowSystem, T: float | None = None,
                      targets: Iterable[int] | None = None,
                      threads: int = 1) -> LevelMatrix:
    """Pairwise flow link levels at duration floor T (default: the configured t_min)."""
    from .links import level_matrix

    return level_matrix(system.at_floor(T), targets, threads)


def flow_link_level(system: SemiflowSystem, x: int, y: int,
                    T: float | None = None) -> tuple[float, LinkWitness]:
    """Minimal flow link level from sample x to sample y at duration floor T."""
    from .links import link_level

    return link_level(system.at_floor(T), x, y)
