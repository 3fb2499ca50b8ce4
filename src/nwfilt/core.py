"""Core data model: cost spaces, sampled map systems, and extended level indices.

A system is a finite sample set of a state space together with a one-step map.
Costs between samples generalize a metric: any function into [0, inf] with zero
diagonal, possibly asymmetric, possibly infinite.  Recurrence levels live on a
two-branch index line: a negative branch of robustness magnitudes and a
non-negative branch of recurrence budgets, with two distinct ordered zeros
(the negative zero lies strictly below the positive zero).

Two kinds of systems are supported:

* sampled systems: points are a uniform grid over a box, the map is a
  coordinate evaluator, and iterates are stored as raw coordinates (never
  snapped back to the grid, so the only spatial error source is the grid
  spacing itself);
* tabulated systems: points are an arbitrary finite set, the map is an index
  table, and iterates are exact.

All objects here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_MAX_SAMPLES = 200_000
MAX_STORE_BYTES = 1 << 30   # orbit store or flow trajectory, priced before it is allocated
MAX_MATRIX_BYTES = 1 << 30  # cost arrays and levels of one level matrix, priced likewise
COST_ROW_CHUNK = 64


class ResourceLimitError(RuntimeError):
    """Raised when a requested construction exceeds a configured cap."""


def check_store_size(nbytes: float, what: str, hint: str, cap: int | None = None) -> None:
    """Raise ResourceLimitError when ``nbytes`` exceeds ``cap`` (``MAX_STORE_BYTES``)."""
    cap = MAX_STORE_BYTES if cap is None else cap
    if nbytes > cap:
        raise ResourceLimitError(
            f"{what} would take {nbytes / 2**20:.4g} MiB, cap is "
            f"{cap / 2**20:.4g} MiB; {hint}")


class Branch(enum.Enum):
    NEG = "neg"
    POS = "pos"


@dataclass(frozen=True)
class ExtendedLevel:
    """A point of the split-origin index line.

    ``(NEG, a)`` encodes robustness magnitude ``a`` (larger magnitude = lower
    level), ``(POS, a)`` encodes recurrence budget ``a``.  The order is total:
    every NEG level lies below every POS level, ``(NEG, 0)`` and ``(POS, 0)``
    are distinct, and ``(POS, inf)`` is the maximum.
    """

    branch: Branch
    magnitude: float

    def __post_init__(self):
        m = float(self.magnitude)
        if np.isnan(m) or m < 0:
            raise ValueError(f"level magnitude must be in [0, inf], got {self.magnitude!r}")
        object.__setattr__(self, "magnitude", m)

    @property
    def sort_key(self) -> tuple[int, float]:
        if self.branch is Branch.NEG:
            return (0, -self.magnitude)
        return (1, self.magnitude)

    def __lt__(self, other: "ExtendedLevel") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "ExtendedLevel") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "ExtendedLevel") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "ExtendedLevel") -> bool:
        return self.sort_key >= other.sort_key

    def __repr__(self) -> str:
        sign = "-" if self.branch is Branch.NEG else "+"
        return f"ExtendedLevel({sign}{self.magnitude!r})"


def neg_level(magnitude: float) -> ExtendedLevel:
    return ExtendedLevel(Branch.NEG, magnitude)


def pos_level(magnitude: float) -> ExtendedLevel:
    return ExtendedLevel(Branch.POS, magnitude)


# ---------------------------------------------------------------------------
# Cost spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostSpace:
    """Finite point set with pairwise costs.

    Either ``coords`` is given and the cost is the Euclidean distance between
    coordinates, or ``matrix`` is an explicit (n, n) cost table.  When both are
    given the matrix wins for sample-to-sample costs and the coordinates are
    used only for geometric export.
    """

    coords: np.ndarray | None = None   # (n, d) float
    matrix: np.ndarray | None = None   # (n, n) float, zero diagonal

    def __post_init__(self):
        if self.coords is None and self.matrix is None:
            raise ValueError("CostSpace needs coords or an explicit cost matrix")
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.ndim == 1:
                c = c[:, None]
            object.__setattr__(self, "coords", np.ascontiguousarray(c))
        if self.matrix is not None:
            # + 0.0 turns -0.0 into 0.0: min/max ties between signed zeros resolve
            # by operand order, which the pruned product does not keep
            m = np.asarray(self.matrix, dtype=float) + 0.0
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("cost matrix must be square")
            if np.any(np.isnan(m)) or np.any(m < 0):
                raise ValueError("costs must be non-negative (inf allowed)")
            if np.any(np.diag(m) != 0.0):
                raise ValueError("cost of a point to itself must be 0")
            object.__setattr__(self, "matrix", np.ascontiguousarray(m))
            if self.coords is not None and self.coords.shape[0] != m.shape[0]:
                raise ValueError("coords and cost matrix disagree on the point count")

    @property
    def n(self) -> int:
        if self.matrix is not None:
            return self.matrix.shape[0]
        return self.coords.shape[0]


def euclid(diffs: Iterable[np.ndarray], d: int) -> np.ndarray:
    """Euclidean lengths from the ``d`` per-axis coordinate differences ``diffs``.

    The one cost kernel: every Euclidean cost of the engine comes from here.
    In 1-D the length is |x|, a new array.  Otherwise it is the square root
    of the squares summed as np.sum sums them (one at a time in axis order
    below 8 axes), and the differences are the caller's to give up: each is
    squared in place, and the first is overwritten with the lengths and
    returned.  Below 8 axes a generator of differences holds one at a time.
    """
    diffs = iter(diffs)
    out = next(diffs)
    if d == 1:
        return np.abs(out)
    if d >= 8:
        sq = np.stack([out, *diffs], axis=-1)
        sq *= sq
        np.sum(sq, axis=-1, out=out)
    else:
        out *= out
        for x in diffs:
            x *= x
            out += x
    return np.sqrt(out, out=out)


def points_to_samples_cost(points: np.ndarray, space: CostSpace) -> np.ndarray:
    """Euclidean cost from raw coordinate rows to every sample, shape (len(points), n).

    Only valid for coordinate-backed spaces.  Beyond 1-D it works on
    ``COST_ROW_CHUNK`` rows at a time, which bounds the temporaries.
    """
    if space.coords is None:
        raise ValueError("space has no coordinates")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    coords, d = space.coords, space.coords.shape[1]
    if d == 1:
        return euclid([pts[:, :1] - coords[:, 0]], 1)
    axes = coords.T.copy()      # each axis contiguous: faster differences
    out = np.empty((len(pts), space.n))
    for i in range(0, len(pts), COST_ROW_CHUNK):
        p, o = pts[i:i + COST_ROW_CHUNK], out[i:i + COST_ROW_CHUNK]
        euclid((np.subtract(p[:, k, None], axes[k], out=None if k else o) for k in range(d)), d)
    return out


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def grid_axis(lo: float, hi: float, h: float) -> np.ndarray:
    """1-D grid including both endpoints, step h, ascending.

    When lo and hi sit on integer multiples of h the points are generated as
    ``k * h`` with integer k, so 0 is produced exactly when the box straddles
    it and mirrored points are exact negations.
    """
    if h <= 0:
        raise ValueError("spacing must be positive")
    if hi < lo:
        raise ValueError("degenerate box interval")
    klo, khi = lo / h, hi / h
    if abs(klo - round(klo)) < 1e-9 and abs(khi - round(khi)) < 1e-9:
        return np.arange(round(klo), round(khi) + 1, dtype=float) * h
    count = int(np.floor((hi - lo) / h + 1e-9)) + 1
    return lo + np.arange(count, dtype=float) * h


def grid_points(box: Sequence[Sequence[float]], h: float,
                max_samples: int = DEFAULT_MAX_SAMPLES) -> np.ndarray:
    """Uniform grid over a box, ascending lexicographic order, shape (n, d)."""
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = box[None, :]
    axes = [grid_axis(lo, hi, h) for lo, hi in box]
    total = 1
    for ax in axes:
        total *= len(ax)
    if total > max_samples:
        span = max(hi - lo for lo, hi in box)
        needed = span / max(max_samples ** (1.0 / len(axes)) - 1, 1)
        raise ResourceLimitError(
            f"grid would have {total} samples, cap is {max_samples}; "
            f"increase spacing to roughly {needed:.3g} or raise the cap")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# Map systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapSystem:
    """A finite sample set with a one-step map and its stored orbit segments.

    For sampled systems ``orbit_coords[z, k]`` holds the raw coordinates of the
    (k+1)-st iterate of sample z; for tabulated systems ``orbit_table[z, k]``
    holds its sample index.  Segments always have length ``horizon`` (fixed
    points simply repeat).  Links leave the orbit at steps ``first_step`` to
    ``horizon``: the exit window, all stored iterates by default.
    """

    space: CostSpace
    horizon: int
    step_table: np.ndarray | None = None         # (n,) int
    orbit_coords: np.ndarray | None = None       # (n, horizon, d) float
    orbit_table: np.ndarray | None = None        # (n, horizon) int
    spacing: float | None = None
    name: str = "system"
    first_step: int = 1

    def __post_init__(self):
        if not 1 <= self.first_step <= self.horizon:
            raise ValueError("need 1 <= first_step <= horizon")

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def is_tabulated(self) -> bool:
        return self.orbit_table is not None

    def orbit_points(self, z: int) -> np.ndarray:
        """Raw coordinates of the stored orbit segment of sample z, shape (horizon, d)."""
        if self.is_tabulated:
            if self.space.coords is None:
                raise ValueError("tabulated system without coordinates")
            return self.space.coords[self.orbit_table[z]]
        return self.orbit_coords[z]

    def index_of(self, coord) -> int:
        """Index of the sample nearest to the given coordinates."""
        costs = points_to_samples_cost(np.atleast_2d(np.asarray(coord, dtype=float)),
                                       _coord_space(self.space))
        return int(np.argmin(costs[0]))


def _coord_space(space: CostSpace) -> CostSpace:
    if space.coords is None:
        raise ValueError("system has no coordinate embedding")
    return CostSpace(coords=space.coords) if space.matrix is not None else space


def build_sampled_system(step_fn: Callable[[np.ndarray], np.ndarray],
                         box: Sequence[Sequence[float]], spacing: float,
                         horizon: int, name: str = "sampled",
                         max_samples: int = DEFAULT_MAX_SAMPLES) -> MapSystem:
    """Grid-sample a coordinate map and populate raw orbit segments.

    ``step_fn`` maps an (n, d) coordinate array to the next (n, d) array.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    pts = grid_points(box, spacing, max_samples=max_samples)
    n, d = pts.shape
    check_store_size(n * horizon * d * 8, f"the orbit store ({n} samples x {horizon} iterates)",
                     "lower horizon.n_max or use a coarser grid")
    orbits = np.empty((n, horizon, d), dtype=float)
    cur = pts
    with np.errstate(over="ignore"):
        for k in range(horizon):
            cur = np.asarray(step_fn(cur), dtype=float).reshape(n, d)
            orbits[:, k, :] = cur
    return MapSystem(space=CostSpace(coords=pts), horizon=horizon, orbit_coords=orbits,
                     spacing=spacing, name=name)


def build_tabulated_system(step_table: Sequence[int], horizon: int | None = None,
                           coords: np.ndarray | None = None,
                           cost_matrix: np.ndarray | None = None,
                           name: str = "table") -> MapSystem:
    """Tabulated system from an index map; orbit entries are exact indices."""
    table = np.asarray(step_table, dtype=np.int64)
    n = len(table)
    if np.any(table < 0) or np.any(table >= n):
        raise ValueError("map table entries must be valid sample indices")
    if horizon is None:
        horizon = max(2 * n, 1)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    space = CostSpace(coords=coords, matrix=cost_matrix)
    if space.n != n:
        raise ValueError("map table length does not match the point count")
    check_store_size(n * horizon * 8, f"the orbit table ({n} samples x {horizon} iterates)",
                     "lower horizon.n_max")
    orbit = np.empty((n, horizon), dtype=np.int64)
    cur = table
    for k in range(horizon):
        orbit[:, k] = cur
        cur = table[cur]
    return MapSystem(space=space, horizon=horizon, step_table=table,
                     orbit_table=orbit, name=name)
