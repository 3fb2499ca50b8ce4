"""Minimal link levels between samples.

A link from x to y is an orbit segment entered near x and left near y: pick a
sample z and a step count n in [1, horizon], pay ``cost(x, z)`` to jump in and
``cost(f^n(z), y)`` to jump out.  The level of the pair (x, y) is the smallest
worst-case budget over all such segments,

    level(x, y) = min over (z, n) of max(cost(x, z), cost(f^n(z), y)),

so a single-perturbation steering from x to y within budget eps exists among
the samples exactly when level(x, y) <= eps.  On a finite sample set the
minimum is attained, hence closed thresholds describe both the plain and the
limit (eps+) relations; all downstream reductions rely on this collapse.

Matrix assembly is deterministic: ties are broken by smallest level, then
smallest step count, then smallest entry-sample index, never by scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .core import MapSystem, ResourceLimitError, points_to_samples_cost

MATRIX_SIZE_CAP = 6000
TILE_ROWS = 64       # rows per product tile; the unit of work split across threads
COL_BLOCK = 128      # target columns per block of a tile that is split
CUTOFF_EVERY = 16    # entry samples between refreshes of a scan's running maximum
CALL_COST = 1000     # (row, column) pairs one numpy call pair costs, for the split choice


@dataclass(frozen=True)
class LinkWitness:
    """An achieving (z, n) pair for a link level, with both endpoint costs."""

    start_index: int
    steps: int
    start_cost: float
    end_cost: float

    @property
    def level(self) -> float:
        return max(self.start_cost, self.end_cost)


@dataclass(frozen=True)
class LevelMatrix:
    """Pairwise minimal link levels over a target subset of samples."""

    levels: np.ndarray           # (m, m) float
    targets: np.ndarray          # (m,) sample indices
    horizon: int
    spacing: float | None = None
    kind: str = "map"            # "map" or "flow"
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.targets)

    def is_complete(self, n: int) -> bool:
        return self.m == n and np.array_equal(self.targets, np.arange(n))

    def row_of(self, sample: int) -> int:
        pos = np.searchsorted(self.targets, sample)
        if pos >= self.m or self.targets[pos] != sample:
            raise KeyError(f"sample {sample} not covered by this matrix")
        return int(pos)

    def entry(self, x: int, y: int) -> float:
        return float(self.levels[self.row_of(x), self.row_of(y)])


# ---------------------------------------------------------------------------
# Cost kernels
# ---------------------------------------------------------------------------


def entry_cost_rows(system: MapSystem, rows: np.ndarray) -> np.ndarray:
    """Costs from the given samples to every sample, shape (len(rows), n)."""
    if system.space.matrix is not None:
        return system.space.matrix[rows]
    return points_to_samples_cost(system.space.coords[rows], system.space)


def _exit_points(system: MapSystem) -> np.ndarray:
    """Raw orbit coordinates per sample, shape (n, horizon, d)."""
    if system.is_tabulated:
        return system.space.coords[system.orbit_table]
    return system.orbit_coords


def nearest_exit_costs(cand: np.ndarray, targets: np.ndarray, method: str = "auto") -> np.ndarray:
    """out[z, j] = min over k of the Euclidean distance from cand[z, k] to targets[j].

    ``cand`` holds raw exit points, (n, K, d); ``targets`` is (m, d).
    "indexed" keeps a sorted projection per row (1-D only), "scan" evaluates
    every candidate; both minimize over the same floats.
    """
    one_d = cand.shape[2] == 1
    if one_d:
        cand = cand[:, :, 0]
    if method == "auto":
        method = "indexed" if one_d else "scan"
    if method == "indexed" and not one_d:
        raise ValueError("indexed nearest-iterate queries need 1-D coordinates")
    out = np.empty((cand.shape[0], len(targets)))
    if method == "indexed":
        t = targets[:, 0]
        for z in range(cand.shape[0]):
            s = np.sort(cand[z])
            pos = np.searchsorted(s, t)
            left = np.abs(t - s[np.clip(pos - 1, 0, len(s) - 1)])
            right = np.abs(s[np.clip(pos, 0, len(s) - 1)] - t)
            out[z] = np.minimum(left, right)
    elif method == "scan":
        for z in range(cand.shape[0]):
            if one_d:
                d = np.abs(cand[z][:, None] - targets[None, :, 0])
            else:
                diff = cand[z][:, None, :] - targets[None, :, :]
                d = np.sqrt(np.sum(diff * diff, axis=2))
            out[z] = d.min(axis=0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return out


def exit_min_matrix(system: MapSystem, cols: np.ndarray, method: str = "auto",
                    entry_costs: np.ndarray | None = None) -> np.ndarray:
    """M[z, j] = min over n of cost(f^n(z), cols[j]) for every sample z.

    ``method`` selects the nearest-iterate kernel: "scan" evaluates every
    orbit entry directly, "indexed" keeps a sorted projection per orbit
    (1-D coordinates only).  By default tabulated systems gather from the
    cost table C[p, j] = cost(p, cols[j]): min over k of C[orbit[z, k], j].
    With coordinates that table is the transposed entry-cost block, because
    the Euclidean cost is bitwise symmetric; pass ``entry_costs`` (the
    ``entry_cost_rows(system, cols)`` block) to reuse it.  All methods produce
    identical floats, because they minimize over the same candidate values.
    """
    if system.is_tabulated and (system.space.matrix is not None or method == "auto"):
        if system.space.matrix is not None:
            table = system.space.matrix[:, cols]
        else:
            if entry_costs is None:
                entry_costs = entry_cost_rows(system, cols)
            table = entry_costs.T
        out = table[system.orbit_table[:, 0]]
        for k in range(1, system.horizon):
            np.minimum(out, table[system.orbit_table[:, k]], out=out)
        return out
    return nearest_exit_costs(_exit_points(system), system.space.coords[cols], method)


def _pair_level_table(system: MapSystem, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    """All candidate levels for the pair (x, y): (entry costs (n,), levels (n, horizon))."""
    entry = entry_cost_rows(system, np.array([x]))[0]
    if system.is_tabulated and system.space.matrix is not None:
        exits = system.space.matrix[system.orbit_table, y]
    else:
        coords = system.space.coords
        cand = _exit_points(system)
        if cand.shape[2] == 1:
            exits = np.abs(cand[:, :, 0] - coords[y, 0])
        else:
            diff = cand - coords[y][None, None, :]
            exits = np.sqrt(np.sum(diff * diff, axis=2))
    return entry, np.maximum(entry[:, None], exits)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def link_level(system: MapSystem, x: int, y: int) -> tuple[float, LinkWitness]:
    """Minimal link level from sample x to sample y with an achieving witness.

    Ties are broken by smallest step count, then smallest entry index.
    """
    if system.n == 0:
        raise ValueError("empty sample set")
    entry, lev = _pair_level_table(system, x, y)
    best = lev.min()
    zs, ks = np.nonzero(lev == best)
    order = np.lexsort((zs, ks))
    z, k = int(zs[order[0]]), int(ks[order[0]])
    wit = LinkWitness(start_index=z, steps=k + 1,
                      start_cost=float(entry[z]), end_cost=_exit_cost(system, z, k, y))
    return float(best), wit


def _exit_cost(system: MapSystem, z: int, k: int, y: int) -> float:
    if system.is_tabulated and system.space.matrix is not None:
        return float(system.space.matrix[system.orbit_table[z, k], y])
    pt = system.orbit_points(z)[k]
    return float(points_to_samples_cost(pt[None, :], system.space)[0, y])


def recompute_witness_level(system: MapSystem, x: int, y: int, witness: LinkWitness) -> float:
    """Re-derive max(entry cost, exit cost) for a stored witness from the orbit store."""
    entry = entry_cost_rows(system, np.array([x]))[0, witness.start_index]
    exit_ = _exit_cost(system, witness.start_index, witness.steps - 1, y)
    return max(float(entry), exit_)


def target_indices(n: int, targets: Iterable[int] | None) -> np.ndarray:
    """Sorted unique target sample indices (all n by default), validated against n."""
    if targets is None:
        tg = np.arange(n)
    else:
        tg = np.unique(np.asarray(list(targets), dtype=np.int64))
        if len(tg) == 0:
            raise ValueError("empty target set")
        if tg[0] < 0 or tg[-1] >= n:
            raise ValueError("target indices out of range")
    if len(tg) > MATRIX_SIZE_CAP:
        raise ResourceLimitError(
            f"{len(tg)} targets exceed the level-matrix cap ({MATRIX_SIZE_CAP}); "
            "use a coarser grid or an explicit target subset")
    return tg


def _scan(acc: np.ndarray, tmp: np.ndarray, Dz: np.ndarray, M: np.ndarray,
          zs: np.ndarray, bounds: np.ndarray) -> None:
    """acc = min(acc, max(Dz[z], M[z])) over zs, in order, until a bound reaches
    acc's running maximum (refreshed every ``CUTOFF_EVERY`` samples).  Dz[z] is
    the (rows, 1) entry-cost column of z."""
    cutoff = acc.max()
    for i, z in enumerate(zs):
        if bounds[i] >= cutoff:
            break
        np.maximum(Dz[z], M[z], out=tmp)
        np.minimum(acc, tmp, out=acc)
        if i % CUTOFF_EVERY == CUTOFF_EVERY - 1:
            cutoff = acc.max()


def bottleneck_product(D: np.ndarray, M: np.ndarray, threads: int = 1) -> np.ndarray:
    """L[i, j] = min over z of max(D[i, z], M[z, j]), the (min, max) matrix product.

    Rows go in tiles of ``TILE_ROWS``.  Every candidate max(D[i, z], M[z, j])
    of a tile is at least the entry bound min over the tile's rows of D[:, z];
    within a block of ``COL_BLOCK`` target columns it is also at least the exit
    bound min over the block of M[z, :].  A tile first visits its
    ``CUTOFF_EVERY`` entry samples of least entry bound at full width.  It then
    finishes either at full width, visiting the rest in ascending entry bound,
    or block by block, visiting them in ascending order of the larger of the
    two bounds, whichever is estimated cheaper (``CALL_COST`` prices one numpy
    call pair in (row, column) pairs).  Each scan stops once the bound reaches
    its running maximum: every skipped candidate is at least that bound, so it
    cannot lower any entry.  Min and max only select among the input floats,
    so the result is bit-identical to the full scan over z.  A z whose row of
    M or column of the tile's D holds a NaN gets the bound -inf and is never
    skipped.  Tiles are independent and each is computed whole by one thread,
    so the output does not depend on the thread count.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    m, n = D.shape
    cols = M.shape[1]
    out = np.empty((m, cols))
    nan_rows = np.isnan(M).any(axis=1)
    starts = np.arange(0, cols, COL_BLOCK)
    widths = np.diff(np.append(starts, cols))
    exit_bound = np.minimum.reduceat(M, starts, axis=1)               # (n, blocks)
    tiles = [slice(i, min(i + TILE_ROWS, m)) for i in range(0, m, TILE_ROWS)]

    def fill(rows: slice) -> None:
        Dz = D[rows].T[:, :, None]                                   # (n, rows, 1)
        acc = out[rows]
        acc.fill(np.inf)
        bound = Dz.min(axis=(1, 2))
        forced = np.isnan(bound) | nan_rows
        bound[forced] = -np.inf
        order = np.argsort(bound, kind="stable")
        head, rest = order[:CUTOFF_EVERY], order[CUTOFF_EVERY:]
        tmp = np.empty_like(acc)
        _scan(acc, tmp, Dz, M, head, bound[head])
        r = acc.shape[0]
        whole = np.count_nonzero(bound[rest] < acc.max()) * (r * cols + CALL_COST)
        block_max = np.maximum.reduceat(acc.max(axis=0), starts)
        both = np.maximum(bound[rest, None], exit_bound[rest])        # (rest, blocks)
        both[forced[rest]] = -np.inf
        split = np.count_nonzero(both < block_max, axis=0) @ (r * widths + CALL_COST)
        if split >= whole:
            _scan(acc, tmp, Dz, M, rest, bound[rest])
            return
        for b, (a, w) in enumerate(zip(starts, widths)):
            blk = acc[:, a:a + w].copy()
            sub = np.argsort(both[:, b], kind="stable")
            _scan(blk, np.empty_like(blk), Dz, M[:, a:a + w], rest[sub], both[sub, b])
            acc[:, a:a + w] = blk

    workers = min(threads, len(tiles))
    if workers <= 1:
        for rows in tiles:
            fill(rows)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, tiles))
    return out


def level_matrix(system: MapSystem, targets: Iterable[int] | None = None,
                 threads: int = 1, method: str = "auto") -> LevelMatrix:
    """Pairwise link levels over the requested samples (all by default).

    Entry samples z always range over the full sample set regardless of the
    target subset.  Row tiles may be computed in parallel; the result does not
    depend on the thread count.
    """
    n = system.n
    if n == 0:
        raise ValueError("empty sample set")
    tg = target_indices(n, targets)
    D = entry_cost_rows(system, tg)                                # (m, n)
    M = exit_min_matrix(system, tg, method, entry_costs=D)         # (n, m)
    return LevelMatrix(levels=bottleneck_product(D, M, threads), targets=tg,
                       horizon=system.horizon, spacing=system.spacing, kind="map",
                       meta={"name": system.name, "n": n})


def reachable_set(matrix: LevelMatrix, x: int, eps: float) -> np.ndarray:
    """Samples reachable from x within budget eps: {y : level(x, y) <= eps}."""
    if np.isnan(eps) or eps < 0:
        raise ValueError("eps must be non-negative")
    row = matrix.levels[matrix.row_of(x)]
    return matrix.targets[row <= eps]


@dataclass(frozen=True)
class HorizonStabilityReport:
    horizon: int
    reduced_horizon: int
    changed_pairs: int
    max_change: float

    @property
    def stable(self) -> bool:
        return self.changed_pairs == 0


def horizon_stability(system: MapSystem, targets: Iterable[int] | None = None,
                      threads: int = 1,
                      full: LevelMatrix | None = None) -> HorizonStabilityReport:
    """Compare levels at the full horizon against half the horizon.

    A nonzero change count means some level is still improving with longer
    orbits, i.e. the horizon may be too short for the reported resolution.
    Pass the full-horizon ``full`` matrix when it is already built; its targets
    are then used.  A pair reachable only at the full horizon changes by inf.
    """
    if full is None:
        full = level_matrix(system, targets, threads=threads)
    elif full.kind != "map" or full.horizon != system.horizon:
        raise ValueError("full matrix was not built at this system's horizon")
    h2 = max(1, system.horizon // 2)
    if system.is_tabulated:
        half_sys = replace(system, horizon=h2, orbit_table=system.orbit_table[:, :h2])
    else:
        half_sys = replace(system, horizon=h2, orbit_coords=system.orbit_coords[:, :h2])
    half = level_matrix(half_sys, full.targets, threads=threads)
    changed = half.levels != full.levels
    diff = np.abs(half.levels[changed] - full.levels[changed])
    diff = diff[~np.isnan(diff)]
    max_change = float(diff.max()) if diff.size else 0.0
    return HorizonStabilityReport(system.horizon, h2, int(np.count_nonzero(changed)), max_change)
