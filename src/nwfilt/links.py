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

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import core
from .core import MapSystem, ResourceLimitError, check_store_size, points_to_samples_cost

MATRIX_SIZE_CAP = 6000
CELL_ROWS = 32       # target rows per product cell; row bands are split across threads
CELL_COLS = 32       # target columns per product cell
BATCH = 64           # entry samples a cell visits per numpy call
WINDOW = 128         # bound-ordered samples a cell filters per numpy call, after its first batch
GATHER_ROWS = 32     # samples per block of the tabulated exit-min gather


@dataclass(frozen=True)
class LinkWitness:
    """An achieving (z, n) pair for a link level, with both endpoint costs."""

    start_index: int
    steps: int
    start_cost: float
    end_cost: float

    @property
    def level(self) -> float:
        return float(np.maximum(self.start_cost, self.end_cost))   # NaN-propagating


@dataclass(frozen=True)
class HorizonStabilityReport:
    horizon: int
    reduced_horizon: int
    changed_pairs: int
    max_change: float

    @property
    def stable(self) -> bool:
        return self.changed_pairs == 0


@dataclass(frozen=True)
class LevelMatrix:
    """Pairwise minimal link levels over a target subset of samples."""

    levels: np.ndarray           # (m, m) float
    targets: np.ndarray          # (m,) sample indices
    horizon: int
    spacing: float | None = None
    kind: str = "map"            # "map" or "flow"
    meta: dict = field(default_factory=dict)
    horizon_check: HorizonStabilityReport | None = None   # set by level_matrix when asked

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


@dataclass(frozen=True)
class EntryCostRows:
    """The entry costs ``entry_cost_rows(system, cols)`` as a row view.

    ``D[rows]`` computes only the requested rows, so a product that reads D
    one row band at a time never holds the whole (len(cols), n) array.  Any
    system with a ``space`` works: maps and semiflows share this path.
    """

    system: object
    cols: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.cols), self.system.space.n

    def __getitem__(self, rows) -> np.ndarray:
        return entry_cost_rows(self.system, self.cols[rows])


def _exit_points(system: MapSystem) -> np.ndarray:
    """Raw orbit coordinates per sample, shape (n, horizon, d)."""
    if system.is_tabulated:
        return system.space.coords[system.orbit_table]
    return system.orbit_coords


def nearest_exit_costs(cand: np.ndarray, targets: np.ndarray, method: str = "auto",
                       half: int | None = None):
    """out[z, j] = min over k of the Euclidean distance from cand[z, k] to targets[j].

    ``cand`` holds raw exit points, (n, K, d); ``targets`` is (m, d).
    "indexed" keeps a sorted projection per row (1-D only), "scan" evaluates
    every candidate; both minimize over the same floats.  With ``half``, returns
    the pair (minima over the first ``half`` candidates, minima over all), both
    from the same pass over the rows.
    """
    one_d = cand.shape[2] == 1
    if one_d:
        cand = cand[:, :, 0]
    if method == "auto":
        method = "indexed" if one_d else "scan"
    if method == "indexed" and not one_d:
        raise ValueError("indexed nearest-iterate queries need 1-D coordinates")
    stops = (cand.shape[1],) if half is None else (half, cand.shape[1])
    outs = [np.empty((cand.shape[0], len(targets))) for _ in stops]
    if method == "indexed":
        t = targets[:, 0]
        for z in range(cand.shape[0]):
            for k, out in zip(stops, outs):     # NaN sorts last: one sort per prefix, no merge
                s = np.sort(cand[z, :k])
                pos = np.searchsorted(s, t)
                sp = np.concatenate((s[:1], s, s[-1:]))    # padded ends: no clipping of pos
                out[z] = np.minimum(np.abs(t - sp[pos]), np.abs(sp[pos + 1] - t))
    elif method == "scan":
        for z in range(cand.shape[0]):
            if one_d:
                d = np.abs(cand[z][:, None] - targets[None, :, 0])
            else:
                diff = cand[z][:, None, :] - targets[None, :, :]
                d = np.sqrt(np.sum(diff * diff, axis=2))
            for k, out in zip(stops, outs):
                out[z] = d[:k].min(axis=0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return outs[0] if half is None else tuple(outs)


def exit_min_matrix(system: MapSystem, cols: np.ndarray, method: str = "auto",
                    half: int | None = None):
    """M[z, j] = min over n of cost(f^n(z), cols[j]) for every sample z.

    ``method`` selects the nearest-iterate kernel: "scan" evaluates every
    orbit entry directly, "indexed" keeps a sorted projection per orbit
    (1-D coordinates only).  By default tabulated systems gather from the
    cost table C[p, j] = cost(p, cols[j]): min over k of C[orbit[z, k], j].
    With coordinates that table is the transposed entry-cost block, because
    the Euclidean cost is bitwise symmetric; it is built here, row-major so
    the gather reads contiguous rows, and freed on return.  All methods produce
    identical floats, because they minimize over the same candidate values.
    With ``half`` (1 <= half <= horizon), returns the pair (M over the first
    ``half`` steps, M), the first taken in the same fold as the second.
    """
    if system.is_tabulated and (system.space.matrix is not None or method == "auto"):
        if system.space.matrix is not None:
            table = system.space.matrix[:, cols]
        else:
            table = np.ascontiguousarray(entry_cost_rows(system, cols).T)
        stops = (system.horizon,) if half is None else (half, system.horizon)
        outs = [np.empty((system.n, len(cols))) for _ in stops]
        for a in range(0, system.n, GATHER_ROWS):     # no (n, m) temporary per step
            orbit = system.orbit_table[a:a + GATHER_ROWS]
            block = table[orbit[:, 0]]
            for lo, hi, out in zip((1,) + stops, stops, outs):
                for k in range(lo, hi):
                    np.minimum(block, table[orbit[:, k]], out=block)
                out[a:a + GATHER_ROWS] = block
        return outs[0] if half is None else tuple(outs)
    return nearest_exit_costs(_exit_points(system), system.space.coords[cols], method, half)


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

    Ties are broken by smallest step count, then smallest entry index.  A NaN
    candidate (an iterate that left the finite floats) makes the level NaN, as
    in ``level_matrix(method="scan")``; the witness is then the first NaN
    candidate in the same order.
    """
    if system.n == 0:
        raise ValueError("empty sample set")
    entry, lev = _pair_level_table(system, x, y)
    best = lev.min()
    zs, ks = np.nonzero(np.isnan(lev) if np.isnan(best) else lev == best)
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
    return float(np.maximum(entry, exit_))   # NaN-propagating, unlike max()


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


def cell_order(coords: np.ndarray | None, tg: np.ndarray) -> np.ndarray:
    """Positions of ``tg`` in k-d order: neighbouring targets share product cells.

    The targets are sorted along their widest axis (stable argsort) and split
    at the multiple of ``CELL_ROWS`` nearest the median, until each leaf holds
    at most ``CELL_ROWS`` of them; so every leaf is one row band of cells.
    Without coordinates the targets keep their order, and so do sorted 1-D
    targets.
    """
    perm = np.arange(len(tg))
    if coords is None:
        return perm
    pts = coords[tg]
    stack = [(0, len(tg))]
    while stack:
        a, b = stack.pop()
        if b - a <= CELL_ROWS:
            continue
        p = pts[perm[a:b]]
        axis = int(np.argmax(p.max(axis=0) - p.min(axis=0)))
        perm[a:b] = perm[a:b][np.argsort(p[:, axis], kind="stable")]
        mid = a + (b - a + CELL_ROWS) // (2 * CELL_ROWS) * CELL_ROWS
        stack += [(a, mid), (mid, b)]
    return perm


def bottleneck_product(D: np.ndarray, M: np.ndarray, threads: int = 1,
                       lower: np.ndarray | None = None) -> np.ndarray:
    """L[i, j] = min over z of max(D[i, z], M[z, j]), the (min, max) matrix product.

    D is read only as ``D.shape`` and ``D[rows]``, once per band of rows, so it
    may be an ``EntryCostRows`` view that computes each band's rows on demand.
    The output goes in cells of ``CELL_ROWS`` x ``CELL_COLS``.  Every candidate
    max(D[i, z], M[z, j]) of a cell is at least z's bound: the larger of the
    least entry cost D[i, z] over the cell's rows and the least exit cost
    M[z, j] over its columns.  A cell visits z in ascending bound.  A z with a
    NaN among the cell's entry or exit costs gets the bound -inf; the cell
    visits these, and its first ``BATCH`` samples, whole.  After that, an
    entry is live unless it is final: NaN (np.minimum keeps it) or equal to
    its ``lower`` entry.  The cell stops once the next bound reaches its
    largest live entry.  Otherwise it takes the next ``WINDOW`` samples, cut
    at the first bound that reaches that maximum, and keeps a z only if some
    row i has max(D[i, z], least exit cost of z) below row i's largest live
    entry and some column j has max(M[z, j], least entry cost of z) below
    column j's.  Both are lower bounds of z's candidates in that row or
    column, and final entries count as -inf in the maxima, so a skipped z has
    every candidate at or above each live entry it would have to beat; a NaN
    entry must not hide the live entries of its row or column.  Min and max
    only select among the input floats, so the result is bit-identical to the
    full scan over z.  Rows are cut into bands of cells, and each band is
    computed whole by one thread, so the output does not depend on the thread
    count.  Targets that are close in space share cells and tighten the
    bounds; see ``cell_order``.

    ``lower`` is an (m, cols) array that the result is known to be at least,
    as the full-horizon levels are for the half-horizon product.  Entries
    equal to it are final only after the samples of bound -inf, since their
    NaN can still replace such an entry.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    m, n = D.shape
    cols = M.shape[1]
    out = np.empty((m, cols))
    starts = np.arange(0, cols, CELL_COLS)
    exit_bound = np.minimum.reduceat(M, starts, axis=1)               # (n, cells)
    bands = [slice(i, min(i + CELL_ROWS, m)) for i in range(0, m, CELL_ROWS)]

    def fill(rows: slice) -> None:
        DT = np.ascontiguousarray(D[rows].T)                         # (n, rows)
        entry = DT.min(axis=1)
        buf = np.empty((max(BATCH, WINDOW), DT.shape[1], CELL_COLS))
        for b, a in enumerate(starts):
            Mc = M[:, a:a + CELL_COLS]
            acc = out[rows, a:a + CELL_COLS]
            lo = None if lower is None else lower[rows, a:a + CELL_COLS]
            acc.fill(np.inf)
            bound = np.maximum(entry, exit_bound[:, b])
            bound[np.isnan(bound)] = -np.inf
            order = np.argsort(bound, kind="stable")
            sorted_bound = bound[order]
            i = 0
            while i < n:
                first = sorted_bound[i]
                if first > -np.inf:
                    # no NaN can follow: NaN entries and entries equal to their
                    # lower bound are final, and count as -inf (fmax skips NaN)
                    live = acc if lo is None else np.where(acc == lo, -np.inf, acc)
                    top = np.fmax.reduce(live, axis=None, initial=-np.inf)
                    if first >= top:
                        break
                if i == 0 or first == -np.inf:
                    zs, i = order[i:i + BATCH], i + BATCH
                else:
                    stop = i + int(np.searchsorted(sorted_bound[i:i + WINDOW], top))
                    zs, i = order[i:stop], stop
                    # z can lower a live entry only if both of its bounds beat it
                    keep = ((np.maximum(DT[zs], exit_bound[zs, b, None])
                             < np.fmax.reduce(live, axis=1, initial=-np.inf)).any(axis=1)
                            & (np.maximum(Mc[zs], entry[zs, None])
                               < np.fmax.reduce(live, axis=0, initial=-np.inf)).any(axis=1))
                    zs = zs[keep]
                cand = np.maximum(DT[zs, :, None], Mc[zs, None, :],
                                  out=buf[:len(zs), :, :Mc.shape[1]])
                np.minimum(acc, cand.min(axis=0, initial=np.inf), out=acc)

    workers = min(threads, len(bands))
    if workers <= 1:
        for rows in bands:
            fill(rows)
    else:
        from concurrent.futures import ThreadPoolExecutor   # one thread never loads it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, bands))
    return out


def ordered_product(coords: np.ndarray | None, tg: np.ndarray, n: int,
                    costs: Callable[[np.ndarray], tuple], threads: int,
                    half: bool = False) -> tuple[np.ndarray, tuple | None]:
    """``bottleneck_product(D, M)`` over the targets ``tg``, computed in cell order.

    ``costs(cols)`` returns the entry costs D (m, n), exit minima M (n, m) and,
    with ``half``, the half-horizon minima (else None) of the targets ``cols``;
    they and the (m, m) levels are priced against ``core.MAX_MATRIX_BYTES``
    first.  D may be an ``EntryCostRows`` view: the product then holds one
    band's entry costs at a time, though the price still counts the whole D.
    The half-horizon pass reuses the view, so it recomputes a band's entry
    costs once per block of ``8 * CELL_COLS`` moved columns.  On the 30x30
    tail (588 of 900 columns move: three blocks) D is computed five times,
    the gather's cost table included, yet its analyze is no slower than with
    D held whole, since 2-D costs are summed per axis (``BENCH_12.json``).
    The costs are freed before the order is undone, one axis at a time, so
    the undo holds at most two (m, m) arrays.  Returns the levels and, with
    ``half``, the changed pairs and largest change at half the horizon.
    """
    m = len(tg)
    check_store_size(8 * m * ((3 if half else 2) * n + m),
                     f"the level matrix of {m} targets over {n} samples",
                     "use fewer targets or a coarser grid", cap=core.MAX_MATRIX_BYTES)
    perm = cell_order(coords, tg)
    D, M, M_half = costs(tg[perm])
    if half:        # bit patterns: signed zeros and NaN cannot alias
        moved = (M.view(np.int64) != M_half.view(np.int64)).any(axis=0)
        M_half = M_half[:, moved]
    L = bottleneck_product(D, M, threads)
    del M
    change = None
    if half:
        # Column j of the levels depends only on D and column j of the exit
        # minima: the unmoved columns keep their floats and count as changed
        # only where NaN.  The half-horizon minima are at least the full ones,
        # so the half product stops at L.  A pair reachable only at the full
        # horizon changes by inf.
        idx, changed, top = np.flatnonzero(moved), 0, 0.0
        for a in range(0, len(idx), 8 * CELL_COLS):   # whole cells: bounded temporaries
            full = L[:, idx[a:a + 8 * CELL_COLS]]
            short = bottleneck_product(D, M_half[:, a:a + 8 * CELL_COLS], threads, lower=full)
            c = short != full
            diff = np.abs(short[c] - full[c])
            changed += np.count_nonzero(c) - np.count_nonzero(np.isnan(full))
            top = max(top, np.max(diff, where=~np.isnan(diff), initial=0.0))
        change = (int(changed + np.count_nonzero(np.isnan(L))), float(top))
    del D, M_half
    if not np.array_equal(perm, np.arange(len(tg))):
        inv = np.argsort(perm)
        L = L.take(inv, axis=0)
        L = L.take(inv, axis=1)
    return L, change


def _map_costs(system: MapSystem, method: str, h2: int | None):
    """``costs`` of ``ordered_product`` for a map: D as an ``EntryCostRows`` view,
    M and, with ``h2``, M over h2 steps."""
    def costs(cols: np.ndarray) -> tuple:
        D = EntryCostRows(system, cols)
        M = exit_min_matrix(system, cols, method, half=h2)
        return (D, M, None) if h2 is None else (D, M[1], M[0])
    return costs


def level_matrix(system: MapSystem, targets: Iterable[int] | None = None,
                 threads: int = 1, method: str = "auto",
                 horizon_check: bool = False) -> LevelMatrix:
    """Pairwise link levels over the requested samples (all by default).

    Entry samples z always range over the full sample set regardless of the
    target subset.  Row bands may be computed in parallel; the result does not
    depend on the thread count.  With ``horizon_check``, the same pass (one D,
    one fold of both horizons' exit minima) also runs ``horizon_stability`` and
    stores its report in the matrix's ``horizon_check``.
    """
    n = system.n
    if n == 0:
        raise ValueError("empty sample set")
    tg = target_indices(n, targets)
    h2 = max(1, system.horizon // 2) if horizon_check else None
    levels, change = ordered_product(system.space.coords, tg, n,
                                     _map_costs(system, method, h2), threads, horizon_check)
    report = None if change is None else HorizonStabilityReport(system.horizon, h2, *change)
    return LevelMatrix(levels=levels, targets=tg,
                       horizon=system.horizon, spacing=system.spacing, kind="map",
                       meta={"name": system.name, "n": n}, horizon_check=report)


def reachable_set(matrix: LevelMatrix, x: int, eps: float) -> np.ndarray:
    """Samples reachable from x within budget eps: {y : level(x, y) <= eps}."""
    if np.isnan(eps) or eps < 0:
        raise ValueError("eps must be non-negative")
    row = matrix.levels[matrix.row_of(x)]
    return matrix.targets[row <= eps]


def horizon_stability(system: MapSystem, targets: Iterable[int] | None = None,
                      threads: int = 1) -> HorizonStabilityReport:
    """Compare levels at the full horizon against half the horizon.

    A nonzero change count means some level is still improving with longer
    orbits, i.e. the horizon may be too short for the reported resolution.
    The check runs in ``level_matrix``'s pass, which recomputes only the
    columns whose exit minima move at half the horizon; see ``ordered_product``.
    """
    return level_matrix(system, targets, threads, horizon_check=True).horizon_check
