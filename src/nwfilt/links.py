"""Minimal link levels between samples.

A link from x to y is an orbit segment entered near x and left near y: pick a
sample z and a step count n in the exit window [first_step, horizon], pay
``cost(x, z)`` to jump in and ``cost(f^n(z), y)`` to jump out.  Maps leave
at any stored iterate (first_step 1); a semiflow is a map over its time grid
that leaves at durations of at least its floor, so one engine serves both.
The level of the pair (x, y) is the smallest worst-case budget over all such
segments,

    level(x, y) = min over (z, n) of max(cost(x, z), cost(f^n(z), y)),

so a single-perturbation steering from x to y within budget eps exists among
the samples exactly when level(x, y) <= eps.  On a finite sample set the
minimum is attained, hence closed thresholds describe both the plain and the
limit (eps+) relations; all downstream reductions rely on this collapse.

Matrix assembly is deterministic: ties are broken by smallest level, then
smallest step count, then smallest entry-sample index, never by scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import core
from .core import (CostSpace, MapSystem, ResourceLimitError, check_store_size,
                   points_to_samples_cost)

MATRIX_SIZE_CAP = 6000
CELL_ROWS = 32       # target rows per product cell; row bands are split across threads
CELL_COLS = 32       # target columns per product cell
BATCH = 64           # entry samples a cell visits per numpy call
WINDOW = 128         # bound-ordered samples a cell filters per numpy call, after its first batch
BAND_COLS = 256      # target columns per band of exit minima (filtration.level_summary, the gather)
BLOCK_CELLS = 1 << 15   # (sample, target) entries per block of the gather and the sorted 1-D kernel
PAIR_COSTS = 1 << 16    # exit costs per block of pre_gate


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
    """Pairs of levels that differ at half the exit window, and the largest change.
    A pair NaN at both horizons counts as changed, with no size (``analyze``'s
    lam/beta line counts NaN as equal to NaN)."""

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

    @property
    def m(self) -> int:
        return len(self.targets)

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
    one row band at a time never holds the whole (len(cols), n) array.
    """

    system: MapSystem
    cols: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.cols), self.system.space.n

    def __getitem__(self, rows) -> np.ndarray:
        return entry_cost_rows(self.system, self.cols[rows])


def _exit_costs(system: MapSystem, zs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """cost(f^n(zs[p]), ys[p]) at every step n of the exit window, shape (len(zs), K).

    The floats of the exit-min kernels: a cost-table entry, or ``_euclid``.
    """
    k0 = system.first_step - 1
    coords = system.space.coords
    if system.is_tabulated:
        orbit = system.orbit_table[zs, k0:]
        if system.space.matrix is not None:
            return system.space.matrix[orbit, ys[:, None]]
        pts = (coords[:, k][orbit] for k in range(coords.shape[1]))
    else:
        pts = (system.orbit_coords[zs, k0:, k] for k in range(coords.shape[1]))
    return _euclid([x - coords[ys, k, None] for k, x in enumerate(pts)])


def _euclid(diffs: list[np.ndarray]) -> np.ndarray:
    """Lengths from per-axis coordinate differences, in ``points_to_samples_cost``'s
    floats: |x| in 1-D, the square root of the squares summed in axis order
    otherwise (as np.sum adds fewer than 8 terms; from 8 on, np.sum itself)."""
    if len(diffs) == 1:
        return np.abs(diffs[0])
    if len(diffs) >= 8:
        diff = np.stack(diffs, axis=-1)
        return np.sqrt(np.sum(diff * diff, axis=-1))
    out = diffs[0] * diffs[0]
    for x in diffs[1:]:
        out += x * x
    return np.sqrt(out, out=out)


def nearest_exit_costs(cand: np.ndarray, targets: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """out[z, j] lowered to the least Euclidean distance from cand[z, k] to targets[j].

    ``cand`` holds raw exit points, (n, K, d) with K >= 1; ``targets`` is
    (m, d).  ``out`` (n, m) is lowered in place and returned, a new array of
    inf by default.  In 1-D each row's candidates are sorted once and
    searched, otherwise every candidate is evaluated; both minimize over the
    same floats.  A NaN candidate makes its row NaN, as a minimum over all of
    them would, and np.minimum keeps a NaN already in ``out``.
    """
    if out is None:
        out = np.full((cand.shape[0], len(targets)), np.inf)
    if cand.shape[2] == 1:
        cand, t = cand[:, :, 0], targets[:, 0]
        for z in range(cand.shape[0]):
            s = np.sort(cand[z])
            if np.isnan(s[-1]):                 # NaN sorts last
                out[z] = np.nan
                continue
            pos = np.searchsorted(s, t)
            sp = np.concatenate((s[:1], s, s[-1:]))    # padded ends: no clipping of pos
            with np.errstate(invalid="ignore"):        # an infinite point at an infinite target
                np.minimum(out[z], np.minimum(np.abs(t - sp[pos]), np.abs(sp[pos + 1] - t)),
                           out=out[z])
    else:
        for z in range(cand.shape[0]):
            diff = cand[z][:, None, :] - targets[None, :, :]
            np.minimum(out[z], np.sqrt(np.sum(diff * diff, axis=2)).min(axis=0), out=out[z])
    return out


def exit_min_matrix(system: MapSystem, cols: np.ndarray) -> np.ndarray:
    """M[z, j] = min over the exit window of cost(f^n(z), cols[j]) for every sample z.

    The one band of ``exit_min_bands`` that covers every target: (n, m).
    ``filtration.level_summary`` does not hold it; after ``pre_gate`` it
    takes ``exit_min_bands`` one band of max(``BAND_COLS``, K) targets at a
    time.
    """
    for _, _, M in exit_min_bands(system, cols, len(cols)):
        pass
    return M


def _cost_table(system: MapSystem, cols: np.ndarray) -> np.ndarray:
    """C[p, j] = cost(p, cols[j]), row-major (n, len(cols)), so a gather reads contiguous rows.

    With coordinates it is the transposed entry-cost block, because the
    Euclidean cost is bitwise symmetric; it is filled one chunk of columns
    at a time, so that no (len(cols), n) block is held beside it.
    """
    if system.space.matrix is not None:
        return system.space.matrix[:, cols]
    table = np.empty((system.n, len(cols)))
    for a in range(0, len(cols), core.COST_ROW_CHUNK):
        table[:, a:a + core.COST_ROW_CHUNK] = entry_cost_rows(
            system, cols[a:a + core.COST_ROW_CHUNK]).T
    return table


def _gather(orbit: np.ndarray, table: np.ndarray, out: np.ndarray) -> None:
    """Lower out[z, j] by table[orbit[z, k], j] for every step k, folded in step order.

    Works on contiguous blocks of about ``BLOCK_CELLS`` entries, copied out
    of ``out`` and back, so no (n, m) temporary is made per step.
    """
    rows = max(1, BLOCK_CELLS // max(1, table.shape[1]))
    for a in range(0, len(orbit), rows):
        steps, block = orbit[a:a + rows], out[a:a + rows].copy()
        for k in range(steps.shape[1]):
            np.minimum(block, table[steps[:, k]], out=block)
        out[a:a + rows] = block


def nearest_sorted_costs(sp: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[z, j] lowered to the least |t[j] - x| over the sorted 1-D points sp[z, 1:-1].

    Each row of ``sp`` (n, K + 2) is sorted and padded with its own first and
    last point, as ``nearest_exit_costs`` pads it.  A point x lies below
    target j exactly when fewer than j + 1 of the sorted targets are at most
    x, so per block of rows one searchsorted of the points into the sorted
    targets, a bincount per row and a cumsum give each row's
    ``np.searchsorted(sp[z, 1:-1], t)`` for every target at once.  The two
    neighbours then give ``nearest_exit_costs``'s floats.  Rows holding a NaN
    are left to the caller.
    """
    order = np.argsort(t, kind="stable")
    ts = t[order]
    w, width = len(t), sp.shape[1]
    unsorted = not np.array_equal(order, np.arange(w))
    rows = max(1, BLOCK_CELLS // (width + w))
    for a in range(0, len(sp), rows):
        s = sp[a:a + rows]
        r = len(s)
        seg = np.searchsorted(ts, s[:, 1:-1], side="right")
        seg += (w + 1) * np.arange(r)[:, None]
        pos = np.bincount(seg.ravel(), minlength=r * (w + 1)).reshape(r, w + 1)[:, :w]
        pos[:, 0] += width * np.arange(r)            # flat positions in s
        np.cumsum(pos, axis=1, out=pos)
        lo, hi = s.take(pos), s.take(pos + 1)
        with np.errstate(invalid="ignore"):      # an infinite point at an infinite target
            np.subtract(ts, lo, out=lo)
            np.subtract(hi, ts, out=hi)
        cost = np.minimum(np.abs(lo, out=lo), np.abs(hi, out=hi), out=lo)
        block = out[a:a + rows]
        if unsorted:
            block[:, order] = np.minimum(block[:, order], cost)
        else:
            np.minimum(block, cost, out=block)
    return out


def _sorted_store(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of 1-D points sorted and padded with its own ends, and which rows hold a NaN."""
    s = np.sort(points, axis=1)
    return np.concatenate((s[:, :1], s, s[:, -1:]), axis=1), np.isnan(s[:, -1])   # NaN sorts last


def exit_min_bands(system: MapSystem, cols: np.ndarray, width: int,
                   horizon_check: bool = False):
    """Yield (i, band, M) for each slice ``band`` of ``width`` targets and each window i.

    M (n, len(cols[band])) holds the exit minima to the targets cols[band]
    over window i: the whole exit window, or with ``horizon_check`` first
    the steps up to ``reduced_horizon`` (i = 0) and then the whole window
    (i = 1), by lowering the same array in place over the rest of it.  Every exit cost
    is the same float either way, and np.minimum keeps a NaN, so the minima
    lowered over the rest of the window are the whole window's bit for bit.
    M is valid until the next item; the last one is the caller's to keep.

    Tabulated systems gather from a cost table C[p, j] = cost(p, cols[j])
    (``_cost_table``, ``_gather``).  A band of at most ``BAND_COLS`` targets
    builds its table once for both windows; a wider band builds one
    ``BAND_COLS`` chunk at a time, per window, so no table wider than
    ``BAND_COLS`` is held beside M, or while the caller works on M.  A 1-D
    sampled window shorter than ``width`` is sorted once, padded (n x (K + 2)
    floats, the size of its orbit store), and each band runs
    ``nearest_sorted_costs`` on it, with no Python loop over samples;
    otherwise each band runs ``nearest_exit_costs``.
    """
    steps = [system.first_step - 1, system.horizon]
    if horizon_check:
        steps.insert(1, reduced_horizon(system))
    windows = list(zip(steps, steps[1:]))
    coords = system.space.coords
    width = max(1, width)
    sort = (not system.is_tabulated and coords.shape[1] == 1
            and system.horizon - steps[0] < width)
    stores = [_sorted_store(system.orbit_coords[:, k0:k1, 0]) if sort and k0 < k1 else None
              for k0, k1 in windows]
    m_buf = np.empty(system.n * min(width, len(cols)))    # every band's M
    for a in range(0, max(1, len(cols)), width):
        band = slice(a, a + width)
        tg = cols[band]
        M = m_buf[:system.n * len(tg)].reshape(system.n, len(tg))
        M.fill(np.inf)
        table = (_cost_table(system, tg)
                 if system.is_tabulated and len(tg) <= BAND_COLS else None)
        for i, (k0, k1) in enumerate(windows):
            if k0 == k1:            # a one-step window leaves nothing to lower over
                pass
            elif system.is_tabulated:
                for b in range(0, len(tg), BAND_COLS):   # a chunk's table dies with its gather
                    _gather(system.orbit_table[:, k0:k1],
                            _cost_table(system, tg[b:b + BAND_COLS]) if table is None else table,
                            M[:, b:b + BAND_COLS])
            elif sort:
                sp, nan = stores[i]
                nearest_sorted_costs(sp, coords[tg, 0], M)
                M[nan] = np.nan
            else:
                nearest_exit_costs(system.orbit_coords[:, k0:k1], coords[tg], M)
            yield i, band, M
        del table                   # before the next band's is built


def pre_gate(system: MapSystem, cols: np.ndarray, tau: float,
             most: int | None = None) -> np.ndarray | None:
    """A mask over ``cols`` that holds the gate {j : L[j, j] <= tau}, from no exit minima.

    L[j, j] = min over z of max(D[j, z], M[z, j]) is at most tau only when
    some pair (j, z) of P = {D[j, z] <= tau} has an exit point of z's window
    within tau of cols[j].  So j is marked when such a pair has an exit cost
    at most tau.  The exit costs are the exit-min kernels' floats
    (``_exit_costs``), and "any cost <= tau" ignores the NaN that a minimum
    would propagate, so the mask holds the gate of every prefix of the exit
    window too, the reduced window's included.  The work is |P| K exit
    costs, ``PAIR_COSTS`` at a time.  Returns None, and stops, once more than
    ``most`` targets are marked.

    P is read off D's own floats one ``CELL_ROWS`` band of targets at a time:
    the band's rows of the cost matrix when the space has one, else
    ``points_to_samples_cost`` to the samples within tau of the band's
    bounding box.  That distance, in ``_euclid``'s float operations, is at
    most every D[j, z] of the band, since each operation is monotone.  The
    prefilter cuts the pre-gate on f2 at h = 0.01 (1001 samples) from 11 to
    1.5 ms, and on the 30x30 tail from 8.5 to 1.9 ms.
    """
    space = system.space
    marked = np.zeros(len(cols), dtype=bool)
    per = max(1, PAIR_COSTS // (system.horizon - system.first_step + 1))
    for a in range(0, len(cols), CELL_ROWS):
        band = cols[a:a + CELL_ROWS]
        if space.matrix is not None:
            js, zs = np.nonzero(space.matrix[band] <= tau)
        else:
            t = space.coords[band]
            lo, hi = t.min(axis=0), t.max(axis=0)
            near = np.flatnonzero(_euclid([np.maximum(np.maximum(lo[k] - c, c - hi[k]), 0.0)
                                           for k, c in enumerate(space.coords.T)]) <= tau)
            js, zs = np.nonzero(points_to_samples_cost(t, CostSpace(coords=space.coords[near]))
                                <= tau)
            zs = near[zs]
        js += a
        for b in range(0, len(js), per):
            j, z = js[b:b + per], zs[b:b + per]
            todo = ~marked[j]
            j, z = j[todo], z[todo]
            marked[j[(_exit_costs(system, z, cols[j]) <= tau).any(axis=1)]] = True
        if most is not None and np.count_nonzero(marked) > most:
            return None
    return marked


def _pair_level_table(system: MapSystem, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
    """All candidate levels for the pair (x, y): (entry costs (n,), levels (n, K))."""
    entry = entry_cost_rows(system, np.array([x]))[0]
    exits = _exit_costs(system, np.arange(system.n), np.full(system.n, y))
    return entry, np.maximum(entry[:, None], exits)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def link_level(system: MapSystem, x: int, y: int) -> tuple[float, LinkWitness]:
    """Minimal link level from sample x to sample y with an achieving witness.

    Ties are broken by smallest step count, then smallest entry index.  A NaN
    candidate (an iterate that left the finite floats) makes the level NaN, as
    in ``level_matrix``; the witness is then the first NaN candidate in the
    same order.
    """
    if system.n == 0:
        raise ValueError("empty sample set")
    entry, lev = _pair_level_table(system, x, y)
    best = lev.min()
    zs, ks = np.nonzero(np.isnan(lev) if np.isnan(best) else lev == best)
    order = np.lexsort((zs, ks))
    z, k = int(zs[order[0]]), int(ks[order[0]]) + system.first_step - 1
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


def bottleneck_product(D: np.ndarray, M: np.ndarray, threads: int = 1) -> np.ndarray:
    """L[i, j] = min over z of max(D[i, z], M[z, j]), the (min, max) matrix product.

    D is read only as ``D.shape`` and ``D[rows]``, once per band of rows, so it
    may be an ``EntryCostRows`` view that computes each band's rows on demand.
    The output goes in cells of ``CELL_ROWS`` x ``CELL_COLS``.  Every candidate
    max(D[i, z], M[z, j]) of a cell is at least z's bound: the larger of the
    least entry cost D[i, z] over the cell's rows and the least exit cost
    M[z, j] over its columns.  A cell visits z in ascending bound.  A z with a
    NaN among the cell's entry or exit costs gets the bound -inf; the cell
    visits these, and its first ``BATCH`` samples, whole.  After that, an
    entry is live unless it is NaN, which np.minimum keeps.  The cell stops
    once the next bound reaches its largest live entry.  Otherwise it takes
    the next ``WINDOW`` samples, cut at the first bound that reaches that
    maximum, and keeps a z only if some row i has max(D[i, z], least exit
    cost of z) below row i's largest live entry and some column j has
    max(M[z, j], least entry cost of z) below column j's.  Both are lower bounds of z's candidates in that row or
    column, and NaN entries count as -inf in the maxima, so a skipped z has
    every candidate at or above each live entry it would have to beat; a NaN
    entry must not hide the live entries of its row or column.  Min and max
    only select among the input floats, so the result is bit-identical to the
    full scan over z.  Rows are cut into bands of cells, and each band is
    computed whole by one thread, so the output does not depend on the thread
    count.  Targets that are close in space share cells and tighten the
    bounds; see ``cell_order``.
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
            acc.fill(np.inf)
            bound = np.maximum(entry, exit_bound[:, b])
            bound[np.isnan(bound)] = -np.inf
            order = np.argsort(bound, kind="stable")
            sorted_bound = bound[order]
            i = 0
            while i < n:
                first = sorted_bound[i]
                if first > -np.inf:
                    # no NaN can follow: NaN entries are final (fmax skips them)
                    top = np.fmax.reduce(acc, axis=None, initial=-np.inf)
                    if first >= top:
                        break
                if i == 0 or first == -np.inf:
                    zs, i = order[i:i + BATCH], i + BATCH
                else:
                    stop = i + int(np.searchsorted(sorted_bound[i:i + WINDOW], top))
                    zs, i = order[i:stop], stop
                    # z can lower a live entry only if both of its bounds beat it
                    keep = ((np.maximum(DT[zs], exit_bound[zs, b, None])
                             < np.fmax.reduce(acc, axis=1, initial=-np.inf)).any(axis=1)
                            & (np.maximum(Mc[zs], entry[zs, None])
                               < np.fmax.reduce(acc, axis=0, initial=-np.inf)).any(axis=1))
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


def priced_targets(system: MapSystem, targets: Iterable[int] | None = None,
                   horizon_check: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The validated targets and their ``cell_order``, once the level arrays are priced.

    The price against ``core.MAX_MATRIX_BYTES`` counts the entry costs D and
    the exit minima, (m, n) each, a second set of exit minima with
    ``horizon_check``, and the (m, m) levels: 8 * m * ((3 or 2) * n + m) bytes.
    The price is conservative: D is computed by row band, and
    ``level_summary`` holds one band of exit minima (all of them when one
    band covers every target) and no (m, m) levels.
    """
    n = system.n
    if n == 0:
        raise ValueError("empty sample set")
    tg = target_indices(n, targets)
    m = len(tg)
    check_store_size(8 * m * ((3 if horizon_check else 2) * n + m),
                     f"the level matrix of {m} targets over {n} samples",
                     "use fewer targets or a coarser grid", cap=core.MAX_MATRIX_BYTES)
    return tg, cell_order(system.space.coords, tg)


def reduced_horizon(system: MapSystem) -> int:
    """The horizon check's last step: the first half of the exit window, at least one step."""
    return system.first_step - 1 + max(1, (system.horizon - system.first_step + 1) // 2)


def level_matrix(system: MapSystem, targets: Iterable[int] | None = None,
                 threads: int = 1) -> LevelMatrix:
    """Pairwise link levels over the requested samples (all by default).

    Entry samples z always range over the full sample set regardless of the
    target subset.  The product ``bottleneck_product(D, M)`` runs over the
    targets in cell order: D is an ``EntryCostRows`` view, so the product
    holds one band's entry costs at a time, though the price against
    ``core.MAX_MATRIX_BYTES`` still counts the whole D beside M and the
    (m, m) levels.  Row bands may be computed in parallel; the result does not
    depend on the thread count.  M is freed before the order is undone, one
    axis at a time, so the undo holds at most two (m, m) arrays.
    """
    tg, perm = priced_targets(system, targets)
    cols = tg[perm]
    M = exit_min_matrix(system, cols)
    L = bottleneck_product(EntryCostRows(system, cols), M, threads)
    del M
    if not np.array_equal(perm, np.arange(len(tg))):
        inv = np.argsort(perm)
        L = L.take(inv, axis=0)
        L = L.take(inv, axis=1)
    return LevelMatrix(levels=L, targets=tg, horizon=system.horizon, spacing=system.spacing)


def horizon_report(system: MapSystem, full: LevelMatrix, threads: int = 1) -> HorizonStabilityReport:
    """Compare ``full`` (from ``level_matrix``) with the levels over the first
    half of the exit window, ``reduced_horizon``.

    Column j of the levels depends only on the entry costs and column j of
    the exit minima.  So each band of ``BAND_COLS`` targets in cell order
    keeps a copy of its reduced-window minima (``exit_min_bands``), and only
    the columns whose minima move, bit for bit, get a half-horizon product;
    the others count as changed only where NaN.  So no second (m, m) array
    is held.
    """
    perm = cell_order(system.space.coords, full.targets)
    cols = full.targets[perm]
    D = EntryCostRows(system, cols)
    changed, top = 0, 0.0
    for i, band, M in exit_min_bands(system, cols, BAND_COLS, horizon_check=True):
        if i == 0:
            half = M.copy()
            continue
        # bit patterns: signed zeros and NaN cannot alias
        moved = (M.view(np.int64) != half.view(np.int64)).any(axis=0)
        at = perm[band]
        changed += np.count_nonzero(np.isnan(full.levels[:, at[~moved]]))
        if moved.any():
            short = bottleneck_product(D, half[:, moved], threads)
            want = full.levels[np.ix_(perm, at[moved])]
            c = short != want
            diff = np.abs(short[c] - want[c])
            changed += np.count_nonzero(c)
            top = max(top, np.max(diff, where=~np.isnan(diff), initial=0.0))
            del short, want, c, diff        # before the next band's copy
    return HorizonStabilityReport(system.horizon, reduced_horizon(system), int(changed), float(top))


def horizon_stability(system: MapSystem, targets: Iterable[int] | None = None,
                      threads: int = 1) -> HorizonStabilityReport:
    """Compare levels at the full horizon against half the horizon.

    A nonzero change count means some level is still improving with longer
    orbits, i.e. the horizon may be too short for the reported resolution.
    """
    return horizon_report(system, level_matrix(system, targets, threads), threads)
