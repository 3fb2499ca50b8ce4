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
from .core import (CostSpace, MapSystem, ResourceLimitError, check_store_size, euclid,
                   points_to_samples_cost)

MATRIX_SIZE_CAP = 6000
CELL_ROWS = 32       # target rows per product cell; row bands are split across threads
CELL_COLS = 32       # target columns per product cell
BATCH = 64           # entry samples a cell visits per numpy call
WINDOW = 128         # bound-ordered samples a cell filters per numpy call, after its first batch
BAND_COLS = 256      # target columns per band of exit minima (filtration.level_summary, the gather)
BLOCK_CELLS = 1 << 15   # entries per block of the gather, the sorted 1-D kernel and its cell bounds
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
    """cost(f^n(zs[p]), ys[p]) at every step n of the exit window, shape (len(zs), K):
    a cost-table entry, or ``core.euclid``."""
    k0 = system.first_step - 1
    coords = system.space.coords
    if system.is_tabulated:
        orbit = system.orbit_table[zs, k0:]
        if system.space.matrix is not None:
            return system.space.matrix[orbit, ys[:, None]]
        pts = (coords[:, k][orbit] for k in range(coords.shape[1]))
    else:
        pts = (system.orbit_coords[zs, k0:, k] for k in range(coords.shape[1]))
    return euclid((x - coords[ys, k, None] for k, x in enumerate(pts)), coords.shape[1])


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
    d = cand.shape[2]
    if d == 1:
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
            cost = euclid((cand[z, :, k, None] - targets[:, k] for k in range(d)), d)
            np.minimum(out[z], cost.min(axis=0), out=out[z])
    return out


def exit_min_matrix(system: MapSystem, cols: np.ndarray) -> np.ndarray:
    """M[z, j] = min over the exit window of cost(f^n(z), cols[j]) for every sample z.

    The one band of ``exit_min_bands`` that covers every target: (n, m).
    ``filtration.level_summary`` does not hold it: on the line it computes
    exit minima on demand (``thinned_exit_min``), otherwise after
    ``pre_gate`` it takes ``exit_min_bands`` one band of
    max(``BAND_COLS``, K) targets at a time.
    """
    for _, _, M in exit_min_bands(system, cols, len(cols)):
        pass
    return M


def _cost_table(system: MapSystem, cols: np.ndarray) -> np.ndarray:
    """C[p, j] = cost(p, cols[j]), row-major (n, len(cols)), so a gather reads contiguous rows."""
    space = system.space
    if space.matrix is not None:
        return space.matrix[:, cols]
    return points_to_samples_cost(space.coords, CostSpace(coords=space.coords[cols]))


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


def _sorted_store(points: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The thinned store of 1-D exit points for ``nearest_sorted_costs``, and which rows hold a NaN.

    Each row is sorted.  A target's neighbours there are the last point below
    it and the first point at or above it, so of each run of points that
    searchsorted puts between the same two sorted ``targets`` only the first
    and the last are kept, both even when they are equal floats.  The kept
    points are padded with the row's first point before them and its last
    point after them, to the longest row's count plus two.  A run between two
    targets of a subset is a union of runs between targets of the whole set,
    so the store serves every subset of ``targets``.
    """
    s = np.sort(points, axis=1)
    seg = np.searchsorted(np.sort(targets), s, side="right")
    keep = np.ones(s.shape, dtype=bool)
    keep[:, 1:-1] = (seg[:, 1:-1] != seg[:, :-2]) | (seg[:, 1:-1] != seg[:, 2:])
    count = np.count_nonzero(keep, axis=1)
    rows, ks = np.nonzero(keep)
    sp = np.repeat(s[:, -1:], count.max() + 2, axis=1)
    sp[:, 0] = s[:, 0]
    sp[rows, np.arange(1, len(rows) + 1) - np.repeat(np.cumsum(count) - count, count)] = s[rows, ks]
    return sp, np.isnan(s[:, -1])     # NaN sorts last


def sorted_window(system: MapSystem, width: int) -> bool:
    """Whether exit minima to ``width`` targets at a time come from the sorted store:
    a sampled system on the line whose exit window is shorter than ``width``."""
    return (not system.is_tabulated and system.space.coords.shape[1] == 1
            and system.horizon - system.first_step + 1 < width)


@dataclass(frozen=True)
class ExitMinArray:
    """Exit minima held whole, (n, targets), as ``bottleneck_product`` reads them:
    ``shape``, ``columns``, ``cell_bounds`` and ``block``, like ``ThinnedExitMin``."""

    M: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.M.shape

    def columns(self, at) -> "ExitMinArray":
        """The minima to the targets ``at`` (positions in this view)."""
        return ExitMinArray(self.M[:, at])

    def cell_bounds(self, starts: np.ndarray) -> np.ndarray:
        """(n, cells): a lower bound of z's exit minima in each cell (cells begin
        at ``starts``), NaN where one of them is NaN.  Here their least."""
        return np.minimum.reduceat(self.M, starts, axis=1)

    def block(self, zs: np.ndarray, a: int) -> np.ndarray:
        """M[zs, a:a + CELL_COLS], exactly."""
        return self.M[zs, a:a + CELL_COLS]


@dataclass(frozen=True)
class ThinnedExitMin:
    """Exit minima to the 1-D targets ``t`` computed on demand from a thinned store
    (``_sorted_store``): a ``block`` runs ``nearest_sorted_costs`` on its rows
    only, and a cell bound is the distance from the cell's target interval to
    the kept points.  Rows with a NaN exit point are NaN throughout."""

    store: np.ndarray       # (n, W + 2) sorted, thinned and padded
    nan: np.ndarray         # (n,) rows with a NaN exit point
    t: np.ndarray           # (targets,) target coordinates

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.store), len(self.t)

    def columns(self, at) -> "ThinnedExitMin":
        return ThinnedExitMin(self.store, self.nan, self.t[at])

    def cell_bounds(self, starts: np.ndarray) -> np.ndarray:
        """Each exit minimum is |t - x| for a kept point x, and for t in [lo, hi]
        the rounded gap max(lo - x, x - hi, 0) is at most that float.  An
        infinite point at an infinite end of the interval gives NaN, as its
        exit minimum is, and so does a NaN row's last point."""
        lo, hi = np.minimum.reduceat(self.t, starts), np.maximum.reduceat(self.t, starts)
        out = np.empty((len(self.store), len(starts)))
        rows = max(1, BLOCK_CELLS // (self.store.shape[1] * len(starts)))
        with np.errstate(invalid="ignore"):
            for a in range(0, len(out), rows):
                x = self.store[a:a + rows, :, None]
                out[a:a + rows] = np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=1)
        return out

    def block(self, zs: np.ndarray, a: int) -> np.ndarray:
        t = self.t[a:a + CELL_COLS]
        out = nearest_sorted_costs(self.store[zs], t, np.full((len(zs), len(t)), np.inf))
        out[self.nan[zs]] = np.nan
        return out


def exit_min_view(M) -> ExitMinArray | ThinnedExitMin:
    """M as an exit-minimum view; an array is wrapped in ``ExitMinArray``."""
    return ExitMinArray(M) if isinstance(M, np.ndarray) else M


def thinned_exit_min(system: MapSystem, cols: np.ndarray, horizon_check: bool = False):
    """Yield a ``ThinnedExitMin`` to the targets ``cols`` for each window: with
    ``horizon_check`` first the steps up to ``reduced_horizon``, then the whole
    exit window.  Each window's store is sorted on its own, and its minima are
    the least of the window's exit costs, NaN where one is (the 1-D sampled
    branch of ``exit_min_bands`` lowers its bands with these stores)."""
    k0, t = system.first_step - 1, system.space.coords[cols, 0]
    for k1 in [reduced_horizon(system)] * horizon_check + [system.horizon]:
        yield ThinnedExitMin(*_sorted_store(system.orbit_coords[:, k0:k1, 0], t), t)


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
    sampled window shorter than ``width`` takes the thinned stores of
    ``thinned_exit_min`` (at most the size of the orbit store), and each band
    runs ``nearest_sorted_costs`` on them, with no Python loop over samples:
    the whole window's store lowers the reduced window's minima to the whole
    window's.  Otherwise each band runs ``nearest_exit_costs``.
    """
    steps = [system.first_step - 1, system.horizon]
    if horizon_check:
        steps.insert(1, reduced_horizon(system))
    windows = list(zip(steps, steps[1:]))
    coords = system.space.coords
    width = max(1, width)
    sort = sorted_window(system, width)
    stores = list(thinned_exit_min(system, cols, horizon_check)) if sort else None
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
                nearest_sorted_costs(stores[i].store, coords[tg, 0], M)
                M[stores[i].nan] = np.nan
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
    bounding box.  That distance, from the same kernel (``core.euclid``), is
    at most every D[j, z] of the band, since each of its operations is
    monotone.  On the 30x30 tail this prefilter cut the pre-gate from 8.5 to
    1.9 ms.
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
            near = np.flatnonzero(euclid((np.maximum(np.maximum(lo[k] - c, c - hi[k]), 0.0)
                                          for k, c in enumerate(space.coords.T)), len(lo)) <= tau)
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
    entry = entry_cost_rows(system, np.array([x]))[0]
    exits = _exit_costs(system, np.arange(system.n), np.full(system.n, y))
    lev = np.maximum(entry[:, None], exits)     # every candidate level, (n, K)
    best = lev.min()
    zs, ks = np.nonzero(np.isnan(lev) if np.isnan(best) else lev == best)
    order = np.lexsort((zs, ks))
    z, k = int(zs[order[0]]), int(ks[order[0]])
    wit = LinkWitness(start_index=z, steps=k + system.first_step,
                      start_cost=float(entry[z]), end_cost=float(exits[z, k]))
    return float(best), wit


def recompute_witness_level(system: MapSystem, x: int, y: int, witness: LinkWitness) -> float:
    """Re-derive max(entry cost, exit cost) for a stored witness from the orbit store.

    Raises ValueError unless the witness enters at a sample and leaves within
    the exit window."""
    z, steps = witness.start_index, witness.steps
    if not (0 <= z < system.n and system.first_step <= steps <= system.horizon):
        raise ValueError(f"witness (start_index={z}, steps={steps}) is outside the "
                         f"{system.n} samples or the exit window "
                         f"[{system.first_step}, {system.horizon}]")
    entry = entry_cost_rows(system, np.array([x]))[0, z]
    exit_ = _exit_costs(system, np.array([z]), np.array([y]))[0, steps - system.first_step]
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


def bottleneck_product(D: np.ndarray, M, threads: int = 1) -> np.ndarray:
    """L[i, j] = min over z of max(D[i, z], M[z, j]), the (min, max) matrix product.

    D is read only as ``D.shape`` and ``D[rows]``, once per band of rows, so it
    may be an ``EntryCostRows`` view that computes each band's rows on demand.
    M is read only through an exit-minimum view (``exit_min_view``; an array
    is wrapped): its shape, one (n, cells) array of per-cell lower bounds, and
    the blocks M[zs, cell] of the samples zs a cell looks at, so a
    ``ThinnedExitMin`` computes no other exit minima.
    The output goes in cells of ``CELL_ROWS`` x ``CELL_COLS``.  Every candidate
    max(D[i, z], M[z, j]) of a cell is at least z's bound: the larger of the
    least entry cost D[i, z] over the cell's rows and z's lower bound on the
    exit costs M[z, j] over its columns.  A cell visits z in ascending bound.  A z with a
    NaN among the cell's entry or exit costs gets the bound -inf; the cell
    visits these, and its first ``BATCH`` samples, whole.  After that, an
    entry is live unless it is NaN, which np.minimum keeps.  The cell stops
    once the next bound reaches its largest live entry.  Otherwise it takes
    the next ``WINDOW`` samples, cut at the first bound that reaches that
    maximum, and keeps a z only if some row i has max(D[i, z], exit bound
    of z) below row i's largest live entry and some column j has
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
    M = exit_min_view(M)
    m, n = D.shape
    cols = M.shape[1]
    out = np.empty((m, cols))
    starts = np.arange(0, cols, CELL_COLS)
    exit_bound = M.cell_bounds(starts)                                # (n, cells)
    bands = [slice(i, min(i + CELL_ROWS, m)) for i in range(0, m, CELL_ROWS)]

    def fill(rows: slice) -> None:
        DT = np.ascontiguousarray(D[rows].T)                         # (n, rows)
        entry = DT.min(axis=1)
        buf = np.empty((max(BATCH, WINDOW), DT.shape[1], CELL_COLS))
        for b, a in enumerate(starts):
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
                    Mz = M.block(zs, a)
                else:
                    stop = i + int(np.searchsorted(sorted_bound[i:i + WINDOW], top))
                    zs, i = order[i:stop], stop
                    # z can lower a live entry only if both of its bounds beat it
                    zs = zs[(np.maximum(DT[zs], exit_bound[zs, b, None])
                             < np.fmax.reduce(acc, axis=1, initial=-np.inf)).any(axis=1)]
                    Mz = M.block(zs, a)
                    keep = (np.maximum(Mz, entry[zs, None])
                            < np.fmax.reduce(acc, axis=0, initial=-np.inf)).any(axis=1)
                    zs, Mz = zs[keep], Mz[keep]
                cand = np.maximum(DT[zs, :, None], Mz[:, None, :],
                                  out=buf[:len(zs), :, :Mz.shape[1]])
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
    ``level_summary`` holds one band of exit minima (none on the line, all of
    them when one band covers every target) and no (m, m) levels.
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
