"""Recurrence and robustness levels derived from a link-level matrix.

Two numbers summarize every sample x:

* ``lam(x) = level(x, x)``: the smallest budget at which x steers back to
  itself.  The budget-eps recurrent set is ``{x : lam(x) <= eps}``, which
  grows with eps.
* ``beta(x)``: the robustness budget.  Among samples y that x can reach more
  cheaply than y can return (``level(y, x) > level(x, y)``), beta(x) is the
  cheapest such one-way excursion, and infinity when every reachable sample
  returns at matching cost.  x stays robustly recurrent at magnitude m on the
  negative branch exactly while m < beta(x).

On a finite sample set these two reductions reproduce, slice for slice, the
direct quantifier evaluation of robust recurrence (see the oracle module,
which re-derives membership by enumeration and is tested to agree exactly).

beta is only meaningful for samples that are recurrent at the zero gate
``zero_tol``; grids use a gate of twice the spacing because discretization
inflates lam at true recurrent points, exact tables use zero.  The positive
branch of the membership test is floored at the same gate so that the family
of slices stays nested across the split origin on grids; at magnitudes at or
above the gate (and everywhere on exact tables) it is the plain threshold
``lam(x) <= m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import links
from .core import Branch, ExtendedLevel, MapSystem
from .links import LevelMatrix

SUMMARY_ROWS = 256   # level rows per band of the beta reduction
STRIP_COLS = 64      # gated columns per chunk of strip_robustness: whole product cells


@dataclass(frozen=True)
class LevelSummary:
    """Per-sample recurrence level and robustness level at a zero gate.

    ``beta`` uses NaN for "undefined" (sample not recurrent at the gate) and
    inf for "robust at every magnitude".
    """

    lam: np.ndarray                      # (m,)
    beta: np.ndarray                     # (m,) NaN = undefined
    zero_tol: float
    targets: np.ndarray                  # (m,) sample indices

    @property
    def m(self) -> int:
        return len(self.targets)

    def row_of(self, sample: int) -> int:
        pos = np.searchsorted(self.targets, sample)
        if pos >= self.m or self.targets[pos] != sample:
            raise KeyError(f"sample {sample} not covered by this summary")
        return int(pos)


@dataclass(frozen=True)
class DiagramSlice:
    level: ExtendedLevel
    members: np.ndarray   # sorted sample indices


def _excursions(out: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Per row x: the least out[x, y] over the y with returns[x, y] > out[x, y], else inf.

    ``out`` holds the levels L[x, :] of some rows and ``returns`` the matching
    L[:, x], transposed.  The min over each row is the same reduction however
    the rows are cut (a masked min, ``where=``, can pick the other signed zero).
    """
    with np.errstate(invalid="ignore"):
        return np.where(returns > out, out, np.inf).min(axis=1)


def _robustness(L: np.ndarray, lam: np.ndarray, zero_tol: float) -> np.ndarray:
    """beta from a whole level matrix; row bands bound the float temporary."""
    beta = np.empty(len(lam))
    for a in range(0, len(lam), SUMMARY_ROWS):
        beta[a:a + SUMMARY_ROWS] = _excursions(L[a:a + SUMMARY_ROWS],
                                               L[:, a:a + SUMMARY_ROWS].T)
    return np.where(lam <= zero_tol, beta, np.nan)


def summarize(matrix: LevelMatrix, zero_tol: float) -> LevelSummary:
    """Compute lam and beta for every sample covered by a complete matrix."""
    lam = np.diagonal(matrix.levels).copy()
    return LevelSummary(lam=lam, beta=_robustness(matrix.levels, lam, zero_tol),
                        zero_tol=float(zero_tol), targets=matrix.targets.copy())


def diagonal_levels(D, M, start: int = 0) -> np.ndarray:
    """lam[j] = min over z of max(D[start + j, z], M[z, j]): the product's diagonal
    over the columns ``start..start + M.shape[1]``.

    D is read in bands of ``links.CELL_ROWS`` rows, as the product reads it
    (an ``EntryCostRows`` view computes only those).  An array M gives each
    band's lam in one min over every sample; a ``links.ThinnedExitMin`` gives
    it as the diagonal of the product of the band's rows with its own
    columns, which computes the exit minima of the samples that product
    visits only.  Min and max select among the same floats as
    ``bottleneck_product``, so each entry is its diagonal entry bit for bit,
    NaN included.
    """
    lam = np.empty(M.shape[1])
    for a in range(0, len(lam), links.CELL_ROWS):
        b = min(a + links.CELL_ROWS, len(lam))
        if isinstance(M, np.ndarray):
            lam[a:b] = np.maximum(D[start + a:start + b], M[:, a:b].T).min(axis=1)
        else:
            lam[a:b] = np.diagonal(links.bottleneck_product(D[start + a:start + b],
                                                            M.columns(slice(a, b))))
    return lam


def strip_robustness(D: links.EntryCostRows, M, gated: np.ndarray,
                     threads: int = 1) -> np.ndarray:
    """beta of the gated targets from the rows L[G, :] and what is left of the block L[Gᶜ, G].

    beta(x) reads only row x and column x of L = min_z max(D, M), for x in
    the gate G.  The rows L[G, :] are the product of the gated targets' entry
    costs with M; they hold the G part of every gated column too, and their
    witnesses over Gᶜ (``links.bottleneck_product``) settle most of the block
    L[Gᶜ, G] in ``_strip_beta``.  Every entry it reads is the product's own
    float, so beta is that of the whole product bit for bit.  M is an array
    or an exit-minimum view (``links.exit_min_view``).  Returns beta over all
    targets, NaN outside the gate.
    """
    g = np.flatnonzero(gated)
    if len(g) == 0:
        return np.full(len(gated), np.nan)
    rest = np.flatnonzero(~gated)
    witness = np.empty((len(g), len(rest)), dtype=np.int32) if len(rest) else None
    rows = links.bottleneck_product(links.EntryCostRows(D.system, D.cols[g]), M, threads,
                                    witness, rest)
    return _strip_beta(D, rows, witness, M, g, gated, threads)


def _settled(D: links.EntryCostRows, M, x: np.ndarray, ys: np.ndarray, z: np.ndarray,
             level: np.ndarray) -> np.ndarray:
    """Mask (len(x), len(ys)) of the block entries L[ys[q], k] that the witnesses
    settle, k the target of M's column x[p] (an array or a view).

    z[p, q] is a witness of level[p, q] = L[k, ys[q]].  An entry L[y, k] is
    an excursion of k only if it exceeds L[k, y], and the witness bounds it:
    L[y, k] <= max(D[y, z], M[z, k]), from the engine's own floats
    (``links.entry_costs`` and the view's ``pick``).  So the entry is
    settled, as no excursion, where that bound is at most L[k, y] or where
    L[k, y] is NaN; a NaN bound settles nothing.
    """
    with np.errstate(invalid="ignore"):                  # inf - inf in 2-D costs
        bound = links.entry_costs(D.system, D.cols[ys], z)
        np.maximum(bound, M.pick(z, x[:, None]), out=bound)
    return (bound <= level) | np.isnan(level)


def _strip_beta(D: links.EntryCostRows, rows: np.ndarray, witness: np.ndarray | None, M,
                at: np.ndarray, gated: np.ndarray, threads: int) -> np.ndarray:
    """beta from the gated rows L[G, :], their witnesses over Gᶜ and the gated
    exit-min columns M[:, at].

    ``at[k]`` is the column of M (an array or a view) that belongs to the
    k-th gated target.  Per ``STRIP_COLS`` gated columns c, the witnesses
    settle most entries of the block L[Gᶜ, c] (``_settled``), and only the
    rows y with an entry left go through the block product.  Each chunk's
    returns L[:, c] are then reduced at once; an entry that is settled and
    not computed returns -inf, which is no excursion.  No (m, m) or (m, |G|)
    float array is held.  ``witness`` (|G|, |Gᶜ|) may be None only when Gᶜ
    is empty.
    """
    M = links.exit_min_view(M)
    beta = np.full(len(gated), np.nan)
    g, rest = np.flatnonzero(gated), np.flatnonzero(~gated)
    for a in range(0, len(g), STRIP_COLS):
        c, x = g[a:a + STRIP_COLS], at[a:a + STRIP_COLS]
        y = rest
        if len(rest):
            y = rest[~_settled(D, M, x, rest, witness[a:a + STRIP_COLS],
                               rows[a:a + STRIP_COLS, rest]).all(axis=0)]
        returns = np.full((len(c), len(gated)), -np.inf)       # L[:, c].T where needed
        returns[:, g] = rows[:, c].T
        if len(y):
            returns[:, y] = links.bottleneck_product(links.EntryCostRows(D.system, D.cols[y]),
                                                     M.columns(x), threads).T
        beta[c] = _excursions(rows[a:a + STRIP_COLS], returns)
    return beta


def level_summary(system: MapSystem, zero_tol: float, threads: int = 1,
                  horizon_check: bool = False
                  ) -> LevelSummary | tuple[LevelSummary, LevelSummary]:
    """lam and beta of every sample, as ``summarize(level_matrix(system))`` bit for bit,
    without the whole level matrix.

    lam is the diagonal of the product (``diagonal_levels``).  beta is defined
    only on the gate G = {lam <= zero_tol} and reads only the rows L[G, :]
    and the block L[Gᶜ, G], most of which the rows' witnesses settle without
    computing it (``strip_robustness``).  The arrays are priced,
    ordered and read as in ``level_matrix``: all samples are targets, in cell
    order, D is an ``EntryCostRows`` view and the results are put back in
    sample order.

    A sampled system on the line whose exit window is shorter than the band
    below (``links.sorted_window``) computes exit minima only where the
    products read them: each window's exit points are sorted and thinned once
    (``links.thinned_exit_min``), lam comes from the diagonal cells, then the
    gate, the rows and the block, with no (n, band) array.

    Otherwise the exit minima M are computed once, one band of
    max(``links.BAND_COLS``, K) target columns at a time, K being the
    exit-window length.  Before any
    of them, ``links.pre_gate`` marks a superset G⁺ of the gate from each
    target's tau-neighbourhood: |P| K exit costs for the pairs P = {D <= tau}.
    Each band then gives its lam, the rows L[G⁺, band] with their witnesses
    and its gated columns M[:, band ∩ G⁺].  After the pass G ⊆ G⁺ is
    checked, the rows of G and their witnesses over Gᶜ are kept, and what
    the witnesses leave of the block L[Gᶜ, G] comes from the collected
    columns (``_strip_beta``).  So the pass holds one (n, band) array of
    exit minima, the rows (|G⁺|, m) with as many int32 witnesses and the
    columns (n, |G⁺|), never the (n, m) M.  When one band covers every target
    the pass holds the whole M, with no pre-gate and no copy of its columns:
    the gate comes from lam.  So it does too when the rows, witnesses and
    columns of G⁺, for both horizons with the check, would hold as many
    bytes as M; the pre-gate stops as soon as it has marked that many.

    With ``horizon_check``, returns the pair (summary, summary at the reduced
    horizon, ``links.reduced_horizon``): thinned stores are built for each
    window, and otherwise each band (or the whole M) takes the minima over
    the reduced window first and is then lowered in place over the rest of
    the exit window (``links.exit_min_bands``).  Maps and flows take the same
    paths, and the check holds no more (n, m) arrays than the pass without it,
    so both are priced alike (``links.priced_targets``).
    """
    tg, perm = links.priced_targets(system)
    cols = tg[perm]
    m = len(cols)
    D = links.EntryCostRows(system, cols)
    inv = np.argsort(perm)
    width = max(links.BAND_COLS, system.horizon - system.first_step + 1)

    def summary(lam: np.ndarray, beta: np.ndarray) -> LevelSummary:
        return LevelSummary(lam=lam[inv], beta=beta[inv], zero_tol=float(zero_tol), targets=tg)

    out = []
    windows = range(1 + horizon_check)
    # the banded pass holds rows, int32 witnesses and columns of G⁺ for every
    # window at once; past ``most`` targets they would hold as many bytes as M
    most = (2 * system.n * m - 1) // (len(windows) * (3 * m + 2 * system.n))
    plus = None
    if links.sorted_window(system, min(width, m)):
        views = links.thinned_exit_min(system, cols, horizon_check)
    else:
        plus = links.pre_gate(system, cols, zero_tol, most) if width < m else None
        views = (M for _, _, M in links.exit_min_bands(system, cols, m, horizon_check))
    if plus is None:
        for M in views:
            lam = diagonal_levels(D, M)
            out.append(summary(lam, strip_robustness(D, M, lam <= zero_tol, threads)))
        return (out[1], out[0]) if horizon_check else out[0]
    gp = np.flatnonzero(plus)
    D_plus = links.EntryCostRows(system, cols[gp])
    lams = [np.empty(m) for _ in windows]
    rows = [np.empty((len(gp), m)) for _ in windows]
    witnesses = [np.empty((len(gp), m), dtype=np.int32) for _ in windows]
    gathered = [np.empty((system.n, len(gp))) for _ in windows]
    for i, band, M in links.exit_min_bands(system, cols, width, horizon_check):
        k = np.arange(*np.searchsorted(gp, [band.start, band.stop]))   # G⁺ in the band
        lams[i][band] = diagonal_levels(D, M, band.start)
        if len(gp):
            rows[i][:, band] = links.bottleneck_product(D_plus, M, threads,
                                                        witnesses[i][:, band])
        gathered[i][:, k] = M[:, gp[k] - band.start]
    for lam, row, wit, col in zip(lams, rows, witnesses, gathered):
        gated = lam <= zero_tol
        if (gated & ~plus).any():
            raise AssertionError("a gated sample is missing from the pre-gate; this is a bug")
        sel = np.flatnonzero(gated[gp])
        wit = wit[np.ix_(sel, np.flatnonzero(~gated))]
        out.append(summary(lam, _strip_beta(D, row[sel], wit, col, sel, gated, threads)))
    return (out[1], out[0]) if horizon_check else out[0]


def _pos_member(summary: LevelSummary, magnitude: float) -> np.ndarray:
    return summary.lam <= max(magnitude, summary.zero_tol)


def _neg_member(summary: LevelSummary, magnitude: float) -> np.ndarray:
    """Negative-branch membership mask: gated and m < beta(x), the finite
    reduction's strict comparison (beta = inf is robust at every magnitude)."""
    gated = summary.lam <= summary.zero_tol
    with np.errstate(invalid="ignore"):
        robust = (magnitude < summary.beta) | (summary.beta == np.inf)
    return gated & np.where(np.isnan(summary.beta), False, robust)


def omega_membership(summary: LevelSummary, x: int, level: ExtendedLevel) -> bool:
    """Whether sample x belongs to the recurrence slice at the given level."""
    r = summary.row_of(x)
    if level.branch is Branch.POS:
        return bool(_pos_member(summary, level.magnitude)[r])
    return bool(_neg_member(summary, level.magnitude)[r])


def omega_slice(summary: LevelSummary, level: ExtendedLevel) -> np.ndarray:
    """Sample indices of the slice at the given level, ascending."""
    if level.branch is Branch.POS:
        mask = _pos_member(summary, level.magnitude)
    else:
        mask = _neg_member(summary, level.magnitude)
    return summary.targets[mask]


def diagram(summary: LevelSummary, levels: Sequence[ExtendedLevel]) -> list[DiagramSlice]:
    """Slices at the requested levels; the level list must be sorted ascending.

    The returned slices are nested (each is contained in every later one).
    """
    for a, b in zip(levels, levels[1:]):
        if not a <= b:
            raise ValueError("diagram levels must be sorted ascending")
    slices = [DiagramSlice(level=lv, members=omega_slice(summary, lv))
              for lv in levels]
    prev: set[int] = set()
    for s in slices:
        cur = set(int(i) for i in s.members)
        if not prev <= cur:
            raise AssertionError("slice nesting violated; this is a bug")
        prev = cur
    return slices


def coordinate_intervals(members: np.ndarray, coords: np.ndarray,
                         spacing: float) -> list[list[float]]:
    """Merge a 1-D member set into closed coordinate intervals.

    Members separated by at most 1.5 grid steps fall into one interval.
    """
    if coords.shape[1] != 1:
        raise ValueError("interval summaries need 1-D coordinates")
    if len(members) == 0:
        return []
    xs = np.sort(coords[members, 0])
    gaps = np.nonzero(np.diff(xs) > 1.5 * spacing)[0]
    starts = np.concatenate([[0], gaps + 1])
    ends = np.concatenate([gaps, [len(xs) - 1]])
    return [[float(xs[a]), float(xs[b])] for a, b in zip(starts, ends)]
