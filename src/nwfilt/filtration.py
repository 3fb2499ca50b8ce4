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

from .core import Branch, ExtendedLevel
from .links import LevelMatrix

SUMMARY_ROWS = 256   # level rows per band of summarize's beta reduction


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


def nw_level(matrix: LevelMatrix, x: int) -> float:
    """Recurrence level of sample x: the diagonal entry level(x, x)."""
    r = matrix.row_of(x)
    return float(matrix.levels[r, r])


def summarize(matrix: LevelMatrix, zero_tol: float) -> LevelSummary:
    """Compute lam and beta for every sample covered by a complete matrix."""
    L = matrix.levels
    m = matrix.m
    lam = np.diagonal(L).copy()
    # beta candidates: returns strictly costlier than the excursion.  Row bands
    # bound the float temporary; each row's min is the same reduction as over
    # the whole matrix (a masked min, ``where=``, can pick the other signed zero).
    beta_all = np.empty(m)
    for a in range(0, m, SUMMARY_ROWS):
        rows = L[a:a + SUMMARY_ROWS]
        with np.errstate(invalid="ignore"):
            qualifying = L[:, a:a + SUMMARY_ROWS].T > rows
        beta_all[a:a + SUMMARY_ROWS] = np.where(qualifying, rows, np.inf).min(axis=1)
    defined = lam <= zero_tol
    beta = np.where(defined, beta_all, np.nan)
    return LevelSummary(lam=lam, beta=beta, zero_tol=float(zero_tol),
                        targets=matrix.targets.copy())


def _pos_member(summary: LevelSummary, magnitude: float) -> np.ndarray:
    return summary.lam <= max(magnitude, summary.zero_tol)


def _neg_member(summary: LevelSummary, magnitude: float,
                boundary: str = "strict") -> np.ndarray:
    """Negative-branch membership mask.

    The finite reduction yields a strict magnitude comparison at the boundary
    value beta(x); some closed-form continuum descriptions read as closed
    there.  Both conventions are exposed; they differ only on the set of
    magnitudes exactly equal to some beta(x).
    """
    if boundary not in ("strict", "closed"):
        raise ValueError('boundary must be "strict" or "closed"')
    gated = summary.lam <= summary.zero_tol
    with np.errstate(invalid="ignore"):
        if boundary == "strict":
            robust = (magnitude < summary.beta) | (summary.beta == np.inf)
        else:
            robust = magnitude <= summary.beta
    return gated & np.where(np.isnan(summary.beta), False, robust)


def omega_membership(summary: LevelSummary, x: int, level: ExtendedLevel,
                     neg_boundary: str = "strict") -> bool:
    """Whether sample x belongs to the recurrence slice at the given level."""
    r = summary.row_of(x)
    if level.branch is Branch.POS:
        return bool(_pos_member(summary, level.magnitude)[r])
    return bool(_neg_member(summary, level.magnitude, neg_boundary)[r])


def omega_slice(summary: LevelSummary, level: ExtendedLevel,
                neg_boundary: str = "strict") -> np.ndarray:
    """Sample indices of the slice at the given level, ascending."""
    if level.branch is Branch.POS:
        mask = _pos_member(summary, level.magnitude)
    else:
        mask = _neg_member(summary, level.magnitude, neg_boundary)
    return summary.targets[mask]


def diagram(summary: LevelSummary, levels: Sequence[ExtendedLevel],
            neg_boundary: str = "strict") -> list[DiagramSlice]:
    """Slices at the requested levels; the level list must be sorted ascending.

    The returned slices are nested (each is contained in every later one).
    """
    for a, b in zip(levels, levels[1:]):
        if not a <= b:
            raise ValueError("diagram levels must be sorted ascending")
    slices = [DiagramSlice(level=lv, members=omega_slice(summary, lv, neg_boundary))
              for lv in levels]
    prev: set[int] = set()
    for s in slices:
        cur = set(int(i) for i in s.members)
        if not prev <= cur:
            raise AssertionError("slice nesting violated; this is a bug")
        prev = cur
    return slices


def critical_levels(matrix: LevelMatrix) -> np.ndarray:
    """Sorted distinct finite values where some slice can change.

    These are the diagonal levels together with every robustness candidate
    (excursion levels of pairs whose return is strictly costlier).  Between
    consecutive values all slices are constant.
    """
    L = matrix.levels
    vals = [np.diagonal(L)]
    with np.errstate(invalid="ignore"):
        qual = L.T > L
    vals.append(L[qual])
    v = np.concatenate([np.ravel(x) for x in vals])
    v = v[np.isfinite(v)]
    return np.unique(v)


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
