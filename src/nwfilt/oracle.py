"""Exact definitional evaluation of the link relations on small finite systems.

Everything here is evaluated straight from the quantifier definitions, without
the minimum-over-pairs shortcut or the robustness reduction used by the
engine:

* reachability at budget t enumerates every (entry sample, step count) pair,
  the step counts ranging over the exit window [first_step, horizon];
* the limit relation "for every budget above t" is evaluated by sampling all
  candidate budgets above t (transition points of every relation are attained
  cost values, because a max of two costs is one of them; midpoints between
  consecutive values witness the open intervals in between);
* membership on the negative branch evaluates the full nested quantifier:
  for every budget eps' up to the magnitude and every sample reachable from x
  within eps', a return link to x must exist at every budget above eps'.

The point of the module is the ``reduction_equivalence`` check: the engine's
lam/beta reductions must reproduce these definitional sets at every critical
value and midpoint, on random instances with metric, merely symmetric, and
asymmetric cost functions alike.  Any violation falsifies either a reduction
or a reading of a definition and blocks release.  ``gated_reduction_equivalence``
asks the same of ``filtration.level_summary``, which derives lam and beta
without the whole level matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import Branch, ExtendedLevel, build_tabulated_system
from .filtration import level_summary, omega_slice, summarize
from .links import level_matrix


@dataclass(frozen=True)
class FiniteInstance:
    """A small explicit system: cost matrix, map table, and derived flags.

    Links leave at steps ``first_step`` to ``horizon``; ``orbit`` holds those
    iterates.
    """

    cost: np.ndarray        # (n, n)
    table: np.ndarray       # (n,)
    horizon: int
    seed: int | None = None
    first_step: int = 1

    def __post_init__(self):
        n = len(self.table)
        orbit = np.empty((n, self.horizon), dtype=np.int64)
        cur = self.table
        for k in range(self.horizon):
            orbit[:, k] = cur
            cur = self.table[cur]
        object.__setattr__(self, "_orbit", orbit[:, self.first_step - 1:])

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def orbit(self) -> np.ndarray:
        return self._orbit

    @property
    def symmetric(self) -> bool:
        return bool(np.array_equal(self.cost, self.cost.T))

    @property
    def non_degenerate(self) -> bool:
        off = self.cost + np.where(np.eye(self.n, dtype=bool), np.inf, 0.0)
        return not np.any(off == 0.0)

    @property
    def bijective(self) -> bool:
        return len(np.unique(self.table)) == self.n

    def to_map_system(self):
        return replace(build_tabulated_system(self.table, horizon=self.horizon,
                                              cost_matrix=self.cost, name="instance"),
                       first_step=self.first_step)


def random_instance(seed: int, min_size: int = 2, max_size: int = 8,
                    first_step: int = 1) -> FiniteInstance:
    """Reproducible random instance; cost flavor and map shape cycle with the seed.

    Flavors: Euclidean point clouds (metric), symmetrized tables (symmetric,
    no triangle inequality), and independent asymmetric tables.  Every other
    seed uses a permutation map; some seeds plant a degenerate zero or an
    infinite cost to exercise hypothesis gating.  ``first_step`` sets the
    exit window and draws nothing, so a seed gives the same system for every
    window.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_size, max_size + 1))
    if seed % 2 == 0:
        table = rng.permutation(n)
    else:
        table = rng.integers(0, n, size=n)
    flavor = seed % 3
    if flavor == 0:
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        cost = np.sqrt(np.sum(diff * diff, axis=2))
    elif flavor == 1:
        raw = rng.uniform(0.05, 2.0, size=(n, n))
        cost = 0.5 * (raw + raw.T)
    else:
        cost = rng.uniform(0.05, 2.0, size=(n, n))
    np.fill_diagonal(cost, 0.0)
    if seed % 5 == 4 and n >= 3:
        cost[0, 1] = cost[1, 0] = 0.0
    if seed % 7 == 3 and flavor != 0 and n >= 3:
        cost[n - 1, 0] = np.inf
    return FiniteInstance(cost=cost, table=np.asarray(table, dtype=np.int64),
                          horizon=2 * n, seed=seed, first_step=first_step)


# ---------------------------------------------------------------------------
# Definitional relations
# ---------------------------------------------------------------------------


def definitional_reachable(inst: FiniteInstance, x: int, eps: float) -> np.ndarray:
    """Indices reachable from x within eps, enumerated from the definition."""
    if np.isnan(eps) or eps < 0:
        raise ValueError("eps must be non-negative")
    ok_entry = inst.cost[x] <= eps                       # (n,)
    exits_ok = inst.cost[inst.orbit] <= eps              # (n, horizon, n)
    reach = (exits_ok[ok_entry]).any(axis=(0, 1)) if ok_entry.any() else np.zeros(inst.n, bool)
    return np.nonzero(reach)[0]


@dataclass(frozen=True)
class _Tables:
    """Reachability evaluated at every candidate budget, with limit closures."""

    ts: np.ndarray          # sorted sampling budgets
    reach: np.ndarray       # (T, n, n) bool, reach[i] at budget ts[i]
    suffix: np.ndarray      # (T, n, n) bool, AND of reach[j] for j >= i
    pred_of_value: Callable[[float], int]

    def reach_at(self, eps: float) -> np.ndarray:
        return self.reach[self.pred_of_value(eps)]

    def limit_at(self, eps: float) -> np.ndarray:
        """Relation 'linked at every budget strictly above eps'."""
        i = int(np.searchsorted(self.ts, eps, side="right"))
        above = self.suffix[i] if i < len(self.ts) else np.ones_like(self.reach[0])
        return above & self.reach[self.pred_of_value(eps)]


def build_tables(inst: FiniteInstance) -> _Tables:
    finite = np.unique(inst.cost[np.isfinite(inst.cost)])
    vals = np.unique(np.concatenate([[0.0], finite]))
    mids = 0.5 * (vals[1:] + vals[:-1])
    ts = np.unique(np.concatenate([vals, mids, [vals[-1] + 1.0], [np.inf]]))
    T = len(ts)
    n = inst.n
    reach = np.empty((T, n, n), dtype=bool)
    for i, t in enumerate(ts):
        entry_ok = inst.cost <= t                        # (n, n), [x, z]
        exit_ok = (inst.cost[inst.orbit] <= t).any(axis=1)  # (n, n), [z, y]
        reach[i] = np.einsum("xz,zy->xy", entry_ok, exit_ok) > 0
    suffix = np.empty_like(reach)
    suffix[-1] = reach[-1]
    for i in range(T - 2, -1, -1):
        suffix[i] = suffix[i + 1] & reach[i]

    def pred_of_value(eps: float) -> int:
        i = int(np.searchsorted(ts, eps, side="right")) - 1
        if i < 0:
            raise ValueError("budgets below 0 are not meaningful")
        return i

    return _Tables(ts=ts, reach=reach, suffix=suffix, pred_of_value=pred_of_value)


def definitional_omega(inst: FiniteInstance, level: ExtendedLevel,
                       tables: _Tables | None = None) -> np.ndarray:
    """Member indices of the slice at the given level, by quantifier evaluation."""
    tb = tables or build_tables(inst)
    if level.branch is Branch.POS:
        member = np.diagonal(tb.limit_at(level.magnitude)).copy()
        return np.nonzero(member)[0]
    gate = np.diagonal(tb.limit_at(0.0)).copy()
    member = gate.copy()
    cutoff = level.magnitude
    for i, t in enumerate(tb.ts):
        if t > cutoff:
            break
        above = tb.suffix[i + 1] if i + 1 < len(tb.ts) else np.ones_like(tb.reach[0])
        ret = above & tb.reach[i]
        bad = (tb.reach[i] & ~ret.T).any(axis=1)
        member &= ~bad
    if np.isfinite(cutoff) and cutoff not in tb.ts:
        i = tb.pred_of_value(cutoff)
        above = tb.suffix[i + 1] if i + 1 < len(tb.ts) else np.ones_like(tb.reach[0])
        ret = above & tb.reach[i]
        bad = (tb.reach[i] & ~ret.T).any(axis=1)
        member &= ~bad
    return np.nonzero(member)[0]


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str                 # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class OracleReport:
    seed: int | None
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures


def _default_membership(inst: FiniteInstance):
    """Engine-side membership from the lam/beta reductions, zero gate 0."""
    system = inst.to_map_system()
    matrix = level_matrix(system)
    summary = summarize(matrix, zero_tol=0.0)

    def member(level: ExtendedLevel) -> np.ndarray:
        return omega_slice(summary, level)

    return member, matrix


def verify_lemmas(inst: FiniteInstance,
                  membership_fn: Callable | None = None) -> OracleReport:
    """Run every gated definitional check on one instance.

    ``membership_fn(level) -> indices`` overrides the engine side of the
    reduction-equivalence check (used by the mutation tests); by default the
    real reduction is checked.
    """
    tb = build_tables(inst)
    checks: list[CheckResult] = []
    n = inst.n

    def record(name, ok, detail=""):
        checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    def skip(name, why):
        checks.append(CheckResult(name, "skipped", why))

    # reachable sets grow with the budget
    mono = all(np.all(~tb.reach[i] | tb.reach[i + 1]) for i in range(len(tb.ts) - 1))
    record("reachable_monotone", mono)

    # zero-budget reachability recovers the forward orbit
    if inst.non_degenerate:
        r0 = tb.reach[tb.pred_of_value(0.0)]
        ok, wit = True, ""
        for x in range(n):
            orbit_set = np.zeros(n, dtype=bool)
            orbit_set[inst.orbit[x]] = True
            if not np.array_equal(r0[x], orbit_set):
                ok, wit = False, f"x={x}"
                break
        record("orbit_recovery", ok, wit)
    else:
        skip("orbit_recovery", "degenerate cost")

    # the 'every budget above t' closure collapses onto the closed relation
    collapse = all(np.array_equal(tb.limit_at(t), tb.reach[tb.pred_of_value(t)])
                   for t in tb.ts[np.isfinite(tb.ts)])
    record("limit_collapse", collapse)

    # positive-branch slices are nested and cover the space
    pos_sets = [np.diagonal(tb.limit_at(t)) for t in tb.ts]
    nested = all(np.all(~a | b) for a, b in zip(pos_sets, pos_sets[1:]))
    record("recurrent_slices_nested", nested)
    # the first exit of x's own orbit bounds lam(x)
    first_exit = inst.cost[inst.orbit[:, 0], np.arange(n)]
    cover = all(bool(np.diagonal(tb.limit_at(float(v)))[x]) if np.isfinite(v) else True
                for x, v in enumerate(first_exit))
    record("one_step_cover", cover)
    record("top_slice_full", bool(np.all(pos_sets[-1])))

    # negative-branch slices shrink as the magnitude grows
    neg_sets = [set(definitional_omega(inst, ExtendedLevel(Branch.NEG, float(t)), tb).tolist())
                for t in tb.ts[np.isfinite(tb.ts)]]
    shrink = all(b <= a for a, b in zip(neg_sets, neg_sets[1:]))
    record("robust_slices_shrink", shrink)

    neg0 = set(definitional_omega(inst, ExtendedLevel(Branch.NEG, 0.0), tb).tolist())
    pos0 = set(np.nonzero(np.diagonal(tb.limit_at(0.0)))[0].tolist())
    record("neg_zero_inside_pos_zero", neg0 <= pos0)

    if inst.non_degenerate:
        record("zero_level_agreement", neg0 == pos0, f"neg0={sorted(neg0)} pos0={sorted(pos0)}")
        # same set, phrased through orbit returns at zero budget
        r0 = tb.reach[tb.pred_of_value(0.0)]
        alt = set()
        for x in range(n):
            if x in set(inst.orbit[x].tolist()) and all(bool(r0[z, x]) for z in set(inst.orbit[x].tolist())):
                alt.add(x)
        record("neg_zero_orbit_form", neg0 == alt)
    else:
        skip("zero_level_agreement", "degenerate cost")
        skip("neg_zero_orbit_form", "degenerate cost")

    if inst.bijective and inst.symmetric:
        full = set(range(n))
        persist = all(set(definitional_omega(inst, ExtendedLevel(Branch.NEG, float(t)), tb).tolist()) == full
                      for t in np.concatenate([tb.ts[np.isfinite(tb.ts)], [np.inf]]))
        record("permutation_persistence", persist)
    else:
        skip("permutation_persistence", "not a symmetric-cost permutation")

    if inst.bijective and inst.non_degenerate:
        lim0 = np.diagonal(tb.limit_at(0.0))
        periodic = np.array([x in set(inst.orbit[x].tolist()) for x in range(n)])
        record("bijection_zero_gate", bool(np.all(~lim0 | periodic)))
    else:
        skip("bijection_zero_gate", "not a non-degenerate bijection")

    # engine reductions against the definitional sets
    member_fn, matrix = (None, None)
    if membership_fn is None:
        member_fn, matrix = _default_membership(inst)
    else:
        member_fn = membership_fn

    if matrix is not None:
        with np.errstate(invalid="ignore"):
            ok = all(np.array_equal(matrix.levels <= t, tb.reach[tb.pred_of_value(t)])
                     for t in tb.ts)
        record("level_threshold_equivalence", ok)

    probe_levels = [ExtendedLevel(Branch.POS, float(t)) for t in tb.ts[np.isfinite(tb.ts)]]
    probe_levels += [ExtendedLevel(Branch.POS, np.inf)]
    probe_levels += [ExtendedLevel(Branch.NEG, float(t)) for t in tb.ts[np.isfinite(tb.ts)]]
    probe_levels += [ExtendedLevel(Branch.NEG, np.inf)]
    wants = [set(definitional_omega(inst, lv, tb).tolist()) for lv in probe_levels]

    def first_mismatch(member) -> str:
        for lv, want in zip(probe_levels, wants):
            got = set(int(i) for i in member(lv))
            if want != got:
                return f"level {lv}: definitional {sorted(want)} vs reduction {sorted(got)}"
        return ""

    bad = first_mismatch(member_fn)
    record("reduction_equivalence", not bad, bad)
    # the gated pass: the same lam and beta without the whole matrix
    if matrix is None:
        skip("gated_reduction_equivalence", "membership overridden")
    else:
        gated = level_summary(inst.to_map_system(), zero_tol=0.0)
        bad = first_mismatch(lambda lv: omega_slice(gated, lv))
        record("gated_reduction_equivalence", not bad, bad)

    return OracleReport(seed=inst.seed, checks=tuple(checks))


@dataclass(frozen=True)
class VerificationSummary:
    instances: int
    failures: list[tuple[int, list[CheckResult]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_verification(n_instances: int, max_size: int = 8, seed_start: int = 0,
                     min_size: int = 2,
                     membership_fn: Callable | None = None,
                     on_failure: Callable[[FiniteInstance, OracleReport], None] | None = None,
                     ) -> VerificationSummary:
    """Sweep the lemma suite over a reproducible family of random instances."""
    if n_instances < 1:
        raise ValueError("need at least one instance")
    failures = []
    for seed in range(seed_start, seed_start + n_instances):
        inst = random_instance(seed, min_size=min_size, max_size=max_size)
        report = verify_lemmas(inst, membership_fn=membership_fn)
        if not report.ok:
            failures.append((seed, report.failures))
            if on_failure is not None:
                on_failure(inst, report)
    return VerificationSummary(instances=n_instances, failures=failures)
