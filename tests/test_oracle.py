import numpy as np
import pytest

from nwfilt import filtration
from nwfilt.core import Branch, neg_level, pos_level
from nwfilt.filtration import omega_slice, summarize
from nwfilt.links import level_matrix
from nwfilt.oracle import (FiniteInstance, build_tables, definitional_omega,
                           definitional_reachable, random_instance,
                           run_verification, verify_lemmas)


def make(cost, table, horizon=None):
    cost = np.asarray(cost, dtype=float)
    table = np.asarray(table, dtype=np.int64)
    return FiniteInstance(cost=cost, table=table,
                          horizon=horizon or 2 * len(table))


@pytest.fixture(scope="module")
def two_point():
    return make([[0.0, 1.0], [1.0, 0.0]], [1, 1])


@pytest.fixture(scope="module")
def three_cycle():
    return make(np.ones((3, 3)) - np.eye(3), [1, 2, 0])


class TestDefinitionalReachable:
    def test_cycle_covered_at_zero(self, three_cycle):
        assert set(definitional_reachable(three_cycle, 0, 0.0)) == {0, 1, 2}

    def test_orbit_only_at_zero(self, two_point):
        assert set(definitional_reachable(two_point, 0, 0.0)) == {1}

    def test_everything_at_infinity(self, two_point):
        assert set(definitional_reachable(two_point, 0, np.inf)) == {0, 1}

    def test_matches_table_path_on_random_instances(self):
        for seed in range(30):
            inst = random_instance(seed)
            tb = build_tables(inst)
            for t in tb.ts[np.isfinite(tb.ts)]:
                for x in range(inst.n):
                    direct = set(definitional_reachable(inst, x, float(t)))
                    tabled = set(np.nonzero(tb.reach_at(float(t))[x])[0].tolist())
                    assert direct == tabled


class TestDefinitionalOmega:
    def test_two_point_positive_slices(self, two_point):
        assert set(definitional_omega(two_point, pos_level(0.5))) == {1}
        assert set(definitional_omega(two_point, pos_level(1.0))) == {0, 1}

    def test_two_point_negative_slice(self, two_point):
        assert set(definitional_omega(two_point, neg_level(5.0))) == {1}

    def test_permutation_negative_slices_full(self):
        inst = make(np.ones((4, 4)) - np.eye(4), [1, 0, 3, 2])
        for mag in (0.0, 1.0, 7.0, np.inf):
            assert set(definitional_omega(inst, neg_level(mag))) == {0, 1, 2, 3}


class TestVerifyLemmas:
    def test_random_metric_instance_passes(self):
        report = verify_lemmas(random_instance(42))
        assert report.ok, report.failures

    def test_degenerate_cost_gates_hypotheses(self):
        inst = make([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [1, 2, 0])
        report = verify_lemmas(inst)
        status = {c.name: c.status for c in report.checks}
        assert status["orbit_recovery"] == "skipped"
        assert status["zero_level_agreement"] == "skipped"
        assert report.ok

    def test_two_point_instance_passes(self, two_point):
        report = verify_lemmas(two_point)
        assert report.ok
        names = {c.name for c in report.checks}
        assert {"reachable_monotone", "reduction_equivalence",
                "level_threshold_equivalence", "robust_slices_shrink"} <= names

    def test_infinite_cost_instance_passes(self):
        inst = make([[0.0, np.inf, 0.4], [0.3, 0.0, 0.2], [np.inf, 0.7, 0.0]], [2, 0, 1])
        assert verify_lemmas(inst).ok


class TestExitWindow:
    """Random instances whose links leave at steps first_step..horizon only, the
    finite form of a semiflow's duration floor."""

    @pytest.mark.parametrize("first_step", [2, 3])
    def test_reductions_hold_on_the_window(self, first_step):
        for seed in range(60):
            inst = random_instance(seed, first_step=first_step)
            report = verify_lemmas(inst)
            assert report.ok, (seed, report.failures)
            status = {c.name: c.status for c in report.checks}
            assert status["reduction_equivalence"] == "pass"
            assert status["level_threshold_equivalence"] == "pass"
            assert status["gated_reduction_equivalence"] == "pass"

    def test_window_draws_the_same_instance(self):
        for seed in range(20):
            a, b = random_instance(seed), random_instance(seed, first_step=3)
            assert a.cost.tobytes() == b.cost.tobytes() and a.table.tobytes() == b.table.tobytes()
            np.testing.assert_array_equal(b.orbit, a.orbit[:, 2:])


class TestGatedReduction:
    """The gated pass (filtration.level_summary: lam off the diagonal, beta off
    the gated rows and the complement block by column chunk) reproduces the
    definitional slices, with at most and with more than half of the samples
    gated."""

    def test_both_sides_of_the_switch_pass(self):
        sides = set()
        for seed in range(80):
            inst = random_instance(seed)
            status = {c.name: c.status for c in verify_lemmas(inst).checks}
            assert status["gated_reduction_equivalence"] == "pass", seed
            lam = summarize(level_matrix(inst.to_map_system()), zero_tol=0.0).lam
            sides.add(2 * np.count_nonzero(lam <= 0.0) <= inst.n)
        assert sides == {True, False}

    def test_skipped_when_membership_is_overridden(self, two_point):
        report = verify_lemmas(two_point, membership_fn=lambda lv: np.array([0]))
        status = {c.name: c.status for c in report.checks}
        assert status["gated_reduction_equivalence"] == "skipped"

    def test_fully_robust_strips_are_caught(self, monkeypatch):
        # a deliberately wrong strip pass: every gated sample robust at every magnitude
        def mutant(D, M, gated, threads=1):
            return np.where(gated, np.inf, np.nan)

        monkeypatch.setattr(filtration, "strip_robustness", mutant)
        failures = [c.name for seed in range(40)
                    for c in verify_lemmas(random_instance(seed)).failures]
        assert failures and set(failures) == {"gated_reduction_equivalence"}


class TestHorizonAdequacy:
    def test_doubling_horizon_changes_nothing(self):
        for seed in range(100):
            inst = random_instance(seed, max_size=6)
            longer = FiniteInstance(cost=inst.cost, table=inst.table,
                                    horizon=2 * inst.horizon, seed=inst.seed)
            a = level_matrix(inst.to_map_system()).levels
            b = level_matrix(longer.to_map_system()).levels
            np.testing.assert_array_equal(a, b)


class TestMutationCatching:
    def test_nonstrict_robustness_gate_is_caught(self):
        # a deliberately wrong reduction: closed instead of strict magnitude
        # comparison on the negative branch
        def mutant_membership_for(inst):
            system = inst.to_map_system()
            summary = summarize(level_matrix(system), zero_tol=0.0)

            def member(level):
                if level.branch is Branch.POS:
                    return omega_slice(summary, level)
                with np.errstate(invalid="ignore"):
                    mask = (summary.lam <= 0.0) & (level.magnitude <= summary.beta)
                return summary.targets[np.where(np.isnan(summary.beta), False, mask)]

            return member

        caught = False
        for seed in range(40):
            inst = random_instance(seed)
            report = verify_lemmas(inst, membership_fn=mutant_membership_for(inst))
            if not report.ok:
                assert any(c.name == "reduction_equivalence" for c in report.failures)
                caught = True
                break
        assert caught

    def test_shifted_recurrence_level_is_caught(self):
        def mutant_membership_for(inst):
            system = inst.to_map_system()
            summary = summarize(level_matrix(system), zero_tol=0.0)

            def member(level):
                if level.branch is Branch.POS:
                    return summary.targets[summary.lam <= level.magnitude * 0.99]
                return omega_slice(summary, level)

            return member

        caught = False
        for seed in range(40):
            inst = random_instance(seed)
            report = verify_lemmas(inst, membership_fn=mutant_membership_for(inst))
            if not report.ok:
                caught = True
                break
        assert caught


class TestRunVerification:
    def test_sweep_is_clean_and_reproducible(self):
        a = run_verification(60, max_size=8)
        b = run_verification(60, max_size=8)
        assert a.ok and b.ok and a.instances == b.instances == 60

    def test_failures_are_reported_with_seed(self):
        def broken(level):
            return np.array([], dtype=np.int64)

        summary = run_verification(3, membership_fn=lambda lv: broken(lv))
        assert not summary.ok
        assert all(isinstance(seed, int) for seed, _ in summary.failures)

    def test_instance_flavors_cycle(self):
        kinds = {(random_instance(s).symmetric, random_instance(s).bijective)
                 for s in range(12)}
        assert len(kinds) >= 3
