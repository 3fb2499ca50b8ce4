import numpy as np
import pytest

from nwfilt.builtins import build_grid_system, counterexample_tail, tail_start_index
from nwfilt.core import build_tabulated_system, neg_level, pos_level
from nwfilt.filtration import (diagram, omega_membership, omega_slice, summarize,
                               coordinate_intervals)
from nwfilt import filtration
from nwfilt.links import LevelMatrix, level_matrix, link_level


@pytest.fixture(scope="module")
def f2():
    sys = build_grid_system("f2", box=[[-5, 5]], spacing=0.01, horizon=64)
    mat = level_matrix(sys)
    return sys, mat, summarize(mat, zero_tol=0.02)


@pytest.fixture(scope="module")
def f_rep():
    sys = build_grid_system("f_rep", box=[[-5, 5]], spacing=0.01, horizon=64)
    mat = level_matrix(sys)
    return sys, mat, summarize(mat, zero_tol=0.02)


@pytest.fixture(scope="module")
def f_half_small():
    sys = build_grid_system("f_half", box=[[-5, 5]], spacing=0.02, horizon=64)
    mat = level_matrix(sys)
    return sys, mat, summarize(mat, zero_tol=0.04)


@pytest.fixture(scope="module")
def two_point():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = build_tabulated_system([1, 1], horizon=2, cost_matrix=m)
    mat = level_matrix(sys)
    return sys, mat, summarize(mat, zero_tol=0.0)


class TestRecurrenceLevel:
    def test_doubling_wedge_value(self, f2):
        sys, _, summ = f2
        assert abs(summ.lam[summ.row_of(sys.index_of(3.0))] - 1.0) <= 0.02

    def test_fixed_point_is_zero(self, f_rep):
        sys, mat, _ = f_rep
        x = mat.row_of(sys.index_of(-2.0))
        assert mat.levels[x, x] == 0.0

    def test_tail_start_level(self):
        sys = counterexample_tail(50, 50)
        p = tail_start_index(sys)
        lvl, _ = link_level(sys, p, p)
        assert abs(lvl - 0.5) <= 0.01


class TestRobustnessLevel:
    def test_frozen_half_line(self, f_rep):
        sys, _, summ = f_rep
        i = sys.index_of(-1.0)
        assert abs(summ.beta[i] - 1.0) <= 0.02

    def test_identity_is_fully_robust(self):
        sys = build_grid_system("identity", box=[[-1, 1]], spacing=0.1, horizon=8)
        summ = summarize(level_matrix(sys), zero_tol=0.2)
        assert np.all(summ.beta == np.inf)

    def test_doubling_origin_fragile(self, f2):
        sys, _, summ = f2
        assert abs(summ.beta[sys.index_of(0.0)]) <= 0.02

    def test_undefined_outside_gate(self, f2):
        sys, _, summ = f2
        assert np.isnan(summ.beta[sys.index_of(3.0)])


class TestMembership:
    def test_doubling_threshold(self, f2):
        sys, _, summ = f2
        x = sys.index_of(3.0)
        assert omega_membership(summ, x, pos_level(1.0))
        assert not omega_membership(summ, x, pos_level(0.9))

    def test_frozen_negative_branch(self, f_rep):
        sys, _, summ = f_rep
        assert omega_membership(summ, sys.index_of(-2.0), neg_level(1.5))
        assert not omega_membership(summ, sys.index_of(-1.0), neg_level(1.5))

    def test_zero_level_fixed_point(self, f_rep):
        sys, _, summ = f_rep
        assert omega_membership(summ, sys.index_of(-2.0), pos_level(0.0))

    def test_boundary_conventions_differ_only_at_beta(self, f_rep):
        sys, _, summ = f_rep
        x = sys.index_of(-1.0)
        b = float(summ.beta[x])
        assert not omega_membership(summ, x, neg_level(b))
        assert omega_membership(summ, x, neg_level(b - 0.01))

    def test_membership_monotone_along_levels(self, f_rep):
        sys, _, summ = f_rep
        levels = [neg_level(2.0), neg_level(1.0), neg_level(0.0),
                  pos_level(0.0), pos_level(0.5), pos_level(np.inf)]
        for x in (sys.index_of(-1.5), sys.index_of(0.3), sys.index_of(2.0)):
            flags = [omega_membership(summ, x, lv) for lv in levels]
            assert flags == sorted(flags)


class TestDiagram:
    def test_halving_map_slices(self, f_half_small):
        sys, _, summ = f_half_small
        levels = [neg_level(1.0), neg_level(0.0), pos_level(0.0), pos_level(1.0)]
        slices = diagram(summ, levels)
        coords = sys.space.coords[:, 0]
        np.testing.assert_array_equal(coords[slices[0].members], [0.0])
        assert np.all(np.abs(coords[slices[1].members]) <= 0.08)
        assert 0.0 in coords[slices[1].members]
        assert np.all(np.abs(coords[slices[2].members]) <= 0.13)
        lo, hi = coords[slices[3].members].min(), coords[slices[3].members].max()
        assert abs(lo + 3.0) <= 0.04 and abs(hi - 3.0) <= 0.04

    def test_identity_everything_everywhere(self):
        sys = build_grid_system("identity", box=[[-1, 1]], spacing=0.25, horizon=4)
        summ = summarize(level_matrix(sys), zero_tol=0.5)
        levels = [neg_level(3.0), neg_level(0.0), pos_level(0.0), pos_level(2.0)]
        for s in diagram(summ, levels):
            assert len(s.members) == sys.n

    def test_doubling_negative_slices_empty(self, f2):
        _, _, summ = f2
        assert len(omega_slice(summ, neg_level(0.5))) == 0

    def test_origin_splits_cleanly(self, f2):
        sys, _, summ = f2
        neg0 = omega_slice(summ, neg_level(0.0))
        np.testing.assert_array_equal(sys.space.coords[neg0, 0], [0.0])
        assert len(omega_slice(summ, neg_level(0.02))) == 0

    def test_unsorted_levels_rejected(self, f2):
        _, _, summ = f2
        with pytest.raises(ValueError):
            diagram(summ, [pos_level(1.0), pos_level(0.5)])

    def test_seam_nesting_on_grids(self, f_half_small):
        _, _, summ = f_half_small
        neg0 = set(omega_slice(summ, neg_level(0.0)).tolist())
        pos0 = set(omega_slice(summ, pos_level(0.0)).tolist())
        assert neg0 <= pos0


class TestStructuralLaws:
    def test_one_step_cover(self, f2):
        sys, mat, _ = f2
        lam = np.diagonal(mat.levels)
        step_cost = np.abs(sys.orbit_coords[:, 0, 0] - sys.space.coords[:, 0])
        assert np.all(lam <= step_cost + 1e-12)

    def test_top_slice_contains_everything(self, f2):
        _, mat, summ = f2
        top = float(np.diagonal(mat.levels).max())
        assert len(omega_slice(summ, pos_level(top))) == summ.m

    def test_negative_branch_shrinks(self, f_rep):
        _, _, summ = f_rep
        sizes = [len(omega_slice(summ, neg_level(m))) for m in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert sizes == sorted(sizes, reverse=True)

    def test_permutation_zero_agreement_and_persistence(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            table = rng.permutation(n)
            raw = rng.uniform(0.1, 2.0, (n, n))
            cost = 0.5 * (raw + raw.T)
            np.fill_diagonal(cost, 0.0)
            sys = build_tabulated_system(table, horizon=2 * n, cost_matrix=cost)
            summ = summarize(level_matrix(sys), zero_tol=0.0)
            assert np.all(summ.lam == 0.0)
            assert np.all(summ.beta == np.inf)
            neg0 = omega_slice(summ, neg_level(0.0))
            pos0 = omega_slice(summ, pos_level(0.0))
            np.testing.assert_array_equal(neg0, pos0)


class TestSummaryBands:
    @pytest.mark.parametrize("band", [1, 7, 256])
    def test_beta_equals_the_whole_matrix_formula(self, monkeypatch, band):
        """beta is reduced over row bands, bit for bit as over the whole (m, m)
        excursion matrix: NaN, inf, ties and both signed zeros included."""
        monkeypatch.setattr(filtration, "SUMMARY_ROWS", band)
        rng = np.random.default_rng(band)
        values = np.array([0.0, -0.0, 0.25, 1.0, 2.0, np.inf, np.nan])
        for m in (1, 2, 17, 300, 600):
            L = np.where(rng.random((m, m)) < 0.5, rng.choice(values, (m, m)),
                         rng.uniform(0.0, 3.0, (m, m)))
            with np.errstate(invalid="ignore"):
                whole = np.where(L.T > L, L, np.inf).min(axis=1)
            want = np.where(np.diagonal(L) <= 1.0, whole, np.nan)
            got = summarize(LevelMatrix(levels=L, targets=np.arange(m), horizon=1), 1.0)
            assert got.beta.tobytes() == want.tobytes()


class TestIntervals:
    def test_merging(self):
        coords = np.arange(0, 10)[:, None] * 0.1
        members = np.array([0, 1, 2, 7, 8])
        ivs = coordinate_intervals(members, coords, 0.1)
        assert len(ivs) == 2
        np.testing.assert_allclose(ivs[0], [0.0, 0.2])
        np.testing.assert_allclose(ivs[1], [0.7, 0.8])

    def test_empty(self):
        assert coordinate_intervals(np.array([], dtype=int), np.zeros((3, 1)), 0.1) == []
