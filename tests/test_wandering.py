import numpy as np
import pytest

from nwfilt.builtins import build_grid_system
from nwfilt.core import build_tabulated_system
from nwfilt.links import level_matrix, link_level
from nwfilt.wandering import certify_point, find_wandering_certificates


@pytest.fixture(scope="module")
def two_point():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    sys = build_tabulated_system([1, 1], horizon=2, cost_matrix=m)
    return sys, level_matrix(sys)


@pytest.fixture(scope="module")
def f2():
    sys = build_grid_system("f2", box=[[-2, 2]], spacing=0.01, horizon=64)
    return sys, level_matrix(sys)


class TestDetector:
    def test_one_way_pair_is_certified(self, two_point):
        sys, mat = two_point
        certs = find_wandering_certificates(mat, 0.5)
        assert len(certs) == 1
        c = certs[0]
        assert (c.x, c.z) == (0, 1)
        assert c.eps == 0.0 and c.gap == 1.0
        lvl, wit = link_level(sys, c.x, c.z)
        assert lvl == wit.level == c.eps

    def test_identity_map_clean(self):
        sys = build_grid_system("identity", box=[[-1, 1]], spacing=0.05, horizon=8)
        assert find_wandering_certificates(level_matrix(sys), 1e-12) == []

    def test_cycle_clean(self):
        m = np.ones((3, 3)) - np.eye(3)
        sys = build_tabulated_system([1, 2, 0], horizon=6, cost_matrix=m)
        assert find_wandering_certificates(level_matrix(sys), 0.1) == []

    def test_permutation_tables_clean(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            table = rng.permutation(n)
            if rng.integers(2):
                raw = rng.uniform(0.1, 2.0, (n, n))
                cost, coords = 0.5 * (raw + raw.T), None
                np.fill_diagonal(cost, 0.0)
            else:
                cost, coords = None, rng.uniform(-1, 1, (n, 2))
            sys = build_tabulated_system(table, horizon=2 * n,
                                         cost_matrix=cost, coords=coords)
            assert find_wandering_certificates(level_matrix(sys), 1e-12) == []

    def test_escape_from_origin_certified(self, f2):
        sys, mat = f2
        certs = find_wandering_certificates(mat, 0.3)
        pairs = {(c.x, c.z): c for c in certs}
        key = (sys.index_of(0.0), sys.index_of(1.0))
        assert key in pairs
        c = pairs[key]
        assert c.eps <= 0.05 and c.gap >= 0.3

    def test_sorted_by_gap_then_indices(self, f2):
        certs = find_wandering_certificates(level_matrix(f2[0]), 0.3, limit=200)
        keys = [(-c.gap, c.x, c.z) for c in certs]
        assert keys == sorted(keys)

    def test_min_gap_must_be_positive(self, two_point):
        for min_gap in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="min_gap"):
                find_wandering_certificates(two_point[1], min_gap)

    def test_infinite_min_gap_reports_only_pairs_that_never_return(self):
        m = np.array([[0.0, 1.0], [np.inf, 0.0]])
        mat = level_matrix(build_tabulated_system([1, 1], horizon=2, cost_matrix=m))
        certs = find_wandering_certificates(mat, np.inf)
        assert [(c.x, c.z, c.eps, c.gap) for c in certs] == [(0, 1, 0.0, np.inf)]

    def test_limit_below_one_rejected(self, two_point):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="limit"):
                find_wandering_certificates(two_point[1], 0.5, limit=limit)

    def test_matches_per_pair_construction_on_a_target_subset(self, f2):
        sys = f2[0]
        mat = level_matrix(sys, targets=range(3, sys.n, 2))
        L, tg = mat.levels, mat.targets
        want = sorted(((-(L[j, i] - L[i, j]), int(tg[i]), int(tg[j]), float(L[i, j]))
                       for i in range(mat.m) for j in range(mat.m)
                       if np.isfinite(L[i, j]) and L[j, i] - L[i, j] >= 0.3))
        certs = find_wandering_certificates(mat, 0.3)
        assert [(-c.gap, c.x, c.z, c.eps) for c in certs] == want
        assert all(type(v) in (int, float) for c in certs for v in (c.x, c.z, c.eps, c.gap))
        assert find_wandering_certificates(mat, 0.3, limit=5) == certs[:5]

    def test_refinement_stability(self):
        coarse_sys = build_grid_system("f2", box=[[-2, 2]], spacing=0.02, horizon=64)
        coarse = level_matrix(coarse_sys)
        top = find_wandering_certificates(coarse, 0.3, limit=1)[0]
        fine_sys = build_grid_system("f2", box=[[-2, 2]], spacing=0.01, horizon=64)
        fine = level_matrix(fine_sys)
        fx = fine_sys.index_of(coarse_sys.space.coords[top.x, 0])
        fz = fine_sys.index_of(coarse_sys.space.coords[top.z, 0])
        eps_f = fine.entry(fx, fz)
        gap_f = fine.entry(fz, fx) - eps_f
        assert abs(eps_f - top.eps) <= 4 * 0.02
        assert abs(gap_f - top.gap) <= 4 * 0.02


class TestCertifyPoint:
    def test_true_when_return_exceeds_probe(self, f2):
        sys, mat = f2
        ok, text = certify_point(mat, sys.index_of(0.0), sys.index_of(1.0), 0.5)
        assert ok and "return level" in text and "h=" in text

    def test_false_on_identity_self_pair(self):
        sys = build_grid_system("identity", box=[[-1, 1]], spacing=0.5, horizon=4)
        mat = level_matrix(sys)
        ok, _ = certify_point(mat, 0, 0, 0.1)
        assert not ok

    def test_probe_below_excursion_rejected(self, two_point):
        _, mat = two_point
        with pytest.raises(ValueError):
            certify_point(mat, 1, 0, 0.5)   # excursion level(b, a) = 1 > 0.5

    def test_false_when_probe_clears_return(self, two_point):
        _, mat = two_point
        ok, _ = certify_point(mat, 1, 0, 1.5)
        assert not ok
