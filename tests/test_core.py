import numpy as np
import pytest
from hypothesis import given, strategies as st

from nwfilt.core import (Branch, CostSpace, ExtendedLevel, ResourceLimitError,
                         build_sampled_system, build_tabulated_system, grid_axis,
                         grid_points, neg_level, points_to_samples_cost, pos_level)


def doubling(pts):
    return 2.0 * pts


class TestExtendedLevel:
    def test_split_origin_order(self):
        assert neg_level(0.0) < pos_level(0.0)

    def test_negative_branch_reversed(self):
        assert neg_level(2.0) < neg_level(1.0)

    def test_infinity_is_maximal(self):
        assert pos_level(1.0) < pos_level(np.inf)
        assert pos_level(np.inf) >= neg_level(np.inf)

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            ExtendedLevel(Branch.POS, -1.0)
        with pytest.raises(ValueError):
            ExtendedLevel(Branch.POS, float("nan"))

    @given(st.lists(st.tuples(st.sampled_from([Branch.NEG, Branch.POS]),
                              st.floats(min_value=0, allow_nan=False)),
                    min_size=2, max_size=6))
    def test_total_order(self, raw):
        levels = [ExtendedLevel(b, m) for b, m in raw]
        for a in levels:
            for b in levels:
                assert (a < b) + (b < a) + (a <= b and b <= a) == 1
                assert (a <= b) == (not b < a)
                for d in levels:
                    if a <= b and b <= d:
                        assert a <= d


class TestGrid:
    def test_three_point_grid_with_raw_images(self):
        sys = build_sampled_system(doubling, [[-1, 1]], 1.0, horizon=4)
        assert sys.n == 3
        np.testing.assert_array_equal(sys.space.coords[:, 0], [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(sys.orbit_coords[:, 0, 0], [-2.0, 0.0, 2.0])

    def test_fixed_point_orbit_repeats(self):
        sys = build_sampled_system(lambda p: 0.5 * p, [[0, 0]], 1.0, horizon=4)
        assert sys.n == 1
        np.testing.assert_array_equal(sys.orbit_coords[0, :, 0], [0.0, 0.0, 0.0, 0.0])

    def test_sample_count_formula(self):
        pts = grid_points([[-5, 5]], 0.01)
        assert len(pts) == int(np.floor(10 / 0.01)) + 1 == 1001

    def test_zero_is_exact_and_grid_symmetric(self):
        ax = grid_axis(-5, 5, 0.01)
        assert ax[500] == 0.0
        np.testing.assert_array_equal(ax, -ax[::-1])

    def test_lexicographic_two_dims(self):
        pts = grid_points([[0, 1], [0, 1]], 1.0)
        np.testing.assert_array_equal(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_deterministic(self):
        a = build_sampled_system(doubling, [[-2, 2]], 0.25, horizon=8)
        b = build_sampled_system(doubling, [[-2, 2]], 0.25, horizon=8)
        np.testing.assert_array_equal(a.space.coords, b.space.coords)
        np.testing.assert_array_equal(a.orbit_coords, b.orbit_coords)

    def test_sample_cap_reports_needed_spacing(self):
        with pytest.raises(ResourceLimitError, match="spacing"):
            grid_points([[-5, 5]], 1e-7)

    def test_cap_is_configurable(self):
        assert len(grid_points([[0, 1]], 0.5, max_samples=3)) == 3
        with pytest.raises(ResourceLimitError):
            grid_points([[0, 1]], 0.5, max_samples=2)


class TestPointsToSamplesCost:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_same_floats_as_the_summed_squares(self, d):
        # the scan kernel, the pair tables and the oracle square and np.sum
        # the differences; every other cost must agree with them bit for bit
        rng = np.random.default_rng(d)
        coords = rng.standard_normal((150, d)) * rng.choice([1e-9, 1.0, 1e9], (150, d))
        pts = rng.standard_normal((140, d)) * rng.choice([1e-9, 1.0, 1e9], (140, d))
        pts[3, 0], pts[5, -1], pts[7] = np.nan, np.inf, coords[2]
        diff = pts[:, None, :] - coords[None, :, :]
        want = np.abs(diff[:, :, 0]) if d == 1 else np.sqrt(np.sum(diff * diff, axis=2))
        space = CostSpace(coords=coords)
        assert points_to_samples_cost(pts, space).tobytes() == want.tobytes()


class TestTabulated:
    def test_orbit_equals_iterated_map(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            table = rng.integers(0, n, size=n)
            sys = build_tabulated_system(table, horizon=2 * n,
                                         cost_matrix=rng.uniform(0.1, 1, (n, n)) * (1 - np.eye(n)))
            for z in range(n):
                cur = z
                for k in range(2 * n):
                    cur = int(table[cur])
                    assert sys.orbit_table[z, k] == cur

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            build_tabulated_system([0, 5], cost_matrix=np.zeros((2, 2)))


class TestValidateCostSpace:
    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            CostSpace(matrix=np.array([[1.0]]))
