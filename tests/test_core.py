import numpy as np
import pytest
from hypothesis import given, strategies as st

from nwfilt import links
from nwfilt.core import (Branch, CostSpace, ExtendedLevel, MapSystem, ResourceLimitError,
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


def special_points(rng, rows, d):
    """Random coordinates from 1e-9 to 1e9 in size, with ±0, ±inf and NaN among them."""
    pts = rng.standard_normal((rows, d)) * rng.choice([1e-9, 1.0, 1e9], (rows, d))
    at = rng.random((rows, d)) < 0.05
    pts[at] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], np.count_nonzero(at))
    return pts


def summed_squares(a, b):
    """The reference cost of every row of a to every row of b: |a - b| in 1-D,
    the squares of the differences summed by np.sum otherwise."""
    diff = a[:, None, :] - b[None, :, :]
    return np.abs(diff[:, :, 0]) if a.shape[1] == 1 else np.sqrt(np.sum(diff * diff, axis=2))


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestPointsToSamplesCost:
    """Every Euclidean cost comes from one kernel (``core.euclid``): each caller
    gives the reference's floats, compared as int64, for 1 to 10 axes."""

    @pytest.fixture(autouse=True)
    def infinite_differences(self):
        # points and samples both hold infinities, so inf - inf is NaN by design
        with np.errstate(invalid="ignore"):
            yield

    @staticmethod
    def coords_and_points(d):
        rng = np.random.default_rng(d)
        coords, pts = special_points(rng, 150, d), special_points(rng, 140, d)
        pts[3, 0], pts[5, -1], pts[7] = np.nan, np.inf, coords[2]
        return coords, pts

    @staticmethod
    def systems(d, horizon=3):
        """A sampled system whose iterates are special points, and a table over
        the same coordinates."""
        coords, pts = TestPointsToSamplesCost.coords_and_points(d)
        orbits = special_points(np.random.default_rng(d + 100), 150 * horizon, d)
        orbits[:140] = pts
        sampled = MapSystem(space=CostSpace(coords=coords), horizon=horizon,
                            orbit_coords=orbits.reshape(150, horizon, d))
        table = build_tabulated_system(np.random.default_rng(d).integers(0, 150, 150),
                                       horizon=horizon, coords=coords)
        return sampled, table

    @staticmethod
    def exit_points(system):
        return (system.space.coords[system.orbit_table] if system.is_tabulated
                else system.orbit_coords)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_same_floats_as_the_summed_squares(self, d):
        coords, pts = self.coords_and_points(d)
        space = CostSpace(coords=coords)
        assert points_to_samples_cost(pts, space).tobytes() == summed_squares(pts, coords).tobytes()

    @pytest.mark.parametrize("d", range(1, 11))
    def test_exit_costs(self, d):
        rng = np.random.default_rng(d)
        for system in self.systems(d):
            zs, ys = rng.integers(0, system.n, 200), rng.integers(0, system.n, 200)
            pts = self.exit_points(system)
            want = [[summed_squares(pts[z, k:k + 1], system.space.coords[y:y + 1])[0, 0]
                     for k in range(system.horizon)] for z, y in zip(zs, ys)]
            assert same_bits(links._exit_costs(system, zs, ys), want)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_cost_table(self, d):
        _, table = self.systems(d)
        cols = np.random.default_rng(d).permutation(table.n)[:70]
        got = links._cost_table(table, cols)
        assert same_bits(got, links.entry_cost_rows(table, cols).T)
        assert same_bits(got, summed_squares(table.space.coords, table.space.coords[cols]))
        matrix = summed_squares(table.space.coords, table.space.coords)
        matrix[np.isnan(matrix)] = np.inf
        np.fill_diagonal(matrix, 0.0)
        costs = build_tabulated_system(table.orbit_table[:, 0], horizon=3, cost_matrix=matrix)
        assert same_bits(links._cost_table(costs, cols), costs.space.matrix[:, cols])

    @pytest.mark.parametrize("d", range(1, 11))
    def test_entry_costs(self, d):
        # pair by pair, broadcast as the strip's certificate reads them
        rng = np.random.default_rng(d)
        _, table = self.systems(d)
        coords = table.space.coords
        matrix = summed_squares(coords, coords)
        matrix[np.isnan(matrix)] = np.inf
        np.fill_diagonal(matrix, 0.0)
        costs = build_tabulated_system(table.orbit_table[:, 0], horizon=3, cost_matrix=matrix)
        xs, zs = rng.integers(0, table.n, 60), rng.integers(0, table.n, (5, 60))
        for system in (table, costs):
            rows = links.entry_cost_rows(system, xs)
            want = rows[np.arange(60), zs]
            assert same_bits(links.entry_costs(system, xs, zs), want)
        ref = summed_squares(coords[xs], coords)[np.arange(60), zs]
        assert same_bits(links.entry_costs(table, xs, zs), ref)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_nearest_exit_costs(self, d):
        coords, pts = self.coords_and_points(d)
        cand = pts[:138].reshape(46, 3, d)
        costs = summed_squares(pts[:138], coords).reshape(46, 3, len(coords))
        want = np.minimum(np.inf, np.stack([c.min(axis=0) for c in costs]))
        assert same_bits(links.nearest_exit_costs(cand, coords), want)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_witness_end_cost(self, d):
        rng = np.random.default_rng(d)
        for system in self.systems(d):
            coords, pts = system.space.coords, self.exit_points(system)
            for x, y in rng.integers(0, system.n, (8, 2)):
                _, wit = links.link_level(system, int(x), int(y))
                end = summed_squares(pts[wit.start_index, wit.steps - 1:wit.steps],
                                     coords[y:y + 1])[0, 0]
                start = summed_squares(coords[x:x + 1], coords[wit.start_index:wit.start_index + 1])
                assert same_bits(wit.end_cost, end)
                assert same_bits(links.recompute_witness_level(system, int(x), int(y), wit),
                                 np.maximum(start[0, 0], end))


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
