import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nwfilt.builtins import (build_builtin_flow, build_grid_system, builtin,
                             builtin_names, counterexample_tail)
from nwfilt.core import (CostSpace, MapSystem, ResourceLimitError, build_sampled_system,
                         build_tabulated_system)
from nwfilt import core, filtration, links
from nwfilt.filtration import level_summary, strip_robustness, summarize
from nwfilt.links import (EntryCostRows, HorizonStabilityReport, LevelMatrix,
                          bottleneck_product, cell_order, entry_cost_rows, exit_min_matrix,
                          horizon_report, horizon_stability, level_matrix, link_level,
                          nearest_exit_costs, recompute_witness_level)


def euclid(a, b):
    """The engine's Euclidean arithmetic: |a - b| in 1-D, sqrt of squared sums
    otherwise (np.linalg.norm can differ in the last bit)."""
    diff = a - b
    return abs(diff[0]) if len(diff) == 1 else np.sqrt(np.sum(diff * diff))


def reached(matrix, x, eps):
    """The samples that x reaches within budget eps: {y : level(x, y) <= eps}."""
    return set(matrix.targets[matrix.levels[matrix.row_of(x)] <= eps].tolist())


def brute_pair_level(system, x, y):
    """Independent per-pair enumeration over every (entry, exit-window step) candidate."""
    best = np.inf
    coords = system.space.coords
    use_matrix = system.space.matrix is not None
    for z in range(system.n):
        if use_matrix:
            entry = system.space.matrix[x, z]
        else:
            entry = euclid(coords[x], coords[z])
        if not use_matrix:
            pts = coords[system.orbit_table[z]] if system.is_tabulated else system.orbit_coords[z]
        for k in range(system.first_step - 1, system.horizon):
            if use_matrix:
                exit_ = system.space.matrix[system.orbit_table[z, k], y]
            else:
                exit_ = euclid(pts[k], coords[y])
            best = min(best, max(entry, exit_))
    return best


def brute_product(D, M):
    """The full (min, max) scan over every entry sample, in index order."""
    out = np.full((D.shape[0], M.shape[1]), np.inf)
    for z in range(D.shape[1]):
        np.minimum(out, np.maximum(D[:, z][:, None], M[z][None, :]), out=out)
    return out


def scan_exit_min(system, cols, half=None):
    """Reference exit minima: the cost of every exit point at steps first_step to
    ``half`` (default: the horizon) to every target, minimized in step order, so
    that a NaN exit point makes its row NaN."""
    window = slice(system.first_step - 1, system.horizon if half is None else half)
    if system.space.matrix is not None:
        return system.space.matrix[system.orbit_table[:, window, None], cols].min(axis=1)
    points = (system.space.coords[system.orbit_table] if system.is_tabulated
              else system.orbit_coords)[:, window]
    targets = system.space.coords[cols]
    out = np.empty((system.n, len(cols)))
    for z, cand in enumerate(points):
        if targets.shape[1] == 1:
            out[z] = np.abs(cand[:, None, 0] - targets[None, :, 0]).min(axis=0)
        else:
            diff = cand[:, None, :] - targets[None, :, :]
            out[z] = np.sqrt(np.sum(diff * diff, axis=2)).min(axis=0)
    return out


def scan_levels(system):
    """Reference level matrix: the full product of the scanned exit minima."""
    tg = np.arange(system.n)
    return brute_product(entry_cost_rows(system, tg), scan_exit_min(system, tg))


def small_builtin(name):
    """A builtin on a small grid; the tail as a 9 x 8 table."""
    kind = builtin(name).kind
    if kind == "map":
        return build_grid_system(name, box=[[-2, 2]], spacing=0.03, horizon=16)
    if kind == "semiflow":
        return build_builtin_flow(name, box=[[-2, 2]], spacing=0.03, dt=0.05,
                                  t_min=0.5, t_max=3.0)
    return counterexample_tail(9, 8)


def product_inputs(name):
    """Entry costs and exit minima of a builtin on a small grid."""
    sys = small_builtin(name)
    tg = np.arange(sys.n)
    return entry_cost_rows(sys, tg), exit_min_matrix(sys, tg)


# (CELL_ROWS, CELL_COLS, BATCH, WINDOW): one-entry cells, partial cells with
# short batches and windows shorter than, equal to and longer than a batch,
# and the defaults.  Small cells run a Python loop per cell, so they run at
# one thread, and one-entry cells only up to ONE_ENTRY_MAX outputs.
SMALL_CELLS = [(1, 1, 1, 1), (3, 5, 2, 3), (16, 12, 8, 5)]
ONE_ENTRY_MAX = 20_000


def assert_product_matches(monkeypatch, D, M, want=None, view=None):
    """The product equals the full scan bit for bit: with small cells, and with
    the default cells at threads 1, 2 and 3.  The product reads M through
    ``view`` when one is given."""
    want = brute_product(D, M).tobytes() if want is None else want
    M = M if view is None else view
    for rows, cols, batch, window in SMALL_CELLS:
        if rows * cols == 1 and D.shape[0] * M.shape[1] > ONE_ENTRY_MAX:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(links, "CELL_ROWS", rows)
            patch.setattr(links, "CELL_COLS", cols)
            patch.setattr(links, "BATCH", batch)
            patch.setattr(links, "WINDOW", window)
            assert bottleneck_product(D, M, 1).tobytes() == want
    for threads in (1, 2, 3):
        assert bottleneck_product(D, M, threads).tobytes() == want


@pytest.fixture(scope="module")
def two_point():
    # a -> b, b -> b with cost(a, b) = cost(b, a) = 1
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    return build_tabulated_system([1, 1], horizon=2, cost_matrix=m)


@pytest.fixture(scope="module")
def three_cycle():
    m = np.ones((3, 3)) - np.eye(3)
    return build_tabulated_system([1, 2, 0], horizon=6, cost_matrix=m)


@pytest.fixture(scope="module")
def f2_small():
    return build_grid_system("f2", box=[[-2, 2]], spacing=0.01, horizon=64)


class TestEnumeratedSystems:
    def test_two_point_matrix(self, two_point):
        L = level_matrix(two_point).levels
        np.testing.assert_array_equal(L, [[1.0, 0.0], [1.0, 0.0]])

    def test_three_cycle_exact_orbit_hits(self, three_cycle):
        L = level_matrix(three_cycle).levels
        np.testing.assert_array_equal(L, np.zeros((3, 3)))

    def test_reachable_examples(self, two_point, three_cycle):
        m3 = level_matrix(three_cycle)
        assert reached(m3, 0, 0.0) == {0, 1, 2}
        m2 = level_matrix(two_point)
        assert reached(m2, 1, 0.5) == {1}
        assert reached(m2, 1, np.inf) == {0, 1}

    def test_engine_matches_brute_force(self, two_point, three_cycle):
        for sys in (two_point, three_cycle):
            L = level_matrix(sys).levels
            for x in range(sys.n):
                for y in range(sys.n):
                    assert L[x, y] == brute_pair_level(sys, x, y)


class TestIdentityGrid:
    def test_midpoint_form(self):
        sys = build_grid_system("identity", box=[[0, 1]], spacing=0.25, horizon=4)
        L = level_matrix(sys).levels
        assert np.all(np.diagonal(L) == 0.0)
        c = sys.space.coords[:, 0]
        for x in range(sys.n):
            for y in range(sys.n):
                want = min(max(abs(c[x] - c[z]), abs(c[z] - c[y])) for z in range(sys.n))
                assert L[x, y] == want


class TestDoublingMap:
    def test_self_link_at_zero(self, f2_small):
        sys = f2_small
        lvl, wit = link_level(sys, sys.index_of(0.0), sys.index_of(0.0))
        assert lvl == 0.0 and wit.start_cost == 0.0 and wit.end_cost == 0.0

    def test_return_level_against_minimax_oracle(self, f2_small):
        # independent brute force on a fine continuum entry grid
        zs = np.linspace(0.0, 1.0, 10001)
        best = np.inf
        for n in range(1, 65):
            with np.errstate(over="ignore"):
                best = min(best, np.max(
                    np.stack([np.abs(1.0 - zs), np.abs((2.0 ** n) * zs)]), axis=0).min())
        assert abs(best - 2.0 / 3.0) < 1e-3
        sys = f2_small
        lvl, wit = link_level(sys, sys.index_of(1.0), sys.index_of(0.0))
        assert abs(lvl - best) <= 2 * 0.01
        assert wit.steps == 1 and abs(sys.space.coords[wit.start_index, 0] - 1 / 3) <= 0.02

    def test_forward_level_shrinks_with_refinement(self, f2_small):
        sys = f2_small
        coarse, _ = link_level(sys, sys.index_of(0.0), sys.index_of(1.0))
        fine_sys = build_grid_system("f2", box=[[-2, 2]], spacing=0.001, horizon=64)
        fine, _ = link_level(fine_sys, fine_sys.index_of(0.0), fine_sys.index_of(1.0))
        assert coarse == brute_pair_level(sys, sys.index_of(0.0), sys.index_of(1.0))
        assert fine < coarse

    def test_monotone_reachability(self, f2_small):
        m = level_matrix(f2_small)
        x = f2_small.index_of(0.5)
        for e1, e2 in [(0.0, 0.1), (0.1, 0.5), (0.5, np.inf)]:
            assert reached(m, x, e1) <= reached(m, x, e2)


class TestOrbitRecovery:
    def test_zero_budget_reaches_exactly_the_orbit(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            table = rng.integers(0, n, size=n)
            cost = rng.uniform(0.1, 2.0, (n, n))
            np.fill_diagonal(cost, 0.0)
            sys = build_tabulated_system(table, horizon=2 * n, cost_matrix=cost)
            m = level_matrix(sys)
            for x in range(n):
                assert reached(m, x, 0.0) == set(sys.orbit_table[x].tolist())


class TestWitnesses:
    def test_witness_reproduces_entry_bit_exact(self, f2_small):
        sys = f2_small
        m = level_matrix(sys)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x, y = rng.integers(0, sys.n, size=2)
            lvl, wit = link_level(sys, int(x), int(y))
            assert lvl == m.levels[x, y]
            assert recompute_witness_level(sys, int(x), int(y), wit) == lvl
            assert wit.level == lvl
            assert 1 <= wit.steps <= sys.horizon

    @pytest.mark.parametrize("first_step", [1, 3])
    def test_witness_outside_the_samples_or_the_window_rejected(self, first_step):
        """A witness must enter at a sample and leave within the exit window,
        and link from a sample to a sample; an index or step count that numpy
        would wrap is rejected, not read."""
        f2 = replace(build_grid_system("f2", box=[[-1, 1]], spacing=0.1, horizon=4),
                     first_step=first_step)
        lvl, wit = link_level(f2, 3, 5)
        assert recompute_witness_level(f2, 3, 5, wit) == lvl
        for z, steps in ((0, first_step), (f2.n - 1, 4)):
            assert recompute_witness_level(f2, 3, 5, replace(wit, start_index=z, steps=steps)) >= lvl
        for z, steps in ((wit.start_index, 0), (wit.start_index, -1), (wit.start_index, 5),
                         (wit.start_index, first_step - 1), (-1, wit.steps), (f2.n, wit.steps)):
            with pytest.raises(ValueError, match="witness"):
                recompute_witness_level(f2, 3, 5, replace(wit, start_index=z, steps=steps))
        for x, y in ((-1, 5), (3, -2), (f2.n, 5), (3, f2.n)):
            with pytest.raises(ValueError, match="are outside"):
                link_level(f2, x, y)
            with pytest.raises(ValueError, match="are outside"):
                recompute_witness_level(f2, x, y, wit)

    def test_tie_break_prefers_small_step_then_small_index(self, three_cycle):
        lvl, wit = link_level(three_cycle, 0, 0)
        assert lvl == 0.0
        # z = 0 reaches itself exactly in 3 steps; no shorter exact link exists
        assert (wit.steps, wit.start_index) == (3, 0)

    @pytest.mark.parametrize("horizon", [1, 3, 4, 6])
    def test_nan_candidates_give_the_scan_level(self, horizon):
        """A NaN iterate makes the level NaN, as the scan's np.minimum does; the
        witness is the first NaN candidate by step count, then entry index, and
        its level and recomputed level stay NaN.  At horizon 1 no iterate is NaN."""
        sys = nan_orbit(horizon)
        scan = scan_levels(sys)
        assert level_matrix(sys).levels.tobytes() == scan.tobytes()
        assert np.isnan(scan).all() == (horizon > 1)
        first_nan = (2, sys.index_of(-0.7))    # -0.7 -> -0.68 -> NaN
        for x in range(sys.n):
            for y in range(sys.n):
                lvl, wit = link_level(sys, x, y)
                assert np.array_equal(lvl, scan[x, y], equal_nan=True)
                assert np.array_equal(wit.level, lvl, equal_nan=True)
                assert np.array_equal(recompute_witness_level(sys, x, y, wit), lvl,
                                      equal_nan=True)
                if horizon > 1:
                    assert np.isnan(wit.end_cost)
                    assert (wit.steps, wit.start_index) == first_nan


class TestDeterminismAndMethods:
    def test_scan_and_indexed_paths_identical(self, f2_small):
        assert level_matrix(f2_small).levels.tobytes() == scan_levels(f2_small).tobytes()

    def test_thread_count_does_not_change_bits(self, f2_small):
        a = level_matrix(f2_small, threads=1)
        b = level_matrix(f2_small, threads=4)
        np.testing.assert_array_equal(a.levels, b.levels)

    def test_target_subset_rows_match_full(self, f2_small):
        full = level_matrix(f2_small)
        sub = level_matrix(f2_small, targets=[0, 100, 400])
        for i, x in enumerate([0, 100, 400]):
            for j, y in enumerate([0, 100, 400]):
                assert sub.levels[i, j] == full.levels[x, y]

    def test_empty_targets_rejected(self, f2_small):
        with pytest.raises(ValueError):
            level_matrix(f2_small, targets=[])


class TestBottleneckProduct:
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtins_bit_identical_to_full_scan(self, monkeypatch, name):
        D, M = product_inputs(name)
        assert_product_matches(monkeypatch, D, M)

    @pytest.mark.parametrize("m", [1, 5, 7, 64, 130])
    def test_random_asymmetric_tables_with_inf(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        for n in (1, 3, 70):
            D = rng.uniform(0.0, 2.0, (m, n))
            M = rng.choice([0.0, 0.5, 1.0, 1.5], (n, m)) + rng.uniform(0.0, 1e-3, (n, m))
            D[rng.random((m, n)) < 0.2] = np.inf
            M[rng.random((n, m)) < 0.3] = np.inf
            assert_product_matches(monkeypatch, D, M)

    def test_nan_entries_are_never_skipped(self, monkeypatch):
        rng = np.random.default_rng(7)
        m, n = 100, 90
        D = rng.uniform(0.0, 1.0, (m, n))
        M = rng.uniform(0.0, 1.0, (n, m))
        D[:, 40] += 5.0        # far entry samples the pruning would skip...
        M[40, 3] = np.nan      # ...unless a NaN forces them in
        D[70, 60] = 9.0
        D[71, 60] = np.nan
        want = brute_product(D, M)
        assert np.isnan(want[:, 3]).all() and np.isnan(want[71]).all()
        assert_product_matches(monkeypatch, D, M, want.tobytes())

    def test_nan_entries_are_never_skipped_in_split_tiles(self, monkeypatch):
        """Banded input, where most cells stop early, with NaN samples that sort
        last by their other costs."""
        rng = np.random.default_rng(8)
        m, n = 300, 260
        x = np.sort(rng.uniform(-1.0, 1.0, m))
        p = rng.uniform(-1.0, 1.0, n)
        D = np.abs(x[:, None] - p[None, :])
        M = np.abs(rng.uniform(-1.0, 1.0, (n, 1)) - x[None, :])
        D[:, 40] += 5.0        # far entry samples the pruning would skip...
        M[40, 290] = np.nan    # ...unless a NaN forces them in
        D[200, 60] = 9.0
        D[201, 60] = np.nan
        M[60:62] += 5.0
        M[61, 7] = np.nan
        M[:16, 5] = np.nan     # a full batch of NaN samples ahead of 60
        want = brute_product(D, M)
        assert np.isnan(want[:, 290]).all() and np.isnan(want[201]).all()
        assert np.isnan(want[:, [5, 7]]).all()
        assert_product_matches(monkeypatch, D, M, want.tobytes())

    @pytest.mark.parametrize("m, n", [(100, 100), (300, 300), (257, 90), (129, 400)])
    def test_partial_blocks_on_both_paths(self, monkeypatch, m, n):
        """Partial cells at the bottom and right edges, on dense input (little
        pruning) and on banded input (much pruning)."""
        rng = np.random.default_rng(m + n)
        dense = (rng.uniform(0.0, 1.0, (m, n)), rng.uniform(0.0, 1.0, (n, m)))
        x = np.sort(rng.uniform(-1.0, 1.0, m))
        p = rng.uniform(-1.0, 1.0, n)
        orbit = p[:, None] * rng.uniform(-2.0, 2.0, (1, 3))
        banded = (np.abs(x[:, None] - p[None, :]),
                  np.abs(orbit[:, :, None] - x[None, None, :]).min(axis=1))
        for D, M in (dense, banded):
            assert_product_matches(monkeypatch, D, M)

    def test_target_subsets_split_and_match(self, monkeypatch):
        f2 = build_grid_system("f2", box=[[-3, 3]], spacing=0.01, horizon=16)
        flow = build_builtin_flow("flow_att", box=[[-2, 2]], spacing=0.01, dt=0.05,
                                  t_min=0.5, t_max=3.0)
        for sys in (f2, flow):
            tg = np.arange(1, sys.n, 2)                 # m = 300 of n = 601 or 401
            assert_product_matches(monkeypatch, entry_cost_rows(sys, tg), exit_min_matrix(sys, tg))

    def test_threads_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads"):
            bottleneck_product(np.zeros((2, 2)), np.zeros((2, 2)), threads=0)

    def test_tabulated_coordinate_exit_min_matches_scan(self):
        """The gather works in blocks of GATHER_ROWS samples; n around the block
        size checks the partial last block."""
        rng = np.random.default_rng(17)
        systems = [counterexample_tail(8, 6)]
        for n in (1, 12, 31, 32, 33, 65):
            for d in (1, 2, 3):
                for horizon in (1, 7):
                    systems.append(build_tabulated_system(
                        rng.integers(0, n, size=n), horizon=horizon,
                        coords=rng.uniform(-1, 1, (n, d))))
        for sys in systems:
            for cols in (np.arange(sys.n), np.array([0, 3, 5]) % sys.n):
                assert exit_min_matrix(sys, cols).tobytes() == scan_exit_min(sys, cols).tobytes()

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("horizon", [1, 7])
    def test_tabulated_cost_matrix_exit_min_matches_full_gather(self, n, horizon):
        rng = np.random.default_rng(n * horizon)
        cost = rng.uniform(0.1, 2.0, (n, n))
        cost[rng.random((n, n)) < 0.3] = np.inf
        np.fill_diagonal(cost, 0.0)
        sys = build_tabulated_system(rng.integers(0, n, size=n), horizon=horizon,
                                     cost_matrix=cost)
        for cols in (np.arange(n), np.array([0, 3, 5]) % n):
            want = cost[:, cols][sys.orbit_table].min(axis=1)
            assert exit_min_matrix(sys, cols).tobytes() == want.tobytes()


def kd_leaves(pts, perm, a, b, rows):
    """Leaves (a, b) of the split tree over positions [a, b) of ``perm``,
    asserting that every split separates its halves along the widest axis."""
    if b - a <= rows:
        return [(a, b)]
    p = pts[perm[a:b]]
    axis = np.argmax(p.max(axis=0) - p.min(axis=0))
    mid = a + (b - a + rows) // (2 * rows) * rows
    assert a < mid < b
    assert pts[perm[a:mid], axis].max() <= pts[perm[mid:b], axis].min()
    return kd_leaves(pts, perm, a, mid, rows) + kd_leaves(pts, perm, mid, b, rows)


class TestCellOrder:
    @pytest.mark.parametrize("m", [1, 31, 32, 33, 100, 257])
    @pytest.mark.parametrize("d", [2, 3])
    def test_leaves_are_row_bands_of_a_kd_split(self, m, d):
        rng = np.random.default_rng(m * d)
        coords = rng.uniform(-1.0, 1.0, (m + 20, d))
        coords[:10] = coords[10:20]                 # duplicate points tie on every axis
        tg = np.sort(rng.choice(m + 20, m, replace=False))
        perm = cell_order(coords, tg)
        np.testing.assert_array_equal(np.sort(perm), np.arange(m))
        leaves = kd_leaves(coords[tg], perm, 0, m, links.CELL_ROWS)
        assert [a for a, _ in leaves] == list(range(0, m, links.CELL_ROWS))
        assert all(b - a <= links.CELL_ROWS for a, b in leaves)

    def test_identity_for_sorted_1d_targets_and_without_coordinates(self):
        coords = np.repeat(np.linspace(-1.0, 1.0, 150), 2)[:, None]   # ties included
        for tg in (np.arange(300), np.arange(0, 300, 7)):
            np.testing.assert_array_equal(cell_order(coords, tg), np.arange(len(tg)))
            np.testing.assert_array_equal(cell_order(None, tg), np.arange(len(tg)))

    def test_two_dimensional_targets_are_reordered(self):
        sys = counterexample_tail(12, 10)
        perm = cell_order(sys.space.coords, np.arange(sys.n))
        assert not np.array_equal(perm, np.arange(sys.n))


class TestLevelMatrixInCellOrder:
    """level_matrix permutes the targets into cell order and back."""

    @staticmethod
    def check(system, targets, pairs, rng):
        tg = np.arange(system.n) if targets is None else np.asarray(targets)
        got = level_matrix(system, targets)
        np.testing.assert_array_equal(got.targets, tg)
        D = entry_cost_rows(system, tg)
        want = brute_product(D, exit_min_matrix(system, tg))
        assert got.levels.tobytes() == want.tobytes()
        for i, j in rng.integers(0, len(tg), size=(pairs, 2)):
            assert got.levels[i, j] == brute_pair_level(system, tg[i], tg[j])
        for threads in (2, 3):
            again = level_matrix(system, targets, threads=threads)
            assert again.levels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_2d_clouds(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n = 90
        sys = build_tabulated_system(rng.integers(0, n, size=n), horizon=5,
                                     coords=rng.uniform(-1.0, 1.0, (n, 2)))
        self.check(sys, None, 60, rng)
        monkeypatch.setattr(links, "CELL_ROWS", 4)
        monkeypatch.setattr(links, "CELL_COLS", 8)
        self.check(sys, None, 60, rng)

    def test_tail_target_subsets(self, monkeypatch):
        rng = np.random.default_rng(4)
        sys = counterexample_tail(10, 8)            # n = 82
        for targets in (None, np.sort(rng.choice(sys.n, 45, replace=False))):
            self.check(sys, targets, 40, rng)
            with monkeypatch.context() as patch:
                patch.setattr(links, "CELL_ROWS", 3)
                patch.setattr(links, "CELL_COLS", 5)
                patch.setattr(links, "BATCH", 2)
                patch.setattr(links, "WINDOW", 3)
                self.check(sys, targets, 20, rng)


def visited_samples(monkeypatch, D, M):
    """The product at the default cells and one thread, with the entry samples
    it visits summed over its cells, counted from the candidate buffers that
    its ``np.maximum(..., out=)`` calls fill."""
    visited = [0]

    class CountingMaximum:
        def __getattr__(self, name):            # np.maximum.reduce and the like
            return getattr(np.maximum, name)

        def __call__(self, a, b, out=None):
            if out is not None:
                visited[0] += out.shape[0]
            return np.maximum(a, b, out=out)

    class CountingNumpy:
        maximum = CountingMaximum()

        def __getattr__(self, name):
            return getattr(np, name)

    with monkeypatch.context() as patch:
        patch.setattr(links, "np", CountingNumpy())
        got = bottleneck_product(D, M, 1)
    return got, visited[0]


class TestWindowFilter:
    """After its first batch, a cell visits only the samples of each window that
    can lower one of its live entries: a NaN entry is final and must not hide
    the live entries of its row or column."""

    @staticmethod
    def nan_row_and_empty_window():
        """One cell of 4 x 5 targets.  Sample 0 has bound -inf (a NaN exit cost)
        and makes column 2 NaN; the 63 samples of bound ~0.1 then set row 0 to
        ~0.1 and rows 1-3 to ~1.  The 200 samples of bound ~0.2 lower nothing
        (row 0 is lower, rows 1-3 pay entry cost 5), so the first window is
        emptied; only the 50 samples of bound ~0.5 lower rows 1-3."""
        rng = np.random.default_rng(11)
        n, f, w, late = 314, slice(1, 64), slice(64, 264), slice(264, 314)
        D, M = np.empty((4, n)), np.empty((n, 5))
        D[:, 0], M[0] = 0.3, 3.0
        M[0, 2] = np.nan
        D[0, f], D[1:, f], M[f] = 0.1, 1.0, 0.1
        D[0, w], D[1:, w], M[w] = 0.2, 5.0, 0.2
        D[:, late], M[late] = 0.5, 0.5
        D += rng.uniform(0.0, 1e-3, D.shape)
        M += rng.uniform(0.0, 1e-3, M.shape)
        perm = rng.permutation(n)                  # bound order is not index order
        return D[:, perm], M[perm]

    def test_nan_entry_does_not_hide_its_row(self, monkeypatch):
        D, M = self.nan_row_and_empty_window()
        want = brute_product(D, M)
        assert np.isnan(want[:, 2]).all()
        finite = np.delete(want, 2, axis=1)
        assert (finite[0] < 0.2).all() and (finite[1:] > 0.5).all() and (finite[1:] < 0.6).all()
        assert_product_matches(monkeypatch, D, M, want.tobytes())
        got, visited = visited_samples(monkeypatch, D, M)
        assert got.tobytes() == want.tobytes()
        assert visited == links.BATCH + 50          # the first batch, then the late samples


def lowered_exit_min(system, cols):
    """The exit minima of the half window (steps first_step..h2), then the same
    array lowered in place over steps h2 + 1..horizon (none when h2 is the
    horizon): exit_min_bands over one band of every target."""
    (half, first), (full, last) = [(M.copy(), M) for _, _, M in links.exit_min_bands(
        system, cols, len(cols), horizon_check=True)]
    assert first is last
    return half, full


class TestTwoHorizonExitMin:
    """The reduced window's exit minima, lowered in place over the rest of the
    window by exit_min_bands, are the whole window's; each result equals the
    scanned exit minima bit for bit."""

    @staticmethod
    def check(system):
        h2 = half_horizon(system).horizon
        for cols in (np.arange(system.n), np.array([0, 3, 5]) % system.n):
            got_half, got_full = lowered_exit_min(system, cols)
            assert got_half.tobytes() == scan_exit_min(system, cols, h2).tobytes()
            assert got_full.tobytes() == exit_min_matrix(system, cols).tobytes()
            assert got_full.tobytes() == scan_exit_min(system, cols).tobytes()

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("horizon", [1, 2, 7, 62])
    def test_coordinate_and_cost_tables(self, n, horizon):
        for d in (1, 2):
            self.check(coordinate_table(n, d, horizon, seed=n + horizon + d))
        self.check(cost_table(n, horizon, seed=n * horizon))

    @pytest.mark.parametrize("horizon", [1, 2, 7, 62])
    def test_sampled_grids(self, horizon):
        line = build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=horizon)
        self.check(line)
        plane = build_sampled_system(
            lambda p: np.stack([np.sin(2.0 * p[:, 1]), 0.8 * p[:, 0]], axis=1),
            box=[[-1, 1], [-1, 1]], spacing=0.25, horizon=horizon)
        self.check(plane)

    def test_nan_iterates_are_not_merged_across_the_split(self):
        """Orbits that turn NaN late: the half-horizon row stays finite and the
        full-horizon row is NaN, as the scan gives, though the NaN sorts last."""
        system = build_sampled_system(lambda x: np.where(np.abs(x) < 0.15, np.nan, 0.5 * x),
                                      box=[[-2, 2]], spacing=0.1, horizon=8)
        assert np.isnan(system.orbit_coords[:, 4:]).any()
        self.check(system)
        half, full = lowered_exit_min(system, np.arange(system.n))
        early = np.isnan(system.orbit_coords[:, :4, 0]).any(axis=1)
        late = np.isnan(system.orbit_coords[:, 4:, 0]).any(axis=1)
        assert (late & ~early).any()
        assert np.isnan(full[late]).all() and not np.isnan(half[~early]).any()


    @pytest.mark.parametrize("horizon", [1, 2, 5, 8])
    def test_indexed_ends(self, horizon):
        """Horizon 1 leaves one iterate per prefix, and some targets lie below or
        above every iterate: the padded ends select the scan's floats.  With NaN
        iterates (sorted last) each row holding one is NaN, as in the scan.  The
        prefix's minima are lowered in place by the remaining iterates."""
        rng = np.random.default_rng(horizon)
        cand = rng.uniform(-1.0, 1.0, (40, horizon, 1))
        t = np.concatenate([[-5.0, -1.0, 1.0, 5.0], cand[:4, 0, 0],
                            rng.uniform(-1.5, 1.5, 20)])
        half = max(1, horizon // 2)
        for nan in (False, True):
            if nan:
                cand[::3, rng.integers(0, horizon)] = np.nan
                cand[5] = np.nan
                cand[7, horizon // 2:] = np.nan
            got = nearest_exit_costs(cand[:, :half], t[:, None])
            for k in (half, horizon):
                if k > half:
                    assert nearest_exit_costs(cand[:, half:], t[:, None], got) is got
                want = np.abs(cand[:, :k, 0, None] - t[None, None, :]).min(axis=1)
                assert got.tobytes() == want.tobytes()


class TestEntryCostRows:
    """The row view of the entry costs: D[rows] is entry_cost_rows(system, cols)[rows]."""

    @staticmethod
    def bands(m):
        # whole, 32-row bands, and slices that cross COST_ROW_CHUNK boundaries
        chunk = core.COST_ROW_CHUNK
        return ([slice(None), slice(chunk - 5, chunk + 5), slice(chunk - 1, 2 * chunk + 1),
                 slice(m - 3, m + 10)] + [slice(a, a + 32) for a in range(0, m, 32)])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_equal_the_whole_block(self, d):
        system = coordinate_table(150, d, 2, seed=d)
        cols = np.random.default_rng(d).permutation(150)[:141]
        view, whole = EntryCostRows(system, cols), entry_cost_rows(system, cols)
        assert view.shape == whole.shape
        for rows in self.bands(len(cols)):
            assert view[rows].tobytes() == whole[rows].tobytes()

    def test_cost_tables_and_flows(self):
        flow = build_builtin_flow("flow_att", box=[[-2, 2]], spacing=0.03, dt=0.05,
                                  t_min=0.5, t_max=1.0)
        for system in (cost_table(140, 2, 0), flow):
            cols = np.arange(system.n)[::-1]
            whole = entry_cost_rows(system, cols)
            for rows in self.bands(len(cols)):
                assert EntryCostRows(system, cols)[rows].tobytes() == whole[rows].tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_product_of_the_view(self, d):
        system = coordinate_table(100, d, 4, seed=d + 10)
        cols = np.arange(100)
        M = exit_min_matrix(system, cols)
        want = bottleneck_product(entry_cost_rows(system, cols), M).tobytes()
        for threads in (1, 2, 3):
            assert bottleneck_product(EntryCostRows(system, cols), M, threads).tobytes() == want


def traced_peak(fn) -> int:
    """Bytes that ``fn()`` allocates at its peak, above what was held before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestLevelMatrixMemory:
    """A level matrix over m = n targets holds the exit minima and the levels
    but never the whole (m, n) entry costs: the call's traced peak stays below
    2.6 (m, n) float arrays, where holding D as well takes more than 3.  The
    horizon check (horizon_stability) stays under the same bound: beside the
    levels it holds one band of exit minima, its copy and the band's moved
    columns of levels."""

    BOUND = 2.6

    @pytest.mark.parametrize("horizon_check", [False, True])
    def test_map(self, horizon_check):
        system = build_grid_system("f2", box=[[-5, 5]], spacing=0.01, horizon=64)
        peak = traced_peak(lambda: (horizon_stability if horizon_check else level_matrix)(system))
        assert peak < self.BOUND * 8 * system.n ** 2

    def test_flow(self):
        system = build_builtin_flow("flow_att", box=[[-3, 3]], spacing=0.005, dt=0.01,
                                    t_min=1.0, t_max=20.0)
        peak = traced_peak(lambda: level_matrix(system))
        assert peak < self.BOUND * 8 * system.n ** 2

    def test_coordinate_table(self):
        # the tabulated gather builds its cost table in chunks and frees each
        # before the product
        system = coordinate_table(1000, 2, 8, seed=3)
        peak = traced_peak(lambda: level_matrix(system))
        assert peak < self.BOUND * 8 * system.n ** 2
        peak = traced_peak(lambda: horizon_stability(system))
        assert peak < (self.BOUND + 1) * 8 * system.n ** 2


class TestLevelSummaryMemory:
    """level_summary holds one band of exit minima, (n, 256) here, lowered in
    place from the reduced window to the whole one, never the (n, m) array.
    Beside it: the sorted exit windows in 1-D (n x (K + 2)), or the band's
    cost table for a tabulated gather (n, 256), and one product cell's
    buffer.  Holding the whole (n, m) array instead, the map reads 1.24 and
    the coordinate table 2.15.  When one band covers every target, as on
    the flow, the pass holds the whole exit minima and the rows L[G, :] and
    one column chunk of its returns, never an (m, m) array, however many
    samples pass the gate."""

    def test_map(self):
        system = build_grid_system("f2", box=[[-5, 5]], spacing=0.01, horizon=64)
        peak = traced_peak(lambda: level_summary(system, 2 * system.spacing,
                                                 horizon_check=True))
        assert peak < 0.6 * 8 * system.n ** 2

    def test_coordinate_table(self):
        system = coordinate_table(1000, 2, 8, seed=3)
        peak = traced_peak(lambda: level_summary(system, 0.0, horizon_check=True))
        assert peak < 0.75 * 8 * system.n ** 2

    def test_one_band_table(self):
        # K >= n, so one band holds every target, and every sample passes the
        # gate: the whole exit minima beside the (m, m) rows L[G, :].  The
        # gather's cost table is built one (n, 256) chunk at a time and freed
        # before the product runs; holding the whole (n, m) table beside the
        # rows reads 3.76, building it whole and freeing it reads 2.76.
        system = coordinate_table(500, 2, 500, seed=4)
        peak = traced_peak(lambda: level_summary(system, np.inf, horizon_check=True))
        assert peak < 2.77 * 8 * system.n ** 2

    def test_flow(self):
        # 605 of 1201 samples pass the gate; with an (m, m) product the peak is 2.18
        system = build_builtin_flow("flow_att", box=[[-3, 3]], spacing=0.005, dt=0.01,
                                    t_min=1.0, t_max=20.0)
        zero_tol = 2 * system.spacing
        peak = traced_peak(lambda: level_summary(system, zero_tol))
        assert np.count_nonzero(level_summary(system, zero_tol).lam <= zero_tol) == 605
        assert peak < 1.9 * 8 * system.n ** 2


class TestInfiniteCosts:
    def test_inf_is_absorbing_under_max(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        sys = build_tabulated_system([0, 1], horizon=2, cost_matrix=m)
        L = level_matrix(sys).levels
        np.testing.assert_array_equal(L, [[0.0, np.inf], [np.inf, 0.0]])


class TestHorizonStability:
    def test_periodic_tables_are_stable_at_double_length(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            table = rng.permutation(n)
            cost = rng.uniform(0.1, 2.0, (n, n))
            np.fill_diagonal(cost, 0.0)
            sys = build_tabulated_system(table, horizon=4 * n, cost_matrix=cost)
            rep = horizon_stability(sys)
            assert rep.stable

    def test_matches_the_whole_half_horizon_matrix(self, f2_small):
        sys = build_tabulated_system([1, 2, 3, 0], horizon=2,
                                     cost_matrix=np.ones((4, 4)) - np.eye(4))
        for system in (f2_small, sys):
            assert horizon_stability(system) == whole_half_report(system, level_matrix(system))

    def test_pairs_unreachable_at_both_horizons_are_unchanged(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        sys = build_tabulated_system([0, 1], horizon=4, cost_matrix=m)
        with np.errstate(all="raise"):
            rep = horizon_stability(sys)
        assert rep.stable and rep.max_change == 0.0

    def test_pair_reachable_only_at_full_horizon_changes_by_inf(self):
        m = np.where(np.eye(3, dtype=bool), 0.0, np.inf)
        sys = build_tabulated_system([1, 2, 0], horizon=2, cost_matrix=m)
        rep = horizon_stability(sys)
        # 0 -> 2 and 1 -> 0, 2 -> 1 need two steps; nothing else can move
        assert rep.changed_pairs == 3 and rep.max_change == np.inf

    def test_short_horizon_is_flagged(self):
        # a 4-cycle seen with horizon 2 cannot close up
        m = np.ones((4, 4)) - np.eye(4)
        sys = build_tabulated_system([1, 2, 3, 0], horizon=2, cost_matrix=m)
        rep = horizon_stability(sys)
        assert not rep.stable and rep.changed_pairs > 0


def half_horizon(system):
    """The system cut to the first half of its exit window, at least one step."""
    h2 = system.first_step - 1 + max(1, (system.horizon - system.first_step + 1) // 2)
    if system.is_tabulated:
        return replace(system, horizon=h2, orbit_table=system.orbit_table[:, :h2])
    return replace(system, horizon=h2, orbit_coords=system.orbit_coords[:, :h2])


def whole_half_report(system, full):
    """The reference check: the whole half-horizon matrix, compared in full."""
    half_sys = half_horizon(system)
    half = level_matrix(half_sys, full.targets).levels
    changed = half != full.levels
    diff = np.abs(half[changed] - full.levels[changed])
    diff = diff[~np.isnan(diff)]
    return HorizonStabilityReport(system.horizon, half_sys.horizon,
                                  int(np.count_nonzero(changed)),
                                  float(diff.max()) if diff.size else 0.0)


def moved_share(system, tg):
    """Share of target columns whose exit minima differ, bit for bit, at half the horizon."""
    return float(np.mean((exit_min_matrix(system, tg).view(np.int64)
                          != exit_min_matrix(half_horizon(system), tg).view(np.int64)).any(axis=0)))


def cost_table(n, horizon, seed, cycle=False):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.1, 2.0, (n, n))
    cost[rng.random((n, n)) < 0.3] = np.inf
    np.fill_diagonal(cost, 0.0)
    step = np.roll(np.arange(n), -1) if cycle else rng.integers(0, n, size=n)
    return build_tabulated_system(step, horizon=horizon, cost_matrix=cost)


def coordinate_table(n, d, horizon, seed):
    rng = np.random.default_rng(seed)
    return build_tabulated_system(rng.integers(0, n, size=n), horizon=horizon,
                                  coords=rng.uniform(-1.0, 1.0, (n, d)))


def points_and_cost_table(n, d, horizon, seed):
    """A table with points whose cost matrix is not their distance: it is the
    distance between the same points in another order, so a small cost
    D[j, z] says nothing about how far apart the points j and z are."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, d))
    other = pts[rng.permutation(n)]
    cost = np.sqrt(np.sum((other[:, None, :] - other[None, :, :]) ** 2, axis=2))
    return build_tabulated_system(rng.integers(0, n, size=n), horizon=horizon, coords=pts,
                                  cost_matrix=cost)


def nan_orbit(horizon):
    """x -> -x on a grid, except that x = -0.7 steps off the grid to -0.68,
    whose next iterate is NaN: from horizon 2 on, every level is NaN.  The
    sample 0.7 meets the NaN at step 3, so at horizons 4 and 5 its exit minima
    are finite only at half the horizon; at horizon 6 no exit minimum moves.
    At horizons 2 and 3 the reduced window (one step) gates -0.7 at 0.05
    through its own first iterate, and no other pair within 0.05 does."""
    return build_sampled_system(
        lambda x: np.where(np.abs(x + 0.7) < 1e-6, -0.68,
                           np.where(np.abs(x + 0.68) < 1e-6, np.nan, -x)),
        box=[[-1, 1]], spacing=0.1, horizon=horizon)


TAIL_SUBSET = np.sort(np.random.default_rng(4).choice(82, 45, replace=False))  # of tail(10, 8)

# (system, targets, share of moved columns: "none", "some" or "all")
MOVED_CASES = {
    "f2": (lambda: build_grid_system("f2", box=[[-2, 2]], spacing=0.01, horizon=64),
           None, "none"),
    "f2_h1": (lambda: build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=1),
              None, "none"),
    "f2_h3": (lambda: build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=3),
              None, "some"),
    "f2_h2_subset": (lambda: build_grid_system("f2", box=[[-2, 2]], spacing=0.02, horizon=2),
                     np.arange(3, 201, 4), "some"),
    "tail": (lambda: counterexample_tail(10, 8), None, "some"),
    "tail_subset": (lambda: counterexample_tail(10, 8), TAIL_SUBSET, "some"),
    "tail_h1_subset": (lambda: counterexample_tail(10, 8, horizon=1), TAIL_SUBSET, "none"),
    "tail_h5_subset": (lambda: counterexample_tail(10, 8, horizon=5), TAIL_SUBSET, "all"),
    "cycle_inf_h12": (lambda: cost_table(12, 12, 0, cycle=True), None, "all"),
    "cycle_inf_h31": (lambda: cost_table(40, 31, 1, cycle=True), None, "all"),
    "nan_orbit_h3": (lambda: nan_orbit(3), None, "all"),
    "nan_orbit_h4": (lambda: nan_orbit(4), None, "all"),
    "nan_orbit_h6": (lambda: nan_orbit(6), None, "none"),
    "nan_f2_h3": (lambda: build_sampled_system(
        lambda x: np.where(np.abs(x + 0.95) < 1e-6, np.nan, 2.0 * x),
        box=[[-2, 2]], spacing=0.05, horizon=3), None, "some"),
    "tail_window": (lambda: replace(counterexample_tail(10, 8), first_step=3), None, "some"),
}


class TestHorizonMovedColumns:
    """horizon_report recomputes, band by band, only the columns whose exit
    minima moved, and compares them with the full-horizon levels; its report
    and horizon_stability's equal that of the whole half-horizon matrix."""

    @staticmethod
    def check(monkeypatch, system, targets):
        full = level_matrix(system, targets)
        want = whole_half_report(system, full)

        def assert_report(threads):
            assert horizon_stability(system, targets, threads) == want
            assert horizon_report(system, full, threads) == want

        for threads in (1, 2, 3):
            assert_report(threads)
        for batch, window in ((1, 2), (2, 1)):
            with monkeypatch.context() as patch:
                patch.setattr(links, "BATCH", batch)
                patch.setattr(links, "WINDOW", window)
                assert_report(1)
        return want

    @pytest.mark.parametrize("case", sorted(MOVED_CASES))
    def test_builtins_and_cost_tables(self, monkeypatch, case):
        build, targets, share = MOVED_CASES[case]
        system = build()
        tg = np.arange(system.n) if targets is None else targets
        got = moved_share(system, tg)
        assert {"none": got == 0.0, "some": 0.0 < got < 1.0, "all": got == 1.0}[share]
        self.check(monkeypatch, system, targets)

    @pytest.mark.parametrize("horizon", [1, 2, 5, 7, 31])
    @pytest.mark.parametrize("d", [2, 3])
    def test_random_coordinate_tables(self, monkeypatch, horizon, d):
        system = coordinate_table(90, d, horizon, seed=horizon * d)
        self.check(monkeypatch, system, None)
        self.check(monkeypatch, system, np.arange(0, 90, 3))
        monkeypatch.setattr(links, "CELL_ROWS", 4)
        monkeypatch.setattr(links, "CELL_COLS", 8)
        self.check(monkeypatch, system, None)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 8, 31])
    def test_random_cost_tables_with_inf(self, monkeypatch, horizon):
        for seed in range(3):
            system = cost_table(40, horizon, seed)
            self.check(monkeypatch, system, None)
            self.check(monkeypatch, system, [1, 4, 9, 16, 25, 36])

    def test_level_arrays_priced_before_allocation(self, monkeypatch, f2_small):
        """D and M are (m, n) and the levels (m, m): their bytes are priced
        against core.MAX_MATRIX_BYTES.  The horizon check lowers its exit
        minima in place, so it is priced like the pass without it."""
        tg = np.arange(0, f2_small.n, 8)
        m, n = len(tg), f2_small.n
        price = 8 * m * (2 * n + m)
        monkeypatch.setattr(core, "MAX_MATRIX_BYTES", price - 1)
        with pytest.raises(ResourceLimitError, match="coarser grid"):
            level_matrix(f2_small, tg)
        monkeypatch.setattr(core, "MAX_MATRIX_BYTES", price)
        level_matrix(f2_small, tg)
        monkeypatch.setattr(core, "MAX_MATRIX_BYTES", 8 * n * (2 * n + n) - 1)
        with pytest.raises(ResourceLimitError, match="coarser grid"):
            level_summary(f2_small, 0.02, horizon_check=True)
        monkeypatch.setattr(core, "MAX_MATRIX_BYTES", 8 * n * (2 * n + n))
        level_summary(f2_small, 0.02, horizon_check=True)


def window_systems(first_step):
    """Tables, grids and a plane whose links leave at steps first_step..7."""
    plane = build_sampled_system(
        lambda p: np.stack([np.sin(2.0 * p[:, 1]), 0.8 * p[:, 0]], axis=1),
        box=[[-1, 1], [-1, 1]], spacing=0.25, horizon=7)
    systems = [cost_table(40, 7, seed=first_step), coordinate_table(50, 1, 7, seed=first_step),
               coordinate_table(50, 2, 7, seed=first_step + 10),
               counterexample_tail(8, 6, horizon=7),
               build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=7), plane]
    return [replace(s, first_step=first_step) for s in systems]


class TestExitWindow:
    """Links that leave at steps first_step..horizon: the exit minima, the levels,
    the witnesses and the horizon check all skip the steps before the window."""

    @pytest.mark.parametrize("first_step", [2, 3])
    def test_levels_witnesses_and_horizon_check(self, monkeypatch, first_step):
        rng = np.random.default_rng(first_step)
        for system in window_systems(first_step):
            TestTwoHorizonExitMin.check(system)
            want = scan_levels(system)
            for threads in (1, 2, 3):
                assert level_matrix(system, threads=threads).levels.tobytes() == want.tobytes()
            for x, y in rng.integers(0, system.n, size=(15, 2)):
                lvl, wit = link_level(system, int(x), int(y))
                assert lvl == want[x, y] == brute_pair_level(system, x, y)
                assert first_step <= wit.steps <= system.horizon
                assert recompute_witness_level(system, int(x), int(y), wit) == lvl
            TestHorizonMovedColumns.check(monkeypatch, system, None)

    def test_window_moves_the_levels(self):
        f2 = build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=7)
        one, three = level_matrix(f2).levels, level_matrix(replace(f2, first_step=3)).levels
        assert (three >= one).all() and (three > one).any()

    @pytest.mark.parametrize("first_step", [0, 8])
    def test_window_must_fit_the_horizon(self, first_step):
        f2 = build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=7)
        with pytest.raises(ValueError, match="first_step"):
            replace(f2, first_step=first_step)


def nan_iterates(n, d, horizon, first_step, seed):
    """Random raw orbits with one NaN iterate in each of a few rows: before the
    exit window, in its first half or only in its second."""
    rng = np.random.default_rng(seed)
    orbits = rng.uniform(-1.5, 1.5, (n, horizon, d))
    for z in rng.choice(n, 5, replace=False):
        orbits[z, rng.integers(0, horizon), rng.integers(0, d)] = np.nan
    return MapSystem(space=CostSpace(coords=rng.uniform(-1.0, 1.0, (n, d))), horizon=horizon,
                     orbit_coords=orbits, first_step=first_step)


class TestNanIterates:
    """One NaN rule: a NaN exit point makes its row of exit minima NaN, and so
    every level, in level_matrix, link_level and the scan alike."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("first_step", [1, 2, 3])
    def test_random_tables(self, d, first_step):
        for seed in range(4):
            system = nan_iterates(30, d, 6, first_step, seed=seed + 10 * d)
            TestTwoHorizonExitMin.check(system)
            want = scan_levels(system)
            assert level_matrix(system).levels.tobytes() == want.tobytes()
            nan = np.isnan(system.orbit_coords[:, first_step - 1:]).any(axis=2)
            assert nan.any() and np.isnan(want).all()
            steps, starts = np.nonzero(nan.T)           # step-major: the witness order
            for x in range(0, system.n, 7):
                for y in range(system.n):
                    lvl, wit = link_level(system, x, y)
                    assert np.isnan(lvl)
                    assert (wit.steps, wit.start_index) == (steps[0] + first_step, starts[0])


# (system, zero gates): builtins, random tables with inf costs and 2-D and 3-D
# coordinate tables, NaN iterates, and exit windows starting at steps 2 and 3.
# A gate of -inf passes no sample and one of inf every sample with a number.
GATED_CASES = {
    **{name: (lambda name=name: small_builtin(name), (0.0, 0.06)) for name in builtin_names()},
    **{f"cost_table_h{h}_s{seed}": (lambda h=h, seed=seed: cost_table(40, h, seed), (0.0, 0.5))
       for h in (1, 3, 8) for seed in range(2)},
    "cycle_inf_h12": (lambda: cost_table(12, 12, 0, cycle=True), (0.0,)),
    **{f"coordinate_table_d{d}": (lambda d=d: coordinate_table(90, d, 5, seed=d), (0.0, 0.2))
       for d in (2, 3)},
    **{f"points_and_cost_d{d}": (lambda d=d: points_and_cost_table(40, d, 3, seed=d), (0.0, 0.2))
       for d in (1, 2)},
    **{f"nan_orbit_h{h}": (lambda h=h: nan_orbit(h), (0.0, 0.05, 0.2)) for h in range(1, 7)},
    **{f"window_{fs}_{i}": (lambda fs=fs, i=i: window_systems(fs)[i], (0.0, 0.1))
       for fs in (2, 3) for i in range(6)},
}


def assert_same_levels(got, want):
    """lam and beta equal bit for bit, compared as int64 views, NaN included."""
    assert np.array_equal(got.targets, want.targets)
    assert np.array_equal(got.lam.view(np.int64), want.lam.view(np.int64))
    assert np.array_equal(got.beta.view(np.int64), want.beta.view(np.int64))


class TestLevelSummary:
    """filtration.level_summary reads lam off the product's diagonal and beta off
    the gated rows and the complement block, one column chunk at a time, from
    the whole exit minima or from bands of them after the pre-gate: the same
    floats as summarize(level_matrix(...)), at the full and the half horizon,
    whatever the size of the gate."""

    @pytest.mark.parametrize("case", sorted(GATED_CASES))
    def test_equals_the_whole_matrix_summary(self, case):
        build, gates = GATED_CASES[case]
        system = build()
        full, half = level_matrix(system), level_matrix(half_horizon(system))
        for zero_tol in (-np.inf, *gates, np.inf):
            want, want_half = summarize(full, zero_tol), summarize(half, zero_tol)
            for threads in (1, 2, 3):
                assert_same_levels(level_summary(system, zero_tol, threads), want)
                got, got_half = level_summary(system, zero_tol, threads, horizon_check=True)
                assert_same_levels(got, want)
                assert_same_levels(got_half, want_half)

    @pytest.mark.parametrize("case", ["counterexample_tail", "f2", "identity", "flow_att",
                                      "cost_table_h3_s0", "coordinate_table_d2", "nan_orbit_h1"])
    def test_strips_on_both_sides_of_the_switch(self, case):
        """strip_robustness gives beta for any gate, on the whole exit minima in
        cell order: the rows L[G, :] and the block L[Gᶜ, G], with at most and
        with more than half of the samples gated (both are one path)."""
        build, gates = GATED_CASES[case]
        system = build()
        tg, perm = links.priced_targets(system)
        cols = tg[perm]
        D, M = EntryCostRows(system, cols), exit_min_matrix(system, cols)
        L = level_matrix(system).levels[np.ix_(perm, perm)]      # in cell order
        sides = set()
        for zero_tol in (-np.inf, *gates, np.inf):
            gated = np.diagonal(L) <= zero_tol
            sides.add(2 * np.count_nonzero(gated) <= len(gated))
            want = summarize(LevelMatrix(levels=L, targets=np.arange(len(L)), horizon=1),
                             zero_tol).beta
            for threads in (1, 2, 3):
                got = strip_robustness(D, M, gated, threads)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert sides == {True, False}

    @pytest.mark.parametrize("strip_cols", [1, 3, 64])
    @pytest.mark.parametrize("case", sorted(GATED_CASES))
    def test_any_column_chunk(self, case, strip_cols, monkeypatch):
        """Gates from none to every sample (the complement empty), chunks of
        one, three and 64 gated columns, and 1 to 3 threads: the floats of the
        whole matrix's summary, compared as int64 views."""
        monkeypatch.setattr(filtration, "STRIP_COLS", strip_cols)
        build, gates = GATED_CASES[case]
        system = build()
        full = level_matrix(system)
        for zero_tol in (-np.inf, *gates, np.inf):
            want = summarize(full, zero_tol)
            for threads in (1, 2, 3):
                assert_same_levels(level_summary(system, zero_tol, threads), want)

    @pytest.mark.parametrize("band_cols", [1, 31, 32, 33, 64])
    @pytest.mark.parametrize("case", sorted(GATED_CASES))
    def test_any_band_width(self, case, band_cols, monkeypatch):
        """Exit minima in bands of max(band_cols, K) columns, so every case but
        the 12-cycle runs the pre-gate and the banded pass: gates from none to
        every sample, 1 to 3 threads, with and without the horizon check; the
        floats of the whole matrices' summaries, compared as int64 views."""
        monkeypatch.setattr(links, "BAND_COLS", band_cols)
        build, gates = GATED_CASES[case]
        system = build()
        full, half = level_matrix(system), level_matrix(half_horizon(system))
        for zero_tol in (-np.inf, *gates, np.inf):
            want, want_half = summarize(full, zero_tol), summarize(half, zero_tol)
            for threads in (1, 2, 3):
                assert_same_levels(level_summary(system, zero_tol, threads), want)
                got, got_half = level_summary(system, zero_tol, threads, horizon_check=True)
                assert_same_levels(got, want)
                assert_same_levels(got_half, want_half)

    # one-entry cells run a Python loop per entry: they skip the 134-sample
    # builtins (the NaN orbits and the windowed f2 take the 1-D pass) and run
    # at one thread
    @pytest.mark.parametrize("case, cells", [
        (case, cells) for cells in (1, 31, 32, 33, 64) for case in sorted(GATED_CASES)
        if cells > 1 or case not in builtin_names()])
    def test_any_cell_width(self, case, cells, monkeypatch):
        """Product cells of 1, 31, 32, 33 and 64 targets a side, so the 1-D
        pass's diagonal cells cut lam differently: gates from none to every
        sample, 1 to 3 threads, with and without the horizon check; the floats
        of the whole matrices' summaries at the default cells, as int64 views."""
        build, gates = GATED_CASES[case]
        system = build()
        full, half = level_matrix(system), level_matrix(half_horizon(system))
        monkeypatch.setattr(links, "CELL_ROWS", cells)
        monkeypatch.setattr(links, "CELL_COLS", cells)
        for zero_tol in (-np.inf, *gates, np.inf):
            want, want_half = summarize(full, zero_tol), summarize(half, zero_tol)
            for threads in (1,) if cells == 1 else (1, 2, 3):
                assert_same_levels(level_summary(system, zero_tol, threads), want)
                got, got_half = level_summary(system, zero_tol, threads, horizon_check=True)
                assert_same_levels(got, want)
                assert_same_levels(got_half, want_half)

    def test_empty_and_full_gate(self):
        ident = build_grid_system("identity", box=[[-1, 1]], spacing=0.1, horizon=3)
        assert np.all(level_summary(ident, 0.0).beta == np.inf)       # every sample gated
        cost = np.ones((3, 3)) - np.eye(3)
        cycle = build_tabulated_system([1, 2, 0], horizon=2, cost_matrix=cost)
        assert np.all(np.isnan(level_summary(cycle, 0.0).beta))       # none gated


def sorted_kernel(points, t):
    """The sorted 1-D kernel on whole windows: each row of ``points`` sorted and
    padded with its own ends, ``nearest_sorted_costs`` to the targets ``t``,
    and the rows with a NaN point NaN."""
    s = np.sort(points, axis=1)
    out = links.nearest_sorted_costs(np.concatenate((s[:, :1], s, s[:, -1:]), axis=1), t,
                                     np.full((len(s), len(t)), np.inf))
    out[np.isnan(s[:, -1])] = np.nan
    return out


def thinned_reference(points, targets):
    """Each row sorted; of each run of points that searchsorted puts between the
    same two sorted targets, its first and its last point (one point for a
    run of one); padded before with the row's first point and after with its
    last, to the longest row's count plus two."""
    ts = np.sort(targets)
    rows = []
    for s in np.sort(points, axis=1):
        seg = np.searchsorted(ts, s, side="right")
        rows.append([x for k, x in enumerate(s)
                     if k in (0, len(s) - 1) or seg[k - 1] != seg[k] or seg[k] != seg[k + 1]])
    width = max(map(len, rows)) + 2
    return np.array([[r[0], *r, *[r[-1]] * (width - 1 - len(r))] for r in rows])


def dense(view):
    """Every exit minimum of a view, block by block."""
    zs = np.arange(view.shape[0])
    return np.concatenate([view.block(zs, a) for a in range(0, view.shape[1], links.CELL_COLS)],
                          axis=1)


def assert_view_is_the_kernel(view, points, t):
    """The view's blocks are the sorted kernel's floats, as int64 views, and each
    cell bound is at most every exit minimum of its cell, NaN exactly where
    one of them is."""
    want = sorted_kernel(points, t)
    assert np.array_equal(dense(view).view(np.int64), want.view(np.int64))
    starts = np.arange(0, len(t), links.CELL_COLS)
    bounds = view.cell_bounds(starts)
    for c, a in enumerate(starts):
        cell = want[:, a:a + links.CELL_COLS]
        nan = np.isnan(cell).any(axis=1)
        assert np.array_equal(np.isnan(bounds[:, c]), nan)
        assert (bounds[~nan, c] <= cell[~nan].min(axis=1)).all()


# GATED_CASES whose exit windows are on the line and sampled: the 1-D pass thins them
THINNED_CASES = sorted([name for name in builtin_names() if builtin(name).kind != "table"]
                       + [f"nan_orbit_h{h}" for h in range(1, 7)] + ["window_2_4", "window_3_4"])


class TestLoweredExitMin:
    """On every gated case (cost tables, coordinate tables with d = 1, 2 and 3,
    the plane, exit windows from steps 2 and 3, NaN orbits and flows), the
    reduced window's exit minima lowered in place over the rest of the window
    are exit_min_matrix over the whole window, compared as int64 views."""

    @pytest.mark.parametrize("case", sorted(GATED_CASES))
    def test_equals_the_whole_window(self, case):
        system = GATED_CASES[case][0]()
        for cols in (np.arange(system.n), np.arange(system.n)[::-3]):
            _, got = lowered_exit_min(system, cols)
            want = exit_min_matrix(system, cols)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_step_window_has_no_late_part(self):
        """With one step in the window the reduced window is the whole one, and
        lowering over the empty rest leaves the minima as they are."""
        systems = [cost_table(40, 1, 0), nan_orbit(1)]
        systems += [replace(s, first_step=s.horizon) for s in window_systems(2)]
        for system in systems:
            assert half_horizon(system).horizon == system.horizon
            cols = np.arange(system.n)
            half, full = lowered_exit_min(system, cols)
            assert half.tobytes() == full.tobytes() == exit_min_matrix(system, cols).tobytes()

    @pytest.mark.parametrize("case", THINNED_CASES)
    def test_thinned_store_equals_the_sorted_kernel(self, case):
        """Each window's thinned store (both ends of every run, even equal
        floats) gives the sorted kernel's exit minima, to every target, to a
        subset and to a random half in any order, and to column subsets of
        its view; bit for bit, NaN rows included."""
        system = GATED_CASES[case][0]()
        assert links.sorted_window(system, system.n)
        rng = np.random.default_rng(system.n)
        k0 = system.first_step - 1
        for cols in (np.arange(system.n), np.arange(system.n)[::-3],
                     rng.permutation(system.n)[:system.n // 2]):
            t = system.space.coords[cols, 0]
            views = links.thinned_exit_min(system, cols, horizon_check=True)
            for view, k1 in zip(views, (links.reduced_horizon(system), system.horizon)):
                points = system.orbit_coords[:, k0:k1, 0]
                assert np.array_equal(view.store.view(np.int64),
                                      thinned_reference(points, t).view(np.int64))
                assert_view_is_the_kernel(view, points, t)
                sub = rng.permutation(len(cols))[:len(cols) // 3 + 1]
                assert_view_is_the_kernel(view.columns(sub), points, t[sub])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("horizon", [1, 2, 9, 40])
    def test_random_windows_with_special_floats(self, monkeypatch, horizon):
        """Windows with signed zeros, infinities, NaN, repeated floats and points
        equal to targets: the thinned store, built for all targets or for a
        subset in any order, gives the sorted kernel's floats, and the product
        read through it is the full scan of those floats."""
        rng = np.random.default_rng(horizon)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
        for trial in range(30):
            points = rng.uniform(-2.0, 2.0, (23, horizon)).round(1)
            points[rng.random(points.shape) < 0.3] = rng.choice(special)
            if trial % 3 == 0:
                points[rng.integers(0, 23), rng.integers(0, horizon)] = np.nan
            t = np.concatenate([rng.uniform(-3.0, 3.0, 20).round(1), special,
                                rng.choice(points[~np.isnan(points)], 5)])
            t = t[rng.permutation(len(t))]
            sub = rng.permutation(len(t))[:rng.integers(1, len(t) + 1)]
            whole = links.ThinnedExitMin(*links._sorted_store(points, t), t)
            assert_view_is_the_kernel(whole, points, t)
            assert_view_is_the_kernel(whole.columns(sub), points, t[sub])
            own = links.ThinnedExitMin(*links._sorted_store(points, t[sub]), t[sub])
            assert_view_is_the_kernel(own, points, t[sub])
            if trial % 5 == 0:
                D = rng.uniform(0.0, 3.0, (len(sub), 23)).round(1)
                D[rng.random(D.shape) < 0.1] = np.inf
                assert_product_matches(monkeypatch, D, sorted_kernel(points, t[sub]), view=own)

    def test_exit_minima_computed_on_demand(self, monkeypatch):
        """f2 at h = 0.002 (n = 5001) takes the 1-D pass: no band of exit minima,
        and the products compute a small share of the n x n exit minima."""
        system = build_grid_system("f2", box=[[-5, 5]], spacing=0.002, horizon=64)
        computed = []
        block = links.ThinnedExitMin.block

        def counting(view, zs, a):
            out = block(view, zs, a)
            computed.append(out.size)
            return out

        monkeypatch.setattr(links.ThinnedExitMin, "block", counting)
        monkeypatch.setattr(links, "exit_min_bands", None)
        monkeypatch.setattr(links, "pre_gate", None)
        level_summary(system, 0.004)
        n = system.n
        assert n == 5001 and 0 < sum(computed) < n * n // 25


def has_nan_iterates(system):
    return not system.is_tabulated and bool(np.isnan(system.orbit_coords).any())


class TestPreGate:
    """links.pre_gate marks, before any exit minima exist, the targets with a
    pair (j, z), D[j, z] <= tau, whose window has an exit cost <= tau.  That
    holds the gate {lam <= tau} at the full and the reduced window, and equals
    the full window's gate wherever no iterate is NaN."""

    @staticmethod
    def gates(system, tau):
        """(pre-gate, gate, reduced window's gate), in sample order."""
        cols = np.arange(system.n)[::-1]            # any target order
        plus = links.pre_gate(system, cols, tau)[::-1]
        full = np.diagonal(level_matrix(system).levels) <= tau
        half = np.diagonal(level_matrix(half_horizon(system)).levels) <= tau
        return plus, full, half

    @pytest.mark.parametrize("case", sorted(GATED_CASES))
    def test_holds_the_gate_at_both_windows(self, case):
        build, gates = GATED_CASES[case]
        system = build()
        for tau in (-np.inf, *gates, np.inf):
            plus, full, half = self.gates(system, tau)
            assert not (full & ~plus).any() and not (half & ~plus).any()
            if not has_nan_iterates(system):
                assert np.array_equal(plus, full)

    def test_nan_propagating_minimum_is_caught(self, monkeypatch):
        """A pre-gate that takes each window's NaN-propagating minimum misses
        -0.7 on nan_orbit at horizons 2 and 3: the reduced window gates it at
        0.05 through its own first iterate, and that window's second iterate
        is NaN."""
        exit_costs = links._exit_costs
        monkeypatch.setattr(links, "_exit_costs",
                            lambda s, z, y: exit_costs(s, z, y).min(axis=1, keepdims=True))
        missed = set()
        for case, (build, gates) in GATED_CASES.items():
            system = build()
            for tau in (-np.inf, *gates, np.inf):
                plus, full, half = self.gates(system, tau)
                if ((full | half) & ~plus).any():
                    missed.add(case)
        assert missed == {"nan_orbit_h2", "nan_orbit_h3"}

    def test_the_banded_pass_checks_it(self, monkeypatch):
        """A gated sample outside the pre-gate stops the banded pass (f2's
        16-step window is not shorter than a band of 16, so it is not thinned)."""
        system = small_builtin("f2")
        assert np.count_nonzero(level_summary(system, 0.06).lam <= 0.06) > 0
        monkeypatch.setattr(links, "BAND_COLS", 16)
        monkeypatch.setattr(links, "pre_gate",
                            lambda s, cols, tau, most: np.zeros(len(cols), bool))
        with pytest.raises(AssertionError, match="pre-gate"):
            level_summary(system, 0.06)


class TestExitMinBands:
    """links.exit_min_bands yields, band by band, exit_min_matrix's floats over
    the reduced window and then over the whole one; the sorted 1-D kernel
    equals nearest_exit_costs on rows with signed zeros, infinities and NaN."""

    @pytest.mark.parametrize("width", [1, 7, 32, 33, 500])
    @pytest.mark.parametrize("case", sorted(GATED_CASES))
    def test_bands_equal_the_whole_minima(self, case, width):
        system = GATED_CASES[case][0]()
        cols = np.random.default_rng(width).permutation(system.n)
        want = [exit_min_matrix(half_horizon(system), cols), exit_min_matrix(system, cols)]
        for check in (False, True):
            got = [np.empty_like(want[0]) for _ in range(1 + check)]
            seen = []
            for i, band, M in links.exit_min_bands(system, cols, width, check):
                got[i][:, band] = M
                seen.append((i, band.start))
            assert seen == [(i, a) for a in range(0, system.n, width) for i in range(1 + check)]
            for g, w in zip(got, want[1 - check:]):
                assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("horizon", [1, 2, 9])
    def test_sorted_kernel_on_special_floats(self, horizon):
        rng = np.random.default_rng(horizon)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])
        for trial in range(30):
            cand = rng.uniform(-2.0, 2.0, (23, horizon, 1))
            cand[rng.random(cand.shape) < 0.3] = rng.choice(special[:4], size=1)
            if trial % 3 == 0:
                cand[rng.integers(0, 23), rng.integers(0, horizon)] = np.nan
            t = np.concatenate([rng.uniform(-3.0, 3.0, 20), special,
                                rng.choice(cand.ravel(), 5)])
            t = t[rng.permutation(len(t))]
            want = nearest_exit_costs(cand, t[:, None])
            got = sorted_kernel(cand[:, :, 0], t)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
