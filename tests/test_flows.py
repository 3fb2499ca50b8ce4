import numpy as np
import pytest

from nwfilt.builtins import build_builtin_flow
from nwfilt.core import neg_level, pos_level
from nwfilt.filtration import omega_slice, robustness_level, summarize
from nwfilt.flows import (IntegrationError, build_flow_system, flow_level_matrix,
                          flow_link_level, integrate)


class TestIntegrate:
    def test_linear_decay(self):
        traj = integrate(lambda x: -x, np.array([1.0]), 1.0, 0.01)
        assert abs(traj[-1][0] - np.exp(-1.0)) < 1e-6

    def test_linear_growth(self):
        traj = integrate(lambda x: x, np.array([1.0]), 1.0, 0.01)
        assert abs(traj[-1][0] - np.e) < 1e-5

    def test_rest_point_stays_put(self):
        traj = integrate(lambda x: np.zeros_like(x), np.array([3.5]), 5.0, 0.1)
        assert np.all(traj == 3.5)

    def test_sample_times_are_exact(self):
        traj = integrate(lambda x: x, np.array([1.0]), 2.0, 0.01)
        assert traj.shape[0] == 201

    def test_blowup_aborts_with_time(self):
        with np.errstate(over="ignore"), pytest.raises(IntegrationError, match="t="):
            integrate(lambda x: x * x, np.array([5.0]), 50.0, 0.5)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, np.array([1.0]), 1.0, 0.0)


@pytest.fixture(scope="module")
def attracting():
    return build_builtin_flow("flow_Z", box=[[-3, 3]], spacing=0.05,
                              dt=0.01, t_min=10.0, t_max=20.0)


@pytest.fixture(scope="module")
def repelling():
    return build_builtin_flow("flow_Y", box=[[-3, 3]], spacing=0.05,
                              dt=0.01, t_min=10.0, t_max=20.0)


class TestFlowLinkLevels:
    def test_balanced_return_matches_closed_form(self):
        # brute force over a continuum entry grid and the duration window
        sys = build_builtin_flow("flow_Z", box=[[-3, 3]], spacing=0.01,
                                 dt=0.01, t_min=2.0, t_max=6.0)
        zs = np.linspace(0.0, 3.0, 3001)
        rs = np.arange(2.0, 6.0, 0.05)
        best = min(np.maximum(np.abs(1.0 - zs), np.abs(zs * np.exp(-r) - 1.0)).min()
                   for r in rs)
        assert abs(best - np.tanh(1.0)) < 5e-3
        i1 = sys.index_of(1.0)
        lvl, wit = flow_link_level(sys, i1, i1)
        assert abs(lvl - best) <= 0.02
        assert wit.duration >= 2.0

    def test_rest_point_is_free(self, repelling):
        i0 = repelling.index_of(0.0)
        assert flow_link_level(repelling, i0, i0)[0] == 0.0

    def test_decay_reaches_origin(self):
        sys = build_builtin_flow("flow_Z", box=[[-3, 3]], spacing=0.01,
                                 dt=0.01, t_min=1.0, t_max=20.0)
        lvl, _ = flow_link_level(sys, sys.index_of(1.0), sys.index_of(0.0))
        assert lvl <= 0.02

    def test_duration_floor_validated(self, attracting):
        with pytest.raises(ValueError):
            flow_link_level(attracting, 0, 0, T=25.0)

    @pytest.mark.parametrize("targets", [[-1, 3], [0, 10_000], []])
    def test_targets_validated_like_maps(self, attracting, targets):
        with pytest.raises(ValueError, match="target"):
            flow_level_matrix(attracting, targets=targets)

    def test_duration_monotonicity(self):
        sys = build_builtin_flow("flow_Z", box=[[-1, 1]], spacing=0.05,
                                 dt=0.01, t_min=1.0, t_max=8.0)
        m1 = flow_level_matrix(sys, T=1.0).levels
        m2 = flow_level_matrix(sys, T=2.0).levels
        m5 = flow_level_matrix(sys, T=5.0).levels
        assert np.all(m1 <= m2 + 1e-15) and np.all(m2 <= m5 + 1e-15)


    def test_planar_flow_levels_in_cell_order(self):
        # a rotation with decay on a 9 x 9 grid: 2-D targets are reordered
        # into product cells and back
        sys = build_flow_system(lambda z: np.stack([-z[:, 1] - 0.2 * z[:, 0],
                                                    z[:, 0] - 0.2 * z[:, 1]], axis=1),
                                box=[[-1, 1], [-1, 1]], spacing=0.25,
                                dt=0.05, t_min=0.5, t_max=2.0)
        rng = np.random.default_rng(0)
        for targets in (None, np.sort(rng.choice(sys.n, 50, replace=False))):
            got = flow_level_matrix(sys, targets=targets)
            tg = got.targets
            for i, j in rng.integers(0, len(tg), size=(60, 2)):
                assert got.levels[i, j] == flow_link_level(sys, tg[i], tg[j])[0]
            assert (flow_level_matrix(sys, targets=targets, threads=2).levels.tobytes()
                    == got.levels.tobytes())


class TestFlowLevels:
    def test_attracting_wedge(self, attracting):
        summ = summarize(flow_level_matrix(attracting), zero_tol=0.1)
        xs = attracting.space.coords[:, 0]
        assert np.max(np.abs(summ.lam - np.abs(xs))) <= 0.05

    def test_repelling_parking_level(self, repelling):
        # the rest point at 0 admits a two-jump excursion from any sample,
        # so the level equals the distance to 0 exactly
        summ = summarize(flow_level_matrix(repelling), zero_tol=0.1)
        xs = repelling.space.coords[:, 0]
        np.testing.assert_array_equal(summ.lam, np.abs(xs))

    def test_attracting_origin_fully_robust(self, attracting):
        m = flow_level_matrix(attracting)
        assert robustness_level(m, attracting.index_of(0.0), 0.1) == np.inf

    def test_frozen_half_line_robustness(self):
        sys = build_builtin_flow("flow_rep", box=[[-3, 3]], spacing=0.02,
                                 dt=0.01, t_min=1.0, t_max=20.0)
        m = flow_level_matrix(sys)
        b = robustness_level(m, sys.index_of(-1.0), 0.04)
        assert abs(b - 1.0) <= 0.03

    def test_all_rest_field_is_fully_robust(self):
        sys = build_flow_system(lambda x: np.zeros_like(x), [[-1, 1]], 0.1,
                                dt=0.05, t_min=1.0, t_max=5.0)
        summ = summarize(flow_level_matrix(sys), zero_tol=0.0)
        assert np.all(summ.lam == 0.0)
        assert np.all(summ.beta == np.inf)

    def test_translation_never_recurs(self):
        sys = build_builtin_flow("translation_flow", box=[[-5, 5]], spacing=0.1,
                                 dt=0.05, t_min=1.0, t_max=10.0)
        lams = np.array([flow_link_level(sys, i, i)[0] for i in range(sys.n)])
        assert np.all(lams >= 0.4)

    def test_compact_zero_level_agreement(self):
        sys = build_builtin_flow("flow_Z", box=[[-1, 1]], spacing=0.01,
                                 dt=0.01, t_min=10.0, t_max=20.0)
        summ = summarize(flow_level_matrix(sys), zero_tol=0.02)
        xs = sys.space.coords[:, 0]
        neg0 = xs[omega_slice(summ, neg_level(0.0))]
        pos0 = xs[omega_slice(summ, pos_level(0.0))]
        # Hausdorff distance between the two zero slices within 2h
        d = max(np.abs(neg0[:, None] - pos0[None, :]).min(axis=1).max(),
                np.abs(pos0[:, None] - neg0[None, :]).min(axis=1).max())
        assert d <= 0.02

    def test_flow_slices_nested(self, attracting):
        summ = summarize(flow_level_matrix(attracting), zero_tol=0.1)
        prev = set()
        for eps in (0.0, 0.5, 1.0, 2.0):
            cur = set(omega_slice(summ, pos_level(eps)).tolist())
            assert prev <= cur
            prev = cur


class TestSystemValidation:
    def test_ordering_constraints(self):
        with pytest.raises(ValueError):
            build_flow_system(lambda x: -x, [[-1, 1]], 0.5, dt=0.2, t_min=0.1, t_max=5.0)
        with pytest.raises(ValueError):
            build_flow_system(lambda x: -x, [[-1, 1]], 0.5, dt=0.2, t_min=6.0, t_max=5.0)
