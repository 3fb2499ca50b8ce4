import tracemalloc

import numpy as np
import pytest

import nwfilt.flows as flows
from nwfilt.builtins import build_builtin_flow, builtin, builtin_names
from nwfilt.core import neg_level, pos_level
from nwfilt.filtration import omega_slice, summarize
from nwfilt.flows import (RK4_BLOCK, IntegrationError, build_flow_system, flow_level_matrix,
                          flow_link_level, integrate)


def per_step_integrate(field_fn, z0, t_max, dt):
    """Reference: one RK4 step at a time into a time-major store, each state tested."""
    steps = int(round(t_max / dt))
    y = np.array(z0, dtype=float)
    out = np.empty((steps + 1,) + y.shape)
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = field_fn(y)
            k2 = field_fn(y + 0.5 * dt * k1)
            k3 = field_fn(y + 0.5 * dt * k2)
            k4 = field_fn(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                bad = np.argwhere(~np.isfinite(np.atleast_1d(y)))
                raise IntegrationError(
                    f"non-finite state at t={(i + 1) * dt:.6g}, component {bad[0].tolist()}")
            out[i + 1] = y
    return out


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def planar(z):
    return np.stack([-z[..., 1] - 0.2 * z[..., 0], z[..., 0] - 0.2 * z[..., 1]], axis=-1)


FIELDS = {**{n: builtin(n).evaluator for n in builtin_names() if builtin(n).kind == "semiflow"},
          "planar": planar, "returns_its_input": lambda x: x}
Z0 = {"scalar": 0.7, "state": [0.7, -1.2],
      "batch": np.linspace(-2.0, 2.0, 9)[:, None],
      "batch_2d": np.stack([np.linspace(-2.0, 2.0, 9), np.linspace(1.5, -0.5, 9)], axis=1)}


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

    @pytest.mark.parametrize("t_max", [np.inf, np.nan])
    def test_unbounded_horizon_rejected(self, t_max):
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda x: x, np.array([1.0]), t_max, 0.1)


class TestBlockedStore:
    """integrate against the per-step reference: the same floats, bit for bit."""

    @pytest.mark.parametrize("steps", [10, 2 * RK4_BLOCK, 2 * RK4_BLOCK + 2])
    @pytest.mark.parametrize("field, z0", [
        (f, z) for f in FIELDS for z in Z0
        if f != "planar" or z in ("state", "batch_2d")])   # planar needs 2-D states
    def test_bit_identical_to_per_step_loop(self, field, z0, steps):
        got = integrate(FIELDS[field], Z0[z0], steps * 0.05, 0.05)
        want = per_step_integrate(FIELDS[field], Z0[z0], steps * 0.05, 0.05)
        assert got.shape == want.shape == (steps + 1,) + np.shape(Z0[z0])
        assert np.array_equal(bits(got), bits(want))

    def test_batch_is_a_view_of_a_sample_major_store(self):
        traj = integrate(FIELDS["flow_att"], Z0["batch_2d"], 3.0, 0.01)
        assert np.swapaxes(traj, 0, 1).flags.c_contiguous

    @pytest.mark.parametrize("step", [5, RK4_BLOCK + 36, 2 * RK4_BLOCK + 1])
    @pytest.mark.parametrize("z0", list(Z0))
    def test_blowup_message_matches_per_step_loop(self, z0, step):
        # unit speed until the state passes (step - 1/2) dt, then an infinite
        # field: the first non-finite state is that of `step`; in a batch,
        # every component but two starts 3 dt behind, and those two blow up together
        dt = 0.125
        start = np.zeros(np.shape(Z0[z0]))
        if start.ndim == 2:
            start[:] = -3 * dt
            start[2, -1] = start[3, 0] = 0.0

        def field(x):
            return np.where(x > (step - 0.5) * dt, np.inf, 1.0)

        with pytest.raises(IntegrationError) as want:
            per_step_integrate(field, start, 2 * RK4_BLOCK + 2, dt)
        with pytest.raises(IntegrationError) as got:
            integrate(field, start, 2 * RK4_BLOCK + 2, dt)
        assert str(got.value) == str(want.value)
        assert f"t={step * dt:.6g}," in str(got.value)
        component = f"[2, {start.shape[1] - 1}]" if start.ndim == 2 else "[0]"
        assert str(got.value).endswith(component)


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
        assert wit.steps * sys.dt >= 2.0

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
        summ = summarize(flow_level_matrix(attracting), zero_tol=0.1)
        assert summ.beta[attracting.index_of(0.0)] == np.inf

    def test_frozen_half_line_robustness(self):
        sys = build_builtin_flow("flow_rep", box=[[-3, 3]], spacing=0.02,
                                 dt=0.01, t_min=1.0, t_max=20.0)
        b = summarize(flow_level_matrix(sys), zero_tol=0.04).beta[sys.index_of(-1.0)]
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
    def test_ordering_constraints(self, monkeypatch):
        def no_integration(*args):
            raise AssertionError("integrated before the time parameters were checked")

        monkeypatch.setattr(flows, "integrate", no_integration)
        for dt, t_min, t_max in [(0.2, 0.1, 5.0), (0.2, 6.0, 5.0), (0.001, 30.0, 20.0),
                                 (0.0, 1.0, 2.0), (-0.1, 1.0, 2.0), (np.nan, 1.0, 2.0),
                                 (0.1, 1.0, np.nan)]:
            with pytest.raises(ValueError, match="need 0 < dt <= t_min <= t_max"):
                build_flow_system(lambda x: -x, [[-1, 1]], 0.01, dt=dt, t_min=t_min,
                                  t_max=t_max)

    def test_trajectories_are_one_c_contiguous_store(self):
        # the trajectories, one RK4 block and 1 MiB of small temporaries; the
        # orbit store is a view of it after t = 0
        n, steps = 601, 1000
        store = n * (steps + 1) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sys = build_builtin_flow("flow_att", box=[[-3, 3]], spacing=0.01,
                                     dt=0.01, t_min=1.0, t_max=steps * 0.01)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        traj = sys.orbit_coords.base
        assert traj.shape == (n, steps + 1, 1) and traj.flags.c_contiguous
        assert sys.orbit_coords.shape == (n, steps, 1) and sys.horizon == steps
        np.testing.assert_array_equal(traj[:, 0], sys.space.coords)
        assert np.shares_memory(sys.orbit_coords, traj[:, 1:])
        assert peak <= store + RK4_BLOCK * n * 8 + 2**20
