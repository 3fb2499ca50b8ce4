import numpy as np
import pytest

from nwfilt.builtins import (analytic_level, build_builtin_flow, build_grid_system,
                             builtin, builtin_names, counterexample_tail,
                             tail_start_index)
from nwfilt.filtration import summarize
from nwfilt.flows import flow_level_matrix
from nwfilt.links import level_matrix, link_level


class TestEvaluators:
    def test_doubling(self):
        assert builtin("f2").evaluator(np.array([[3.0]]))[0, 0] == 6.0

    def test_piecewise_expanding(self):
        ev = builtin("f_rep").evaluator
        out = ev(np.array([[-1.0], [1.0], [0.0]]))
        np.testing.assert_array_equal(out[:, 0], [-1.0, 2.0, 0.0])

    def test_piecewise_contracting(self):
        ev = builtin("f_att").evaluator
        np.testing.assert_array_equal(ev(np.array([[-2.0], [1.0]]))[:, 0], [-2.0, 0.5])

    def test_attracting_field_branches(self):
        fld = builtin("flow_att").evaluator
        np.testing.assert_array_equal(fld(np.array([2.0, -2.0, 0.0])), [-2.0, 0.0, 0.0])

    def test_repelling_field_branches(self):
        fld = builtin("flow_rep").evaluator
        np.testing.assert_array_equal(fld(np.array([2.0, -2.0])), [2.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown builtin"):
            builtin("nope")

    def test_registry_covers_schema_names(self):
        assert {"f2", "f_half", "f_rep", "f_att", "identity", "flow_Z", "flow_Y",
                "flow_rep", "flow_att", "translation_flow",
                "counterexample_tail"} <= set(builtin_names())


class TestAnalyticForms:
    def test_values(self):
        assert analytic_level("f2", 3.0) == 1.0
        assert analytic_level("flow_Z", -0.5) == 0.5
        assert analytic_level("identity", 2.0) == 0.0
        assert analytic_level("f_half", 0.0, which="beta") == np.inf
        assert analytic_level("f_rep", -2.0, which="beta") == 2.0
        assert np.isnan(analytic_level("f_rep", 1.0, which="beta"))

    def test_missing_form_raises(self):
        with pytest.raises(ValueError):
            analytic_level("translation_flow", 1.0)


class TestMapRegressions:
    H = 0.05

    @pytest.mark.parametrize("name", ["f2", "f_half", "f_rep", "f_att", "identity"])
    def test_recurrence_level_matches_closed_form(self, name):
        # the closed forms describe the unbounded line; on a window the wedge
        # witness for the contracting maps enters at 4x/3, so compare only
        # where that entry point lies inside the box
        sys = build_grid_system(name, box=[[-5, 5]], spacing=self.H, horizon=64)
        lam = np.diagonal(level_matrix(sys).levels)
        xs = sys.space.coords[:, 0]
        fits = np.abs(xs) <= 3.7
        want = analytic_level(name, xs)
        assert np.max(np.abs(lam - want)[fits]) <= 3 * self.H

    def test_windowed_contracting_level_beyond_the_wedge(self):
        # past 3/4 of the box the cheapest return enters at the box edge and
        # pays the distance back from its first image
        sys = build_grid_system("f_half", box=[[-5, 5]], spacing=self.H, horizon=64)
        lam = np.diagonal(level_matrix(sys).levels)
        xs = sys.space.coords[:, 0]
        outer = xs >= 4.0
        np.testing.assert_allclose(lam[outer], xs[outer] - 2.5, atol=2 * self.H)

    @pytest.mark.parametrize("name,where", [("f_rep", "abs"), ("f_att", "inf")])
    def test_robustness_matches_closed_form(self, name, where):
        # escape evidence for a frozen point at -a needs targets above +a,
        # so the deepest window samples are excluded
        sys = build_grid_system(name, box=[[-5, 5]], spacing=self.H, horizon=64)
        summ = summarize(level_matrix(sys), zero_tol=2 * self.H)
        xs = sys.space.coords[:, 0]
        frozen = (xs <= -0.2) & (xs >= -4.8)
        if where == "abs":
            assert np.max(np.abs(summ.beta[frozen] - np.abs(xs[frozen]))) <= 3 * self.H
        else:
            assert np.all(summ.beta[frozen] == np.inf)


class TestFlowRegressions:
    @pytest.mark.parametrize("name", ["flow_Z", "flow_Y", "flow_rep", "flow_att"])
    def test_recurrence_level_matches_closed_form(self, name):
        sys = build_builtin_flow(name, box=[[-3, 3]], spacing=0.05,
                                 dt=0.01, t_min=10.0, t_max=20.0)
        lam = np.diagonal(flow_level_matrix(sys).levels)
        xs = sys.space.coords[:, 0]
        want = analytic_level(name, xs)
        assert np.max(np.abs(lam - want)) <= 3 * 0.05


class TestTailSystem:
    def test_map_rules(self):
        sys = counterexample_tail(6, 4)
        c = sys.space.coords

        def idx(x, y):
            return sys.index_of([x, y])

        assert sys.orbit_table[idx(0.5, 1.0), 0] == idx(1.0, 0.0)
        assert sys.orbit_table[idx(0.5, 1 / 3), 0] == idx(1 / 3, 0.5)
        # truncation boundary: last tail point fixed, deep columns shift in y only
        last = idx(1 / 6, 0.0)
        assert sys.orbit_table[last, 0] == last
        assert sys.orbit_table[idx(1 / 6, 1 / 3), 0] == idx(1 / 6, 0.5)
        np.testing.assert_allclose(c[idx(1.0, 0.0)], [1.0, 0.0])

    def test_size(self):
        sys = counterexample_tail(50, 50)
        assert sys.n == 50 + 49 * 50 == 2500

    def test_start_level_is_half_at_any_truncation(self):
        for m_max in (5, 10):
            sys = counterexample_tail(m_max, m_max)
            p = tail_start_index(sys)
            lvl, wit = link_level(sys, p, p)
            assert lvl == 0.5
            assert wit.steps == 1 and wit.start_index == p

    def test_return_levels_shrink_with_depth(self):
        values = []
        for m_max in (5, 10, 20):
            sys = counterexample_tail(m_max, m_max)
            p = tail_start_index(sys)
            orbit = sorted(set(sys.orbit_table[p].tolist()))
            worst = max(link_level(sys, z, p)[0] for z in orbit)
            values.append(worst)
            assert worst <= 1.2 / m_max
        assert values[0] > values[1] > values[2]

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            counterexample_tail(1, 5)
