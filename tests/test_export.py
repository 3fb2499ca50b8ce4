import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nwfilt.builtins import build_grid_system, counterexample_tail
from nwfilt.core import Branch, ExtendedLevel, build_sampled_system, neg_level, pos_level
from nwfilt.export import (build_document, export_diagram_json, export_levels_csv,
                           level_token, render_svg)
from nwfilt.filtration import DiagramSlice, diagram, summarize
from nwfilt.links import level_matrix


class TestLevelTokens:
    def test_reserved_tokens(self):
        assert level_token(neg_level(0.0)) == "-0"
        assert level_token(pos_level(0.0)) == "+0"
        assert level_token(pos_level(np.inf)) == "inf"
        assert level_token(neg_level(np.inf)) == "-inf"

    def test_numeric_tokens(self):
        assert level_token(pos_level(1.25)) == "1.25"
        assert level_token(neg_level(0.5)) == "-0.5"

    @given(st.sampled_from([Branch.NEG, Branch.POS]),
           st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_round_trip_any_level(self, branch, mag):
        """A numeric token is the sign of a NEG level and then a decimal that
        reads back as the magnitude, so it never equals a reserved token."""
        tok = level_token(ExtendedLevel(branch, mag))
        if mag == 0.0:
            assert tok == ("-0" if branch is Branch.NEG else "+0")
            return
        sign = "-" if branch is Branch.NEG else ""
        assert tok.startswith(sign) and tok not in ("-0", "+0", "inf", "-inf")
        digits = tok[len(sign):]
        assert digits[0].isdigit() and float(digits) == mag


@pytest.fixture(scope="module")
def small_f2():
    sys = build_grid_system("f2", box=[[-2, 2]], spacing=0.02, horizon=64)
    mat = level_matrix(sys)
    summ = summarize(mat, zero_tol=0.04)
    return sys, summ


class TestCsv:
    def test_identity_rows(self):
        sys = build_grid_system("identity", box=[[0, 1]], spacing=0.5, horizon=4)
        summ = summarize(level_matrix(sys), zero_tol=0.0)
        text = export_levels_csv(summ, sys.space.coords).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "index,coord_0,lambda,beta"
        assert lines[1] == "0,0,0,inf"
        assert len(lines) == 4

    def test_undefined_beta_is_empty_field(self, small_f2):
        sys, summ = small_f2
        text = export_levels_csv(summ, sys.space.coords).decode()
        row = text.strip().split("\n")[1 + sys.index_of(1.5)]
        cells = row.split(",")
        assert abs(float(cells[2]) - 0.5) <= 0.04
        assert cells[3] == ""

    def test_nine_significant_digits(self):
        sys = build_grid_system("f2", box=[[-1, 1]], spacing=1 / 3, horizon=4)
        summ = summarize(level_matrix(sys), zero_tol=0.0)
        text = export_levels_csv(summ, sys.space.coords).decode()
        assert "0.333333333" in text


def random_document(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    coords = np.sort(rng.uniform(-5, 5, n))[:, None]
    lam = rng.uniform(0, 2, n)
    beta = rng.uniform(0, 3, n)
    beta[rng.random(n) < 0.3] = np.nan
    beta[rng.random(n) < 0.2] = np.inf
    mags = np.sort(rng.uniform(0.1, 3, 3))
    members = [np.sort(rng.choice(n, size=rng.integers(0, n), replace=False))
               for _ in range(4)]
    cum = []
    acc = np.array([], dtype=int)
    for m in members:
        acc = np.union1d(acc, m)
        cum.append(acc.copy())
    slices = [DiagramSlice(neg_level(float(mags[0])), cum[0]),
              DiagramSlice(neg_level(0.0), cum[1]),
              DiagramSlice(pos_level(0.0), cum[2]),
              DiagramSlice(pos_level(float(mags[2])), cum[3])]
    meta = {"name": f"doc{seed}", "kind": "map", "box": [[-5.0, 5.0]], "h": 0.01,
            "horizon": {"n_max": 8}, "tau": 0.02}
    from nwfilt.export import DiagramDocument
    return DiagramDocument(system=meta, slices=slices, lam=lam, beta=beta,
                           point_indices=np.arange(n), coords=coords, spacing=0.01)


class TestJson:
    def test_floats_read_back_bit_for_bit(self):
        def token(v):
            """What the exporter writes for a document float."""
            return None if np.isnan(v) else "inf" if np.isinf(v) else v

        def bits(v):
            """A float as its bit pattern, so -0.0 differs from 0.0."""
            return np.float64(v).view(np.int64) if isinstance(v, float) else v

        for seed in range(100):
            doc = random_document(seed)
            points = json.loads(export_diagram_json(doc))["points"]
            assert [p["index"] for p in points] == doc.point_indices.tolist()
            for p, lam, beta in zip(points, doc.lam, doc.beta):
                got = [p["lambda"], p["beta"], *p["coords"]]
                want = [token(v) for v in [lam, beta, *doc.coords[p["index"]]]]
                assert list(map(bits, got)) == list(map(bits, want))

    def test_nan_lambda_is_null(self):
        """On nan_orbit at horizon 3 every level is NaN: lambda is written as
        null, as an undefined beta is, and the document is standard JSON."""
        sys = build_sampled_system(
            lambda x: np.where(np.abs(x + 0.7) < 1e-6, -0.68,
                               np.where(np.abs(x + 0.68) < 1e-6, np.nan, -x)),
            box=[[-1, 1]], spacing=0.1, horizon=3)
        summ = summarize(level_matrix(sys), zero_tol=0.2)
        assert np.isnan(summ.lam).all()
        doc = build_document(summ, diagram(summ, [neg_level(0.0), pos_level(0.5)]),
                             {"name": "nan_orbit", "kind": "map", "h": 0.1},
                             sys.space.coords, sys.spacing)

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        payload = json.loads(export_diagram_json(doc), parse_constant=reject)
        assert [(p["lambda"], p["beta"]) for p in payload["points"]] == [(None, None)] * sys.n

    def test_schema_fields(self, small_f2):
        sys, summ = small_f2
        slices = diagram(summ, [neg_level(0.0), pos_level(0.0), pos_level(0.5)])
        doc = build_document(summ, slices, {"name": "f2", "kind": "map", "h": 0.02},
                             sys.space.coords, sys.spacing)
        payload = json.loads(export_diagram_json(doc))
        assert payload["schema_version"] == 1
        assert [s["level"] for s in payload["slices"]] == ["-0", "+0", "0.5"]
        assert all("intervals" in s for s in payload["slices"])
        mid = payload["points"][sys.index_of(0.0)]
        assert mid["lambda"] == 0.0 and mid["beta"] is not None

    def test_frozen_half_line_interval(self):
        sys = build_grid_system("f_rep", box=[[-5, 5]], spacing=0.02, horizon=64)
        summ = summarize(level_matrix(sys), zero_tol=0.04)
        slices = diagram(summ, [neg_level(1.0)])
        doc = build_document(summ, slices, {"name": "f_rep", "kind": "map", "h": 0.02},
                             sys.space.coords, sys.spacing)
        payload = json.loads(export_diagram_json(doc))
        (iv,) = payload["slices"][0]["intervals"]
        assert iv[0] == -5.0 and abs(iv[1] + 1.0) <= 0.04


class TestSvg:
    def test_deterministic_and_marked(self, small_f2):
        sys, summ = small_f2
        slices = diagram(summ, [neg_level(0.5), neg_level(0.0),
                                pos_level(0.0), pos_level(0.5)])
        doc = build_document(summ, slices, {"name": "f2", "kind": "map"},
                             sys.space.coords, sys.spacing)
        a = render_svg(doc, 400, 300)
        b = render_svg(doc, 400, 300)
        assert a == b
        text = a.decode()
        assert "stroke-dasharray" in text and "<rect" in text

    def test_empty_diagram_draws_axes_only(self):
        sys = build_grid_system("f2", box=[[-2, 2]], spacing=0.05, horizon=64)
        summ = summarize(level_matrix(sys), zero_tol=0.1)
        slices = diagram(summ, [neg_level(2.0), neg_level(1.0)])
        assert all(len(s.members) == 0 for s in slices)
        doc = build_document(summ, slices, {"name": "f2", "kind": "map"},
                             sys.space.coords, sys.spacing)
        body = render_svg(doc).decode()
        assert body.count('fill="#3b6ea5"') == 0

    def test_non_1d_rejected(self):
        sys = counterexample_tail(4, 3)
        summ = summarize(level_matrix(sys), zero_tol=0.0)
        slices = diagram(summ, [pos_level(0.0)])
        doc = build_document(summ, slices, {"name": "tail", "kind": "map"},
                             sys.space.coords, None)
        with pytest.raises(ValueError, match="CSV/JSON"):
            render_svg(doc)

    @pytest.mark.parametrize("width, height", [(1, 1), (59, 420), (640, 44), (0, 0)])
    def test_canvas_smaller_than_the_margins_rejected(self, small_f2, width, height):
        sys, summ = small_f2
        doc = build_document(summ, diagram(summ, [pos_level(0.5)]), {"name": "f2", "kind": "map"},
                             sys.space.coords, sys.spacing)
        with pytest.raises(ValueError, match="no room for the plot"):
            render_svg(doc, width, height)
        assert b'width="-' not in render_svg(doc, 60, 45)

    def test_monotone_columns_enforced(self, small_f2):
        sys, summ = small_f2
        bogus = [DiagramSlice(pos_level(0.0), np.array([3, 4])),
                 DiagramSlice(pos_level(1.0), np.array([4]))]
        doc = build_document(summ, bogus, {"name": "f2", "kind": "map"},
                             sys.space.coords, sys.spacing)
        with pytest.raises(ValueError, match="nested"):
            render_svg(doc)
