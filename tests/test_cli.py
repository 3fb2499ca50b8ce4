import hashlib
import json
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from nwfilt import builtins, cli, core, flows, links
from nwfilt.cli import main
from nwfilt.core import ResourceLimitError
from nwfilt.filtration import summarize
from nwfilt.links import horizon_stability, level_matrix
from nwfilt.specfile import build_from_spec, load_system


def strict_json(text):
    """JSON as the standard reads it: Infinity, -Infinity and NaN are rejected."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def write_spec(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def f2_spec(tmp_path, h=0.02, box=(-2.0, 2.0)):
    return write_spec(tmp_path, "f2.json", {
        "kind": "map",
        "source": {"builtin": "f2"},
        "grid": {"box": [list(box)], "h": h},
        "horizon": {"n_max": 64},
        "tolerance": {"tau": "auto"},
    })


def flow_spec(name):
    """A small semiflow spec: 81 samples, durations 1 to 6 on a 0.02 grid."""
    return {"kind": "semiflow", "source": {"builtin": name},
            "grid": {"box": [[-2.0, 2.0]], "h": 0.05},
            "horizon": {"dt": 0.02, "t_min": 1.0, "t_max": 6.0}}


def tail_spec(n_max, m_max):
    return {"kind": "map", "source": {"builtin": "counterexample_tail",
                                      "params": {"n_max": n_max, "m_max": m_max}}}


INF_CYCLE = {"kind": "map", "horizon": {"n_max": 2},       # 3 pairs change, lam and beta do not
             "source": {"table": {"cost": [[0.0, "inf", "inf"], ["inf", 0.0, "inf"],
                                           ["inf", "inf", 0.0]], "map": [1, 2, 0]}}}


def half_window(system):
    """The system cut to the first half of its exit window, at least one step."""
    h2 = system.first_step - 1 + max(1, (system.horizon - system.first_step + 1) // 2)
    if system.is_tabulated:
        return replace(system, horizon=h2, orbit_table=system.orbit_table[:, :h2])
    return replace(system, horizon=h2, orbit_coords=system.orbit_coords[:, :h2])


def expected_horizon_line(loaded):
    """analyze's default horizon line, from the whole-matrix summaries at the
    full and the half exit window: the samples whose lam and whose beta differ
    (NaN equals NaN), each with its largest numeric change."""
    system = loaded.system
    half_sys = half_window(system)
    full = summarize(level_matrix(system), loaded.tau)
    half = summarize(level_matrix(half_sys), loaded.tau)
    changes = []
    for a, b in ((full.lam, half.lam), (full.beta, half.beta)):
        diffs = [abs(y - x) for x, y in zip(a.tolist(), b.tolist())
                 if not (x == y or (math.isnan(x) and math.isnan(y)))]
        changes.append((len(diffs), max((d for d in diffs if not math.isnan(d)), default=0.0)))
    (k, a), (j, b) = changes
    state = ("stable" if k == j == 0 else
             f"lam changed on {k} samples (max {a:.3g}), beta on {j} (max {b:.3g})")
    at = (f"n_max={half_sys.horizon}" if loaded.kind == "map"
          else f"t_max={half_sys.horizon * system.dt:.6g}")
    return f"horizon check at {at}: {state}\n"


class TestAnalyze:
    def test_levels_csv(self, tmp_path, capsys):
        spec = f2_spec(tmp_path, h=0.02, box=(-5.0, 5.0))
        out = tmp_path / "levels.csv"
        assert main(["analyze", spec, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,coord_0,lambda,beta"
        rows = {float(r.split(",")[1]): r.split(",") for r in lines[1:]}
        assert abs(float(rows[3.0][2]) - 1.0) <= 0.04
        assert rows[3.0][3] == ""
        err = capsys.readouterr().err
        assert "h=" in err and "tau=" in err

    def test_stdout_carries_data_stderr_diagnostics(self, tmp_path, capsys):
        spec = f2_spec(tmp_path)
        assert main(["analyze", spec]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("index,")
        assert "n=" in captured.err and "index," not in captured.err

    def test_matrix_out(self, tmp_path):
        spec = write_spec(tmp_path, "t.json", {
            "kind": "map",
            "source": {"table": {"points": [[0.0], [1.0]], "cost": "euclidean",
                                 "map": [1, 1]}},
        })
        mat = tmp_path / "matrix.csv"
        assert main(["analyze", spec, "--out", str(tmp_path / "l.csv"),
                     "--matrix-out", str(mat)]) == 0
        rows = mat.read_text().strip().split("\n")
        assert rows[0] == "0,1"
        assert rows[1].split(",") == ["1", "0"]

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "map",,}')
        assert main(["analyze", str(p)]) == 2
        assert "line 1 column" in capsys.readouterr().err

    def test_unknown_builtin(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "u.json", {"kind": "map",
                                               "source": {"builtin": "mystery"}})
        assert main(["analyze", spec]) == 2
        assert "unknown builtin" in capsys.readouterr().err

    def test_huge_grid_rejected_with_hint(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "huge.json", {
            "kind": "map", "source": {"builtin": "f2"},
            "grid": {"box": [[-5.0, 5.0]], "h": 1e-6}})
        assert main(["analyze", spec]) == 3
        assert "spacing" in capsys.readouterr().err

    def test_non_finite_table_points_rejected_before_output(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        p.write_text('{"kind": "map", "source": {"table": {"points": [[0.0], [NaN], [1.0]], '
                     '"cost": "euclidean", "map": [1, 2, 0]}}}')
        assert main(["analyze", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    def test_flow_blowup_exits_2_with_one_line(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "fy.json", {
            "kind": "semiflow", "source": {"builtin": "flow_Y"},
            "horizon": {"dt": 1.0, "t_min": 1.0, "t_max": 800.0}})
        t0 = time.perf_counter()
        assert main(["analyze", spec]) == 2
        assert time.perf_counter() - t0 < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("integration error: non-finite state at t=")
        assert captured.err.count("\n") == 1

    def test_horizon_check_with_unreachable_pairs(self, tmp_path, capsys):
        inf_cost = [[0.0, "inf", "inf"], ["inf", 0.0, "inf"], ["inf", "inf", 0.0]]
        for step, n_max, want in (([0, 1, 2], 4, "stable"),
                                  ([1, 2, 0], 2, "3 pairs changed (max inf)")):
            spec = write_spec(tmp_path, "inf.json", {
                "kind": "map", "horizon": {"n_max": n_max},
                "source": {"table": {"cost": inf_cost, "map": step}}})
            assert main(["analyze", spec, "--matrix-out", str(tmp_path / "m.csv")]) == 0
            err = capsys.readouterr().err
            assert f"horizon check at n_max={n_max // 2}: {want}\n" in err
            assert "Warning" not in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_horizon_line_matches_horizon_stability(self, tmp_path, capsys, threads):
        """analyze --matrix-out checks the pairs of the matrix it writes, on a map
        and on a semiflow; the stderr line is the one horizon_stability's report
        gives, and stdout is the one without --matrix-out."""
        for name, payload in (("tail", tail_spec(10, 8)), ("flow_att", flow_spec("flow_att"))):
            spec = write_spec(tmp_path, f"{name}.json", payload)
            system = load_system(spec).system
            rep = horizon_stability(system)
            assert not rep.stable
            at = (f"n_max={rep.reduced_horizon}" if name == "tail"
                  else f"t_max={rep.reduced_horizon * system.dt:.6g}")
            want = (f"horizon check at {at}: {rep.changed_pairs} "
                    f"pairs changed (max {rep.max_change:.3g})\n")
            assert main(["analyze", spec, "--threads", threads]) == 0
            gated = capsys.readouterr().out
            assert main(["analyze", spec, "--threads", threads,
                         "--matrix-out", str(tmp_path / "m.csv")]) == 0
            captured = capsys.readouterr()
            assert captured.err.endswith(want) and captured.out == gated

    def test_golden_tail_matrix_and_pair_line(self, tmp_path, capsys):
        """analyze --matrix-out on the 30x30 tail, at one and three threads: the
        pair line the README quotes, the pinned matrix CSV and the stdout of
        the analyze_tail workload."""
        spec = write_spec(tmp_path, "tail.json", tail_spec(30, 30))
        matrix = tmp_path / "m.csv"
        for threads in ("1", "3"):
            assert main(["analyze", spec, "--threads", threads, "--matrix-out", str(matrix)]) == 0
            captured = capsys.readouterr()
            assert captured.err.endswith(
                "horizon check at n_max=31: 23817 pairs changed (max 0.0292)\n")
            assert hashlib.sha256(matrix.read_bytes()).hexdigest() == (
                "36d4430005c7a3daa0ce0a067b9c963d27076acac03d4e1304d2f98f2895ccfe")
            assert hashlib.sha256(captured.out.encode()).hexdigest() == (
                "f9d884cbbb27505a60e3070a0b9861870bef507a3ebe6dd5c2b0b096d5a5ea20")

    @pytest.mark.parametrize("name, payload, state", [
        ("tail_15", tail_spec(15, 15), "lam changed on 1 samples"),
        ("tail_10", tail_spec(10, 8), "stable"),           # 315 pairs change
        ("inf_cycle", INF_CYCLE, "stable"),
        ("f2", {"kind": "map", "source": {"builtin": "f2"},
                "grid": {"box": [[-2.0, 2.0]], "h": 0.02}, "horizon": {"n_max": 64}}, "stable"),
        ("flow_att", flow_spec("flow_att"), "beta on 2"),
        ("flow_Y", flow_spec("flow_Y"), "stable"),
    ])
    def test_default_horizon_line_reports_lam_and_beta(self, tmp_path, capsys,
                                                       name, payload, state):
        """Without --matrix-out the check compares what stdout prints: lam and
        beta at the full and the reduced exit window (flows included)."""
        spec = write_spec(tmp_path, f"{name}.json", payload)
        want = expected_horizon_line(load_system(spec))
        assert state in want
        for threads in ("1", "2", "3"):
            assert main(["analyze", spec, "--threads", threads]) == 0
            err = capsys.readouterr().err
            assert want in err and "unquantified" not in err

    def test_flow_horizon_check_skipped_above_the_cap(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, "fy.json", flow_spec("flow_Y"))     # n = 81
        monkeypatch.setattr(cli, "HORIZON_CHECK_CAP", 80)
        assert main(["analyze", spec]) == 0
        err = capsys.readouterr().err
        assert "horizon check skipped: n=81 > 80\n" in err and "horizon check at" not in err

    def test_gated_analyze_builds_no_level_matrix(self, tmp_path, capsys, monkeypatch):
        """analyze reads lam and beta off the product's diagonal, the gated rows
        and the complement block by column chunk: no (m, m) product without
        --matrix-out, one with it.  On f2 lam comes from the products of the
        diagonal cells, one square block of at most CELL_ROWS targets each."""
        shapes = []
        product = links.bottleneck_product

        def recording(*args, **kwargs):
            out = product(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(links, "bottleneck_product", recording)
        for spec in (f2_spec(tmp_path), write_spec(tmp_path, "tail.json", tail_spec(10, 8))):
            n = load_system(spec).system.n
            shapes.clear()
            assert main(["analyze", spec]) == 0
            gated = capsys.readouterr().out
            diagonal = [s for s in shapes if s[0] == s[1] <= links.CELL_ROWS]
            assert len(diagonal) == (2 * -(-n // links.CELL_ROWS) if "f2" in spec else 0)
            # rows and one chunk per horizon
            assert len(shapes) - len(diagonal) == 4 and (n, n) not in shapes
            shapes.clear()
            assert main(["analyze", spec, "--matrix-out", str(tmp_path / "m.csv")]) == 0
            assert capsys.readouterr().out == gated
            assert shapes.count((n, n)) == 1

    @pytest.mark.parametrize("cmd", ["analyze", "detect", "flow"])
    def test_level_arrays_priced_before_allocation(self, tmp_path, capsys, monkeypatch, cmd):
        """D, M and the levels, priced against core.MAX_MATRIX_BYTES before any
        of them is allocated; analyze's horizon check (on maps and flows alike)
        lowers M in place and is priced the same."""
        def no_product(*args):
            raise AssertionError("allocated past the gate")

        if cmd == "flow":
            spec = write_spec(tmp_path, "flow.json", {
                "kind": "semiflow", "source": {"builtin": "flow_att"},
                "grid": {"box": [[-1.0, 1.0]], "h": 0.02},
                "horizon": {"dt": 0.05, "t_min": 0.5, "t_max": 2.0}})
            argv = ["analyze", spec]
        else:
            spec = f2_spec(tmp_path)
            argv = [cmd, spec]
        n = load_system(spec).system.n
        price = 8 * n * (2 * n + n)
        monkeypatch.setattr(core, "MAX_MATRIX_BYTES", price - 1)
        monkeypatch.setattr(links, "cell_order", no_product)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: ") and "coarser grid" in captured.err
        assert captured.err.count("\n") == 1
        monkeypatch.undo()
        monkeypatch.setattr(core, "MAX_MATRIX_BYTES", price)
        assert main(argv) == 0
        assert capsys.readouterr().out

    def test_skipped_horizon_check_is_reported(self, tmp_path, capsys, monkeypatch):
        spec = f2_spec(tmp_path)                         # n = 201
        monkeypatch.setattr(cli, "HORIZON_CHECK_CAP", 200)
        assert main(["analyze", spec]) == 0
        err = capsys.readouterr().err
        assert "horizon check skipped: n=201 > 200\n" in err
        assert "horizon check at" not in err
        monkeypatch.setattr(cli, "HORIZON_CHECK_CAP", 201)
        assert main(["analyze", spec]) == 0
        err = capsys.readouterr().err
        assert "horizon check at n_max=32: " in err and "skipped" not in err

    @pytest.mark.parametrize("kind, payload, price, hint", [
        ("sampled", {"kind": "map", "source": {"builtin": "f2"},
                     "grid": {"box": [[-2.0, 2.0]], "h": 0.01}, "horizon": {"n_max": 1000}},
         401 * 1000 * 8, "horizon.n_max"),
        ("table", {"kind": "map", "horizon": {"n_max": 5000},
                   "source": {"table": {"points": [[0.1 * i] for i in range(100)],
                                        "map": [(i + 1) % 100 for i in range(100)]}}},
         100 * 5000 * 8, "horizon.n_max"),
        ("flow", {"kind": "semiflow", "source": {"builtin": "flow_att"},
                  "grid": {"box": [[-2.0, 2.0]], "h": 0.01},
                  "horizon": {"dt": 0.01, "t_min": 1.0, "t_max": 5.0}},
         2 * 401 * 501 * 8, "horizon.dt"),
    ])
    def test_orbit_store_priced_before_allocation(self, tmp_path, capsys, monkeypatch,
                                                  kind, payload, price, hint):
        def no_integration(*args):
            raise AssertionError("integrated past the gate")

        spec = write_spec(tmp_path, f"{kind}.json", payload)
        monkeypatch.setattr(core, "MAX_STORE_BYTES", price - 1)
        monkeypatch.setattr(flows, "integrate", no_integration)
        assert main(["analyze", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("resource limit: ") and hint in captured.err
        assert captured.err.count("\n") == 1
        monkeypatch.undo()
        monkeypatch.setattr(core, "MAX_STORE_BYTES", price)
        assert main(["analyze", spec]) == 0

    def test_unbounded_flow_horizon_is_a_resource_limit(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "inf.json", {
            "kind": "semiflow", "source": {"builtin": "flow_att"},
            "horizon": {"dt": 0.01, "t_min": 1.0, "t_max": float("inf")}})
        assert main(["analyze", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "inf steps" in captured.err

    def test_unknown_builtin_params_rejected(self, tmp_path, capsys):
        for name, params in (("f2", {"bogus": 3}),
                             ("counterexample_tail", {"n_max": 4, "bogus": 3})):
            spec = write_spec(tmp_path, "p.json", {
                "kind": "map", "source": {"builtin": name, "params": params}})
            assert main(["analyze", spec]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "'bogus'" in captured.err

    @pytest.mark.parametrize("base, section, key, value", [
        ("f2", "horizon", "n_max", True),            # was a TypeError traceback, exit 1
        ("f2", "tolerance", "tau", True),            # these six were read as 1
        ("f2", "grid", "h", True),
        ("f2", "grid", "h", math.inf),                # was one sample at coordinate NaN, exit 0
        ("f2", "grid", "box", [[True, 1.0]]),
        ("f2", "grid", "box", [[-math.inf, 1.0]]),   # was an OverflowError traceback, exit 1
        ("f2", "grid", "box", [[math.nan, 1.0]]),
        ("f2", "grid", "box", [[-1, 10 ** 400]]),      # was an OverflowError traceback, exit 1
        ("f2", "tolerance", "tau", 10 ** 400),
        ("flow", "horizon", "dt", True),
        ("table", "table", "map", [1, True]),
        ("table", "table", "map", [1, 2 ** 70]),     # was an OverflowError traceback, exit 1
        ("table", "table", "points", [[0.0], [True]]),
        ("table", "table", "cost", [[0.0, True], [1.0, 0.0]]),
        ("table", "table", "cost", [[0.0, 10 ** 400], [1.0, 0.0]]),
        ("tail", "params", "n_max", 4.7),            # was truncated to 4
        ("tail", "params", "m_max", True),
        ("tail", "params", "n_max", "5"),
        ("tail", "horizon", "n_max", 4.0),           # was a TypeError traceback, exit 1
    ])
    def test_malformed_numbers_rejected(self, tmp_path, capsys, base, section, key, value):
        """JSON true is not the number 1, a count is an integer, and the box and
        the spacing are finite: each spec runs as written and exits 2, with one stderr line
        and nothing on stdout, once the one value is replaced."""
        payload = {
            "f2": {"kind": "map", "source": {"builtin": "f2"},
                   "grid": {"box": [[-1.0, 1.0]], "h": 0.1}},
            "flow": flow_spec("flow_att"),
            "table": {"kind": "map", "source": {"table": {"points": [[0.0], [1.0]],
                                                          "map": [1, 0]}}},
            "tail": tail_spec(4, 3)}[base]
        assert main(["analyze", write_spec(tmp_path, "ok.json", payload)]) == 0
        capsys.readouterr()
        where = payload["source"] if section in ("table", "params") else payload
        where.setdefault(section, {})[key] = value
        assert main(["analyze", write_spec(tmp_path, "bad.json", payload)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spec error: ") and captured.err.count("\n") == 1

    def test_tail_size_priced_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        """The tail's sample count is priced against max_samples and its orbit
        table against core.MAX_STORE_BYTES before a point of it is built."""
        def no_tail(*args, **kwargs):
            raise AssertionError("built past the gate")

        monkeypatch.setattr(builtins, "counterexample_tail", no_tail)
        spec = write_spec(tmp_path, "big.json", tail_spec(700, 700))     # 490,000 samples
        assert main(["analyze", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "490000 samples, cap is 200000" in captured.err
        with pytest.raises(ResourceLimitError, match="82 samples"):
            build_from_spec(tail_spec(10, 8), max_samples=81)        # 10 + 9 * 8 samples
        price = 82 * 20 * 8                                         # horizon 10 + 8 + 2
        monkeypatch.setattr(core, "MAX_STORE_BYTES", price - 1)
        spec = write_spec(tmp_path, "tail.json", tail_spec(10, 8))
        assert main(["analyze", spec]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "orbit table (82 samples x 20 iterates)" in captured.err
        monkeypatch.undo()
        monkeypatch.setattr(core, "MAX_STORE_BYTES", price)
        assert build_from_spec(tail_spec(10, 8), max_samples=82).system.n == 82
        assert main(["analyze", spec]) == 0

    def test_golden_flow_stdout(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "fy.json", flow_spec("flow_Y"))
        for threads in ("1", "2", "3"):
            assert main(["analyze", spec, "--threads", threads]) == 0
            stdout = capsys.readouterr().out.encode()
            assert hashlib.sha256(stdout).hexdigest() == (
                "8f49f159f252428fcf3b95293dae03054b6718c7db9681c47bd7b1d5082d1463")

    @pytest.mark.parametrize("name, digest", [
        ("f2", "af68e9f4a2a83856707b2d5d383dca3af97879515e929777f57878013c630243"),
        ("tail", "1dd03eee24bf52e683c5c3d025b9f23999d56ac9269c44aa0d2255c9bc3311e6"),
    ])
    def test_golden_map_stdout(self, tmp_path, capsys, name, digest):
        spec = (f2_spec(tmp_path) if name == "f2"
                else write_spec(tmp_path, "tail.json", tail_spec(10, 8)))
        for threads in ("1", "2", "3"):
            assert main(["analyze", spec, "--threads", threads]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, spec, digest", [
        ("analyze_f2", {"kind": "map", "source": {"builtin": "f2"},
                        "grid": {"box": [[-5.0, 5.0]], "h": 0.01}, "horizon": {"n_max": 64}},
         "d91861549dc7e6c8c66a963cadc63acbf631b2f99bf1f2b7eb3b691e434f9292"),
        ("analyze_tail", tail_spec(30, 30),
         "f9d884cbbb27505a60e3070a0b9861870bef507a3ebe6dd5c2b0b096d5a5ea20"),
    ], ids=["analyze_f2", "analyze_tail"])
    def test_golden_analyze_workloads(self, tmp_path, capsys, name, spec, digest):
        """The benchmark's analyze_f2 (n = 1001, 9 samples gated) and
        analyze_tail (the 30x30 tail, n = 900, 1 gated) commands, at one and
        three threads: their pinned stdout."""
        path = write_spec(tmp_path, f"{name}.json", spec)
        for threads in ("1", "3"):
            assert main(["analyze", path, "--threads", threads]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_box_dimension_must_match_the_builtin(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "b.json", {
            "kind": "map", "source": {"builtin": "f2"},
            "grid": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "h": 0.5}})
        assert main(["analyze", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one [lo, hi] interval" in captured.err and "reshape" not in captured.err

    def test_explicit_cost_matrix_table(self, tmp_path):
        spec = write_spec(tmp_path, "m.json", {
            "kind": "map",
            "source": {"table": {"cost": [[0.0, 1.0], [1.0, 0.0]], "map": [1, 1]}},
        })
        out = tmp_path / "levels.csv"
        assert main(["analyze", spec, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,lambda,beta"
        assert lines[1] == "0,1,"
        assert lines[2] == "1,0,inf"

    def test_table_with_points_and_a_cost_matrix(self, tmp_path, capsys, monkeypatch):
        """A table may carry points beside a cost matrix that is not their
        distance; the levels come from the matrix.  300 targets make bands of
        256, so the pre-gate runs and the pass is banded, and it must give the
        whole level matrix's levels."""
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, (300, 2)).round(3)
        other = pts[rng.permutation(300)]
        cost = np.sqrt(np.sum((other[:, None, :] - other[None, :, :]) ** 2, axis=2))
        spec = write_spec(tmp_path, "pc.json", {
            "kind": "map", "horizon": {"n_max": 10}, "tolerance": {"tau": 0.05},
            "source": {"table": {"points": pts.tolist(), "cost": cost.tolist(),
                                 "map": rng.integers(0, 300, 300).tolist()}}})
        marked = []
        pre_gate = links.pre_gate
        monkeypatch.setattr(links, "pre_gate",
                            lambda *a: marked.append(pre_gate(*a)) or marked[-1])
        assert main(["analyze", spec]) == 0
        banded = capsys.readouterr().out
        assert main(["analyze", spec, "--matrix-out", str(tmp_path / "L.csv")]) == 0
        assert capsys.readouterr().out == banded
        assert main(["diagram", spec, "--eps-max", "1", "--eps-step", "0.25"]) == 0
        assert len(marked) == 2 and all(m is not None for m in marked)


class TestDetect:
    def test_doubling_map_found(self, tmp_path, capsys):
        spec = f2_spec(tmp_path, h=0.02)
        out = tmp_path / "certs.json"
        assert main(["detect", spec, "--min-gap", "0.3", "--out", str(out)]) == 0
        table = capsys.readouterr().out.strip().split("\n")
        assert table[0] == "x,z,eps,gap"
        assert len(table) > 1
        payload = json.loads(out.read_text())
        assert payload["certificates"]
        top = payload["certificates"][0]
        assert top["gap"] >= 0.3

    def test_identity_none_exit_1(self, tmp_path):
        spec = write_spec(tmp_path, "id.json", {
            "kind": "map", "source": {"builtin": "identity"},
            "grid": {"box": [[-1.0, 1.0]], "h": 0.05}})
        assert main(["detect", spec]) == 1

    def test_tail_start_certified(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "tail.json", {
            "kind": "map",
            "source": {"builtin": "counterexample_tail",
                       "params": {"n_max": 12, "m_max": 12}}})
        assert main(["detect", spec, "--min-gap", "0.05"]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.strip().split("\n")[1:]]
        # the start point of the tail is index 0 by construction
        assert any(r[0] == "0" for r in rows)

    def test_golden_stdout_and_json(self, tmp_path, capsys):
        # certificates carry no witnesses, so neither output names one
        spec = write_spec(tmp_path, "f2_16.json", {
            "kind": "map", "source": {"builtin": "f2"},
            "grid": {"box": [[-1.0, 1.0]], "h": 0.02}, "horizon": {"n_max": 16}})
        out = tmp_path / "certs.json"
        assert main(["detect", spec, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "dc3f1600b98942d477f320fa0551b700162b5a4c49d7f1f18b24b034ca93e207")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "86727025a6a3c828fa2c2158980404a1f22ce94ed381239327ebf46fdf751865")

    def test_golden_detect_workload(self, tmp_path, capsys):
        """The benchmark's detect_f2 command (n = 401, 76,144 certificates), at
        one and three threads: its pinned stdout."""
        spec = write_spec(tmp_path, "f2.json", {
            "kind": "map", "source": {"builtin": "f2"},
            "grid": {"box": [[-2.0, 2.0]], "h": 0.01}, "horizon": {"n_max": 64}})
        for threads in ("1", "3"):
            assert main(["detect", spec, "--threads", threads]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
                "5ddfa2eb4b061a2f29a567c48bdf3c164b9c5bc04bd20964cadb86ab4cbb2fc9")

    def test_limit_below_one_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f2.json", {
            "kind": "map", "source": {"builtin": "f2"},
            "grid": {"box": [[-1.0, 1.0]], "h": 0.1}, "horizon": {"n_max": 8}})
        for limit in ("-1", "0"):
            assert main(["detect", spec, "--limit", limit]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--limit" in captured.err
        assert main(["detect", spec, "--limit", "1"]) == 0
        assert capsys.readouterr().out.count("\n") == 2

    @pytest.mark.parametrize("gap", ["nan", "0", "-1"])
    def test_min_gap_not_positive_rejected_before_load(self, tmp_path, capsys, gap):
        # 10,001 samples: past the level-matrix cap, so any work would exit 3
        spec = f2_spec(tmp_path, h=0.001, box=(-5.0, 5.0))
        assert main(["detect", spec, "--min-gap", gap]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--min-gap" in captured.err

    def test_infinite_min_gap_writes_standard_json(self, tmp_path, capsys):
        """--min-gap inf reports only the pairs that never return; the --out file
        writes that gap and the minimum gap as "inf", with no certificate (f2,
        exit 1) and with one (a two-point table with an infinite cost)."""
        oneway = write_spec(tmp_path, "oneway.json", {
            "kind": "map", "source": {"table": {"cost": [[0.0, 1.0], ["inf", 0.0]],
                                                "map": [0, 1]}}})
        out = tmp_path / "certs.json"
        for spec, code, certs in ((f2_spec(tmp_path, h=0.1), 1, []),
                                  (oneway, 0, [{"x": 0, "z": 1, "eps": 1.0, "gap": "inf"}])):
            assert main(["detect", spec, "--min-gap", "inf", "--out", str(out)]) == code
            payload = strict_json(out.read_text())
            assert payload["min_gap"] == "inf"
            assert [{k: c[k] for k in ("x", "z", "eps", "gap")}
                    for c in payload["certificates"]] == certs
            assert capsys.readouterr().out.count("\n") == 1 + len(certs)

    def test_semiflow_rejected(self, tmp_path):
        spec = write_spec(tmp_path, "fz.json", {
            "kind": "semiflow", "source": {"builtin": "flow_Z"},
            "grid": {"box": [[-1.0, 1.0]], "h": 0.1},
            "horizon": {"dt": 0.05, "t_min": 1.0, "t_max": 3.0}})
        assert main(["detect", spec]) == 2


class TestDiagram:
    def test_halving_map_slices(self, tmp_path):
        spec = write_spec(tmp_path, "fh.json", {
            "kind": "map", "source": {"builtin": "f_half"},
            "grid": {"box": [[-5.0, 5.0]], "h": 0.02},
            "horizon": {"n_max": 64}})
        out = tmp_path / "d.json"
        assert main(["diagram", spec, "--eps-min", "0", "--eps-max", "2",
                     "--eps-step", "0.5", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        by_level = {s["level"]: s for s in payload["slices"]}
        assert list(by_level) == ["-2.0", "-1.5", "-1.0", "-0.5", "-0", "+0",
                                  "0.5", "1.0", "1.5", "2.0"]
        (iv,) = by_level["1.0"]["intervals"]
        assert abs(iv[0] + 3.0) <= 0.04 and abs(iv[1] - 3.0) <= 0.04
        (iv0,) = by_level["-1.0"]["intervals"]
        assert abs(iv0[0]) <= 0.02 and abs(iv0[1]) <= 0.02

    def test_flow_diagram_and_svg(self, tmp_path):
        spec = write_spec(tmp_path, "fz.json", {
            "kind": "semiflow", "source": {"builtin": "flow_Z"},
            "grid": {"box": [[-1.0, 1.0]], "h": 0.02},
            "horizon": {"dt": 0.01, "t_min": 5.0, "t_max": 10.0}})
        out, svg = tmp_path / "d.json", tmp_path / "d.svg"
        assert main(["diagram", spec, "--eps-max", "1", "--eps-step", "0.25",
                     "--json", str(out), "--svg", str(svg)]) == 0
        payload = json.loads(out.read_text())
        slice_sizes = [len(s["members"]) for s in payload["slices"]]
        assert slice_sizes == sorted(slice_sizes)
        assert svg.read_bytes().startswith(b"<svg")

    def test_golden_flow_stdout_and_svg(self, tmp_path, capsys):
        """The semiflow path end to end: JSON and SVG bytes at every thread count."""
        spec = write_spec(tmp_path, "att.json", flow_spec("flow_att"))
        svg = tmp_path / "d.svg"
        for threads in ("1", "2", "3"):
            assert main(["diagram", spec, "--eps-max", "1", "--eps-step", "0.25",
                         "--svg", str(svg), "--threads", threads]) == 0
            stdout = capsys.readouterr().out.encode()
            assert hashlib.sha256(stdout).hexdigest() == (
                "792f8b7d14c6433ce5ef5a54aba9600ee04c3bf79758c596d6992d570d0948c3")
            assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
                "4f151e6e3a5d25925fd1c6461ae362a9ad4a0f3cdcc870a57a55939d4591541f")

    def test_golden_flow_att_workload(self, tmp_path, capsys):
        """The benchmark's diagram_flow_att command (n = 1201, 605 samples
        gated), at one and three threads: its pinned stdout and SVG bytes."""
        spec = write_spec(tmp_path, "att.json", {
            "kind": "semiflow", "source": {"builtin": "flow_att"},
            "grid": {"box": [[-3.0, 3.0]], "h": 0.005},
            "horizon": {"dt": 0.01, "t_min": 1.0, "t_max": 20.0}})
        svg = tmp_path / "d.svg"
        for threads in ("1", "3"):
            assert main(["diagram", spec, "--eps-max", "2", "--eps-step", "0.25",
                         "--svg", str(svg), "--threads", threads]) == 0
            stdout = capsys.readouterr().out.encode()
            assert hashlib.sha256(stdout).hexdigest() == (
                "84c5fd5c45d49f8124149a3a16b8fc479c52ac97c8421c73bb53cf2ea4d1a64e")
            assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
                "eb1affd097fb3718eac11b6a9aa6270159336b8db4fb0e59b60314a2ba90e278")

    def test_zero_step_rejected(self, tmp_path):
        spec = f2_spec(tmp_path)
        assert main(["diagram", spec, "--eps-max", "1", "--eps-step", "0"]) == 2

    def test_slice_count_gated_before_any_work(self, tmp_path, capsys):
        # the spec would fail to load, so each verdict comes before any loading
        spec = write_spec(tmp_path, "u.json", {"kind": "map",
                                               "source": {"builtin": "mystery"}})
        for args, code, hint in ((["--eps-max", "2", "--eps-step", "1e-9"], 3, "--eps-step"),
                                 (["--eps-min", "1e6", "--eps-max", "1e6",
                                   "--eps-step", "1e-12"], 3, "--eps-step"),
                                 (["--eps-max", "inf", "--eps-step", "1"], 2, "finite"),
                                 (["--eps-max", "1", "--eps-step", "nan"], 2, "finite")):
            assert main(["diagram", spec, *args]) == code
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert hint in captured.err

    def test_svg_smaller_than_its_margins_rejected_before_any_work(self, tmp_path, capsys,
                                                                    monkeypatch):
        """A canvas with no room for the plot inside the margins (58 x 44 px) once
        wrote negative widths; it exits 2 with nothing on stdout and no SVG."""
        spec = f2_spec(tmp_path, h=0.25)
        svg = tmp_path / "d.svg"
        loads = []
        monkeypatch.setattr("nwfilt.cli.load_system",
                            lambda path: loads.append(path) or load_system(path))
        argv = ["diagram", spec, "--eps-max", "1", "--eps-step", "0.5", "--svg", str(svg)]
        for size in (["--width", "1", "--height", "1"], ["--width", "59"], ["--height", "44"],
                     ["--width", "-640"]):
            assert main(argv + size) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert "leaves no room for the plot" in captured.err
        assert loads == [] and not svg.exists()
        assert main(argv + ["--width", "60", "--height", "45"]) == 0
        sizes = re.findall(r'(?:width|height)="(-?[0-9.]+)"', svg.read_text())
        assert sizes and min(map(float, sizes)) > 0

    def test_svg_of_a_2d_system_rejected_before_the_pass(self, tmp_path, capsys,
                                                         monkeypatch):
        """The 2-D tail has no 1-D coordinates to draw: --svg exits 2 once the
        spec is loaded, before the gated pass, with nothing on stdout and no SVG."""
        spec = write_spec(tmp_path, "tail.json", tail_spec(10, 8))
        svg = tmp_path / "d.svg"

        def no_pass(*args, **kwargs):
            raise AssertionError("level_summary must not run")

        monkeypatch.setattr("nwfilt.cli.level_summary", no_pass)
        assert main(["diagram", spec, "--eps-max", "1", "--eps-step", "0.5",
                     "--svg", str(svg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "1-D" in captured.err and not svg.exists()

    def test_magnitudes_at_the_gate(self):
        from argparse import Namespace
        from nwfilt.cli import MAX_BUDGETS, _parse_magnitudes
        mags = _parse_magnitudes(Namespace(eps_min=0.0, eps_max=2.0, eps_step=0.25))
        assert mags == [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        step = 1.0 / 8192   # a power of two, so the budgets are exact
        at_cap = Namespace(eps_min=step, eps_max=MAX_BUDGETS * step, eps_step=step)
        assert len(_parse_magnitudes(at_cap)) == MAX_BUDGETS
        with pytest.raises(ResourceLimitError):
            _parse_magnitudes(Namespace(eps_min=0.0, eps_max=MAX_BUDGETS * step, eps_step=step))


class TestVerify:
    def test_clean_sweep(self, capsys):
        assert main(["verify", "--seeds", "40", "--max-size", "6"]) == 0
        assert "violations=0" in capsys.readouterr().out

    def test_zero_seeds_rejected(self):
        assert main(["verify", "--seeds", "0"]) == 2

    def test_negative_seed_start_rejected_before_any_work(self, capsys):
        assert main(["verify", "--seeds", "1", "--seed-start", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed-start" in captured.err

    def test_max_size_bounds_enforced(self):
        assert main(["verify", "--seeds", "1", "--max-size", "99"]) == 2

    def test_failure_dump_round_trips_through_the_loader(self, tmp_path):
        from nwfilt.oracle import random_instance
        from nwfilt.specfile import build_from_spec, instance_to_spec
        inst = random_instance(10)   # this seed plants an infinite cost entry
        assert np.any(np.isinf(inst.cost))
        spec = instance_to_spec(inst.cost, inst.table, inst.horizon)
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(spec))
        loaded = build_from_spec(json.loads(path.read_text()))
        np.testing.assert_array_equal(loaded.system.space.matrix, inst.cost)
        np.testing.assert_array_equal(loaded.system.orbit_table[:, 0], inst.table)
        assert loaded.tau == 0.0


class TestFileErrors:
    """Unreadable specs and unwritable outputs exit 2 with one stderr line and
    nothing on stdout; output paths are checked before the spec is loaded."""

    @pytest.mark.parametrize("cmd", [["analyze"], ["detect"],
                                     ["diagram", "--eps-max", "1", "--eps-step", "0.5"]])
    def test_missing_or_unreadable_spec(self, tmp_path, capsys, cmd):
        for spec in (tmp_path / "missing.json", tmp_path):     # absent, a directory
            assert main([cmd[0], str(spec), *cmd[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "cannot read" in captured.err

    @pytest.mark.parametrize("args", [
        ["analyze", "{spec}", "--out", "{bad}"],
        ["analyze", "{spec}", "--matrix-out", "{bad}"],
        ["diagram", "{spec}", "--eps-max", "1", "--eps-step", "0.5", "--json", "{bad}"],
        ["diagram", "{spec}", "--eps-max", "1", "--eps-step", "0.5", "--svg", "{bad}"],
        ["detect", "{spec}", "--out", "{bad}"],
    ])
    def test_unwritable_output_exits_2_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, args):
        spec = f2_spec(tmp_path, h=0.25)
        loads = []
        monkeypatch.setattr("nwfilt.cli.load_system",
                            lambda path: loads.append(path) or load_system(path))
        for bad in (tmp_path / "missing" / "out", tmp_path):   # no such directory, a directory
            argv = [a.replace("{spec}", spec).replace("{bad}", str(bad)) for a in args]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "cannot write" in captured.err
        assert loads == []

    @pytest.mark.parametrize("args", [
        ["analyze", "{spec}", "--out", "{a}", "--matrix-out", "{b}"],
        ["diagram", "{spec}", "--eps-max", "1", "--eps-step", "0.5", "--json", "{a}",
         "--svg", "{b}"],
    ])
    def test_two_outputs_to_one_file_exit_2_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, args):
        """Equal output paths once overwrote each other and exited 0; spelled
        alike or through '..', they now exit 2 before the spec is loaded."""
        spec = f2_spec(tmp_path, h=0.25)
        (tmp_path / "sub").mkdir()
        loads = []
        monkeypatch.setattr("nwfilt.cli.load_system",
                            lambda path: loads.append(path) or load_system(path))
        out = tmp_path / "out"
        for a, b in ((out, out), (out, tmp_path / "sub" / ".." / "out")):
            argv = [x.replace("{spec}", spec).replace("{a}", str(a)).replace("{b}", str(b))
                    for x in args]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.count("\n") == 1 and "two outputs" in captured.err
        assert loads == []
        argv = [x.replace("{spec}", spec).replace("{a}", str(out)).replace("{b}", str(out) + "2")
                for x in args]
        assert main(argv) == 0

    def test_unusable_failure_dump_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        for bad in (blocker, blocker / "dump"):
            assert main(["verify", "--seeds", "1", "--dump-failures", str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1


class TestBuiltinsReachable:
    def test_every_builtin_loads_from_a_plain_spec(self):
        from nwfilt.builtins import builtin, builtin_names
        from nwfilt.specfile import build_from_spec
        for name in builtin_names():
            b = builtin(name)
            spec = {"kind": "semiflow" if b.kind == "semiflow" else "map",
                    "source": {"builtin": name}}
            if b.kind == "map":
                spec["grid"] = {"box": [[-1.0, 1.0]], "h": 0.25}
                spec["horizon"] = {"n_max": 8}
            elif b.kind == "semiflow":
                spec["grid"] = {"box": [[-1.0, 1.0]], "h": 0.25}
                spec["horizon"] = {"dt": 0.1, "t_min": 0.5, "t_max": 2.0}
            else:
                spec["source"]["params"] = {"n_max": 4, "m_max": 3}
            loaded = build_from_spec(spec)
            assert loaded.system.n >= 1


class TestDeterminism:
    def test_analyze_bytes_stable_across_threads(self, tmp_path):
        spec = f2_spec(tmp_path, h=0.02, box=(-5.0, 5.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["analyze", spec, "--out", str(a), "--threads", "1"]) == 0
        assert main(["analyze", spec, "--out", str(b), "--threads", "8"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        spec = f2_spec(tmp_path)
        for cmd in (["analyze", spec], ["detect", spec],
                    ["diagram", spec, "--eps-max", "1", "--eps-step", "0.5"]):
            assert main(cmd + ["--threads", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "--threads" in captured.err

    def test_more_threads_than_tiles(self, tmp_path, capsys):
        spec = f2_spec(tmp_path, h=0.02, box=(-1.0, 1.0))   # 101 samples: four row bands
        outs = []
        for threads in ("1", "16"):
            assert main(["detect", spec, "--threads", threads]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_detect_bytes_stable_across_threads(self, tmp_path):
        spec = f2_spec(tmp_path, h=0.02)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["detect", spec, "--out", str(a), "--threads", "1"]) == 0
        assert main(["detect", spec, "--out", str(b), "--threads", "8"]) == 0
        assert a.read_bytes() == b.read_bytes()
