import hashlib
import json
import time

import numpy as np
import pytest

from nwfilt import cli, core, flows, links
from nwfilt.cli import main
from nwfilt.core import ResourceLimitError
from nwfilt.links import horizon_stability
from nwfilt.specfile import load_system


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
            assert main(["analyze", spec]) == 0
            err = capsys.readouterr().err
            assert f"horizon check at n_max={n_max // 2}: {want}\n" in err
            assert "Warning" not in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_horizon_line_matches_horizon_stability(self, tmp_path, capsys, threads):
        """analyze runs the check in its level-matrix pass; the stderr line is the
        one horizon_stability's report gives."""
        spec = write_spec(tmp_path, "tail.json", {
            "kind": "map", "source": {"builtin": "counterexample_tail",
                                      "params": {"n_max": 10, "m_max": 8}}})
        system = load_system(spec).system
        rep = horizon_stability(system)
        assert not rep.stable
        want = (f"horizon check at n_max={rep.reduced_horizon}: {rep.changed_pairs} "
                f"pairs changed (max {rep.max_change:.3g})\n")
        assert main(["analyze", spec, "--threads", threads]) == 0
        assert want in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, arrays", [("analyze", 3), ("detect", 2), ("flow", 2)])
    def test_level_arrays_priced_before_allocation(self, tmp_path, capsys, monkeypatch,
                                                   cmd, arrays):
        """D, M, the half-horizon M of analyze's check, and the levels, priced
        against core.MAX_MATRIX_BYTES before any of them is allocated."""
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
        price = 8 * n * (arrays * n + n)
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
        np.testing.assert_array_equal(loaded.system.step_table, inst.table)
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
