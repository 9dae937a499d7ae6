import argparse
import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binaryrisk import GridSpec, PopulationParams, cli, derive_measures, max_feasible_rr, par
from binaryrisk.cli import build_parser, main

from _oracles import derive_exact, exact_par, meets_solver_contract, tabulate_cohort, ulps_off

C_INDEX_02 = 0.5408580183861083
PAR_02 = 0.09090909090909091

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def run_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def _argv_from_inputs(command, inputs):
    argv = [command]
    for key, value in inputs.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            argv.extend([flag, ",".join(str(v) for v in value)])
        else:
            argv.extend([flag, str(value)])
    return argv


class TestCompute:
    def test_reference_scenario(self, run_cli):
        code, out, err = run_cli("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5")
        assert code == 0
        assert err == ""
        envelope = json.loads(out)
        assert envelope["schema_version"] == "1"
        assert envelope["command"] == "compute"
        assert envelope["warnings"] == []
        results = envelope["results"]
        assert results["par"] == pytest.approx(PAR_02, abs=1e-9)
        assert results["c_index"] == pytest.approx(C_INDEX_02, abs=1e-9)

    def test_null_effect(self, run_cli):
        code, out, _ = run_cli("compute", "--f", "0.5", "--p0", "0.1", "--rr", "1.0")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["par"] == 0.0
        assert results["c_index"] == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_scenario_exits_2(self, run_cli):
        code, out, err = run_cli("compute", "--f", "0.5", "--p0", "0.8", "--rr", "1.5")
        assert code == 2
        assert out == ""
        assert "rr*p0" in err

    def test_percent_style_input_rejected(self, run_cli):
        # proportions only; 20 is not silently divided by 100
        code, out, err = run_cli("compute", "--f", "20", "--p0", "0.1", "--rr", "1.5")
        assert code == 2
        assert out == ""
        assert "f" in err

    def test_missing_flag_exits_2(self, run_cli):
        code, _, err = run_cli("compute", "--f", "0.2", "--p0", "0.1")
        assert code == 2
        assert err != ""

    def test_unknown_command_exits_2(self, run_cli):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_help_exits_0(self, run_cli):
        code, out, _ = run_cli("--help")
        assert code == 0
        assert "compute" in out

    def test_out_file_json(self, run_cli, tmp_path):
        target = tmp_path / "measures.json"
        code, out, _ = run_cli(
            "compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5", "--out", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["c_index"] == pytest.approx(C_INDEX_02, abs=1e-9)
        assert json.loads(out)["results"]["files"] == [str(target)]

    def test_out_file_csv(self, run_cli, tmp_path):
        target = tmp_path / "measures.csv"
        code, _, _ = run_cli(
            "compute",
            "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        header, row = target.read_text().splitlines()
        assert header.split(",") == ["p1", "f_cases", "f_controls", "par", "c_index"]
        assert float(row.split(",")[4]) == pytest.approx(C_INDEX_02, abs=1e-9)

    def test_csv_without_out_exits_2(self, run_cli):
        code, out, err = run_cli(
            "compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5", "--format", "csv"
        )
        assert code == 2
        assert out == ""
        assert "--out" in err

    @pytest.mark.parametrize(
        "f, p0, rr, field",
        [
            # f*p1 = 1e-400 underflows to 0 while the overall incidence is 1e-200
            ("1e-300", "1e-200", "1e100", "f_cases"),
            # f*(1-p1) underflows to 0 while 1 - P is about 1e-16
            ("5e-324", "0.9999999999999999", "0.5", "f_controls"),
        ],
        ids=["f_cases", "f_controls"],
    )
    def test_prevalence_whose_product_underflows(self, f, p0, rr, field, run_cli):
        code, out, _ = run_cli("compute", "--f", f, "--p0", p0, "--rr", rr)
        assert code == 0
        results = json.loads(out)["results"]
        f, p0 = float(f), float(p0)
        exact = derive_exact(f, p0, Fraction(results["p1"]) / Fraction(p0))
        assert results[field] > 0.0
        for name in ("p1", "f_cases", "f_controls", "par", "c_index"):
            assert ulps_off(results[name], exact[name]) <= 4, name

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5"),
            ("solve", "--f", "0.2", "--target-par", "0.1", "--tolerance", "1e-8"),
            ("solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.55", "--tolerance", "1e-12"),
            (
                "simulate", "--f", "0.2", "--p0", "0.1", "--rr", "1.5", "--n", "20000",
                "--seed", "7", "--format", "csv", "--out", "cohort.csv",
            ),
        ],
        ids=["compute", "solve-target-par", "solve-target-c", "simulate-csv-out"],
    )
    def test_envelope_inputs_reparse_identically(self, argv, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(*argv)
        assert code == 0
        inputs = json.loads(out)["inputs"]
        code2, out2, _ = run_cli(*_argv_from_inputs(argv[0], inputs))
        assert code2 == 0
        assert json.loads(out2)["inputs"] == inputs


class TestSolve:
    def test_target_par(self, run_cli):
        code, out, _ = run_cli("solve", "--f", "0.2", "--target-par", "0.0909090909090909")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rr"] == pytest.approx(1.5, abs=1e-9)
        assert results["verification"]["par"] == pytest.approx(0.0909090909090909, abs=1e-9)

    def test_target_c_null_effect(self, run_cli):
        code, out, _ = run_cli("solve", "--f", "0.3", "--p0", "0.05", "--target-c", "0.5")
        assert code == 0
        assert json.loads(out)["results"]["rr"] == 1.0

    def test_target_c_reference(self, run_cli):
        code, out, _ = run_cli(
            "solve", "--f", "0.2", "--p0", "0.1", "--target-c", repr(C_INDEX_02)
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rr"] == pytest.approx(1.5, abs=1e-8)
        assert results["verification"]["c_index"] == pytest.approx(C_INDEX_02, abs=1e-10)

    def test_target_c_one_ulp_above_bracket_end(self, run_cli):
        # c(f=0.2, p0=0.2, rr=4.999999999999999); c at the bracket end rr = 5
        # is one ulp lower, so the target lies within tolerance of it
        code, out, _ = run_cli(
            "solve", "--f", "0.2", "--p0", "0.2", "--target-c", "0.7777777777777778"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rr"] == 5.0
        assert results["verification"]["c_index"] == pytest.approx(0.7777777777777778, abs=1e-10)

    def test_target_c_large_rr_at_small_p0(self, run_cli):
        # the float spacing of rr near 1e9 exceeds the default tolerance
        code, out, _ = run_cli("solve", "--f", "0.5", "--p0", "1e-9", "--target-c", "0.99")
        assert code == 0
        envelope = json.loads(out)  # exactly one JSON document on stdout
        rr = envelope["results"]["rr"]
        assert meets_solver_contract(0.5, 1e-9, 0.99, rr, 1e-10)

    @pytest.mark.parametrize("value", ["0", "-1e-9", "inf", "nan"])
    def test_invalid_tolerance_exits_2(self, run_cli, value):
        # the = form, since argparse reads a bare "-1e-9" as an option
        code, out, err = run_cli(
            "solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.55", f"--tolerance={value}"
        )
        assert code == 2
        assert out == ""
        assert "tolerance must be" in err

    def test_target_par_rr_beyond_float_range_exits_2(self, run_cli):
        # f * (1 - target_par) underflows to 0
        code, out, err = run_cli("solve", "--f", "5e-324", "--target-par", "0.5")
        assert code == 2
        assert out == ""
        assert "floating point range" in err

    def test_unreachable_target_exits_2(self, run_cli):
        code, out, err = run_cli("solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.99")
        assert code == 2
        assert out == ""
        assert "unreachable" in err
        assert "0.5" in err  # the achievable range is part of the diagnostic

    def test_both_targets_exit_2(self, run_cli):
        code, _, err = run_cli(
            "solve", "--f", "0.2", "--target-par", "0.1", "--target-c", "0.55"
        )
        assert code == 2
        assert "exactly one" in err

    def test_no_target_exits_2(self, run_cli):
        code, _, _ = run_cli("solve", "--f", "0.2")
        assert code == 2

    def test_target_c_requires_p0(self, run_cli):
        code, _, err = run_cli("solve", "--f", "0.2", "--target-c", "0.55")
        assert code == 2
        assert "--p0" in err

    def test_unused_p0_is_warned(self, run_cli):
        code, out, _ = run_cli(
            "solve", "--f", "0.2", "--p0", "0.1", "--target-par", "0.1"
        )
        assert code == 0
        assert json.loads(out)["warnings"]

    @pytest.mark.parametrize(
        "flag, value", [("--p0", "nan"), ("--p0", "inf"), ("--tolerance", "nan")]
    )
    def test_unused_non_finite_flag_exits_2(self, run_cli, flag, value):
        # the PAR path ignores --p0/--tolerance but echoes them in the envelope
        code, out, err = run_cli("solve", "--f", "0.2", "--target-par", "0.1", flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag[2:]} must be finite" in err


class TestSimulate:
    def test_close_to_closed_form(self, run_cli):
        code, out, _ = run_cli(
            "simulate",
            "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
            "--n", "200000", "--seed", "7",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["difference"]["c_index"]) < 0.01
        counts = results["counts"]
        assert sum(counts.values()) == 200000

    def test_deterministic_output(self, run_cli):
        argv = (
            "simulate",
            "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
            "--n", "50000", "--seed", "7",
        )
        code1, out1, _ = run_cli(*argv)
        code2, out2, _ = run_cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_degenerate_cohort_exits_2_with_guidance(self, run_cli):
        code, out, err = run_cli(
            "simulate",
            "--f", "0.001", "--p0", "0.0001", "--rr", "1.1",
            "--n", "10", "--seed", "1",
        )
        assert code == 2
        assert out == ""
        assert "--n" in err

    # sizes no 64-bit machine can allocate, so the test cannot exhaust memory
    @pytest.mark.parametrize(
        "n, message",
        [
            ("1000000000000000000", "out of memory"),
            ("2000000000000000000", "n_subjects must be at most"),
            ("10000000000000000000", "n_subjects must be at most"),
        ],
    )
    def test_oversized_cohort_exits_2(self, run_cli, n, message):
        code, out, err = run_cli(
            "simulate", "--f", "0.2", "--p0", "0.1", "--rr", "2", "--n", n, "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert message in err
        if message == "out of memory":
            assert "--n" in err

    def test_seed_is_mandatory(self, run_cli):
        code, _, _ = run_cli(
            "simulate", "--f", "0.2", "--p0", "0.1", "--rr", "1.5", "--n", "100"
        )
        assert code == 2

    def test_csv_payload(self, run_cli, tmp_path):
        target = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            "simulate",
            "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
            "--n", "10000", "--seed", "3",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        header = target.read_text().splitlines()[0]
        assert "counts.n_exposed_case" in header
        assert "difference.c_index" in header


class TestSweep:
    def test_default_sweep_writes_grids_json(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli("sweep", "--resolution", "41")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["results"]["files"] == ["grids.json"]
        panels = envelope["results"]["panels"]
        assert [p["prevalence"] for p in panels] == [0.5, 0.2, 0.1]
        assert all(p["c_min"] == 0.5 for p in panels)
        document = json.loads((tmp_path / "grids.json").read_text())
        assert len(document["grids"]) == 3

    def test_reported_bound_holds_in_written_grid(self, run_cli, tmp_path):
        target = tmp_path / "grids.json"
        code, _, _ = run_cli("sweep", "--out", str(target))
        assert code == 0
        document = json.loads(target.read_text())
        grid = next(g for g in document["grids"] if g["prevalence"] == 0.2)
        i = min(
            range(len(grid["rr_axis"])), key=lambda k: abs(grid["rr_axis"][k] - 1.5)
        )
        row_max = max(
            c
            for c, p0 in zip(grid["c_values"][i], grid["p0_axis"])
            if c is not None and p0 <= 0.1
        )
        assert row_max <= 0.555

    def test_csv_format(self, run_cli, tmp_path):
        target = tmp_path / "grids.csv"
        code, out, _ = run_cli(
            "sweep", "--resolution", "11", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "f,p0,rr,par,c_index,masked"
        assert len(lines) == 1 + 3 * 11 * 11
        assert json.loads(out)["results"]["files"] == [str(target)]

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--prevalences", "a"),
            ("plot", "--levels", "0.5,x"),
            ("sweep", "--prevalences", ","),
        ],
    )
    def test_malformed_list_flag_exits_2(self, run_cli, argv):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert f"expected a comma-separated list of numbers, got {argv[-1]!r}" in err
        assert "_float_tuple" not in err

    def test_resolution_1_exits_2(self, run_cli):
        code, out, err = run_cli("sweep", "--resolution", "1")
        assert code == 2
        assert out == ""
        assert "resolution" in err

    def test_unallocatable_resolution_exits_2(self, run_cli, tmp_path):
        # 10^14 cells: no 64-bit machine can allocate the grid
        target = tmp_path / "grids.json"
        code, out, err = run_cli(
            "sweep", "--resolution", "10000000", "--prevalences", "0.5", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert "--resolution" in err
        assert not target.exists()

    def test_resolution_beyond_numpy_arrays_exits_2(self, run_cli, tmp_path):
        # 2^124 cells: more than a numpy array can even be asked to hold
        target = tmp_path / "grids.json"
        code, out, err = run_cli(
            "sweep", "--resolution", str(2**62), "--prevalences", "0.5", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: resolution must be at most")
        assert not target.exists()

    def test_unwritable_out_exits_3(self, run_cli):
        code, out, err = run_cli(
            "sweep", "--resolution", "11", "--out", "/nonexistent-dir/grids.json"
        )
        assert code == 3
        assert out == ""
        assert err != ""

    def test_envelope_inputs_reparse_identically(self, run_cli, tmp_path):
        target = tmp_path / "grids.json"
        argv = (
            "sweep",
            "--prevalences", "0.4,0.2",
            "--p0-min", "0.01", "--p0-max", "0.2",
            "--rr-min", "1.0", "--rr-max", "2.5",
            "--resolution", "21",
            "--levels", "0.52,0.55",
            "--out", str(target),
        )
        code, out, _ = run_cli(*argv)
        assert code == 0
        inputs = json.loads(out)["inputs"]
        assert inputs["prevalences"] == [0.4, 0.2]
        code2, out2, _ = run_cli(*_argv_from_inputs("sweep", inputs))
        assert code2 == 0
        assert json.loads(out2)["inputs"] == inputs


class TestPlot:
    def test_three_panel_figure(self, run_cli, tmp_path):
        target = tmp_path / "fig1.svg"
        code, out, _ = run_cli("plot", "--resolution", "41", "--out", str(target))
        assert code == 0
        assert json.loads(out)["results"]["files"] == [str(target)]
        root = ET.fromstring(target.read_text())
        panels = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "panel"]
        par_axes = [
            e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "axis axis-par"
        ]
        assert len(panels) == 3
        assert len(par_axes) == 3

    def test_default_output_name(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli("plot", "--resolution", "21")
        assert code == 0
        assert json.loads(out)["results"]["files"] == ["figure.svg"]
        assert (tmp_path / "figure.svg").exists()

    def test_byte_identical_across_runs(self, run_cli, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert run_cli("plot", "--resolution", "31", "--out", str(first))[0] == 0
        assert run_cli("plot", "--resolution", "31", "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_spec_exits_2(self, run_cli):
        code, _, _ = run_cli("plot", "--p0-min", "0.5", "--p0-max", "0.1")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--f", "0.2", "--p0", "5e-324", "--rr", "1"],
        ["sweep", "--prevalences", "0.2", "--p0-min", "5e-324", "--p0-max", "1e-300",
         "--rr-min", "1", "--rr-max", "2", "--resolution", "3", "--format", "csv"],
    ],
    ids=["compute", "sweep"],
)
def test_incidence_below_float_floor_exits_2(argv, run_cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert "below the float floor" in err
    assert list(tmp_path.iterdir()) == []


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        completed = subprocess.run(
            [sys.executable, "-m", "binaryrisk", "compute",
             "--f", "0.2", "--p0", "0.1", "--rr", "1.5"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert completed.returncode == 0
        envelope = json.loads(completed.stdout)
        assert envelope["results"]["par"] == pytest.approx(PAR_02, abs=1e-9)

    def test_module_invocation_error_code(self, tmp_path):
        completed = subprocess.run(
            [sys.executable, "-m", "binaryrisk", "compute",
             "--f", "0.5", "--p0", "0.8", "--rr", "1.5"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "rr*p0" in completed.stderr


class TestReusedParser:
    """``main`` builds its parser once per process; no call may see another's state."""

    def test_every_call_repeats_its_first_result(self, run_cli, tmp_path):
        cli._parser.cache_clear()
        sequence = [
            ("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5"),
            ("compute", "--f", "0.2", "--p0", "0.1"),
            ("--help",),
            ("compute", "--help"),
            ("compute", "--f", "0.5", "--p0", "0.8", "--rr", "1.5"),
            ("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
             "--out", str(tmp_path / "missing" / "measures.json")),
        ]
        first = [run_cli(*argv) for argv in sequence]
        assert [code for code, _, _ in first] == [0, 2, 0, 0, 2, 3]
        assert [run_cli(*argv) for argv in sequence + sequence[:1]] == first + first[:1]

    def test_help_follows_the_terminal_width_of_each_call(self, run_cli, monkeypatch, capsys):
        helps = []
        for columns in ("40", "160", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_cli("compute", "--help")
            with pytest.raises(SystemExit):
                build_parser().parse_args(["compute", "--help"])
            assert code == 0
            assert out == capsys.readouterr().out
            helps.append(out)
        assert helps[0] != helps[1]
        assert helps[0] == helps[2]

    def test_build_parser_returns_a_new_parser(self, run_cli):
        parser = build_parser()
        assert parser is not build_parser()
        parser.add_argument("--extra")
        code, out, _ = run_cli("--extra", "1", "compute", "--f", "0.2", "--p0", "0.1",
                               "--rr", "1.5")
        assert (code, out) == (2, "")
        assert "--extra" in parser.format_help()
        assert "--extra" not in run_cli("--help")[1]


# The whole-domain property draws each flag's value from ordinary values for
# that flag, or, a quarter of the time, from the edge alphabet: float edges,
# integers out of range and text that is no number.
_EDGES = st.sampled_from((
    "0", "1", "-1", "5e-324", "1e-300", "1e-310", "0.9999999999999999", "1.0000000000000002",
    "1e308", "inf", "nan", "-0.0", str(2**62), str(2**64), "x",
))


def _mostly(values):
    return st.integers(0, 3).flatmap(lambda k: values if k else _EDGES)


def _floats(low, high, **kwargs):
    return _mostly(st.floats(low, high, **kwargs).map(repr))


def _list(values):
    return _mostly(st.lists(values, min_size=1, max_size=3).map(",".join))


_PROB = _floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_RR = _floats(0.5, 5.0)
_C = _floats(0.45, 1.0)
_GRID_FLAGS = {
    "prevalences": _list(_PROB), "p0-min": _PROB, "p0-max": _PROB, "rr-min": _RR,
    "rr-max": _RR, "levels": _list(_C),
    # no lattice above 7 x 7
    "resolution": st.sampled_from(("-1", "0", "1", "2", "3", "7", "2.5", "x", str(2**62))),
}
_FLAGS = {
    "compute": {"f": _PROB, "p0": _PROB, "rr": _RR},
    "solve": {"f": _PROB, "p0": _PROB, "target-par": _PROB, "target-c": _C,
              "tolerance": _mostly(st.sampled_from(("1e-6", "1e-10", "1e-14")))},
    "simulate": {"f": _PROB, "p0": _PROB, "rr": _RR,
                 "n": _mostly(st.sampled_from(("50", "5000"))),
                 "seed": _mostly(st.sampled_from(("7", str(2**64 - 1))))},
    "sweep": _GRID_FLAGS,
    "plot": _GRID_FLAGS,
}
_SHARED_FLAGS = {
    "format": st.sampled_from(("json", "csv")),
    # a missing directory makes the write fail: exit 3
    "out": st.sampled_from(("payload.out", "missing/payload.out")),
}


def _flag_tokens(draw, flag, value):
    """``--flag=value`` a quarter of the time, else the two strings ``--flag value``
    that scripted callers send; most argvs then take the flag-table path."""
    return [f"--{flag}", value] if draw(st.integers(0, 3)) else [f"--{flag}={value}"]


def _flag_values(argv):
    """The value of each flag of an argv written by ``_flag_tokens``, by flag name."""
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, equals, value = token[2:].partition("=")
        values[flag] = value if equals else next(tokens)
    return values


def _with_tolerance(draw, argv):
    """``argv``, and half the time a ``--tolerance`` after its flags."""
    if draw(st.booleans()):
        argv += _flag_tokens(draw, "tolerance", draw(st.sampled_from(("1e-6", "1e-10", "1e-14"))))
    return argv


_REACHABLE_F = (st.sampled_from((5e-324, 1e-300, 0.5, 0.9999999999999999))
                | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@st.composite
def _reachable_solve(draw):
    """``solve --target-c`` for a target in [1/2, c(max_feasible_rr(p0))], with p0 >= 1e-300."""
    f = draw(_REACHABLE_F)
    p0 = draw(st.sampled_from((1e-300, 1e-10, 0.5, 0.9999999999999999))
              | st.floats(1e-300, 1.0, exclude_max=True))
    top = derive_measures(PopulationParams(f=f, p0=p0, rr=max_feasible_rr(p0))).c_index
    target = min(0.5 + draw(st.floats(0.0, 1.0)) * (top - 0.5), top)
    argv = ["solve"]
    for flag, value in (("f", f), ("p0", p0), ("target-c", target)):
        argv += _flag_tokens(draw, flag, repr(value))
    return _with_tolerance(draw, argv)


@st.composite
def _reachable_par_solve(draw):
    """``solve --target-par`` for the PAR of an rr in [1, 1e6]."""
    f = draw(_REACHABLE_F)
    argv = ["solve"]
    for flag, value in (("f", f), ("target-par", par(f, draw(st.floats(1.0, 1e6))))):
        argv += _flag_tokens(draw, flag, repr(value))
    return _with_tolerance(draw, argv)


@st.composite
def _valid_sweep(draw):
    """``sweep`` as JSON or CSV over a valid window, on a lattice of at most 7 x 7,
    with p0 >= 1e-300 and rr windows that reach into the masked corner rr*p0 > 1."""
    p0 = sorted(draw(st.lists(st.floats(1e-300, 1.0, exclude_max=True),
                              min_size=2, max_size=2, unique=True)))
    rr = sorted(draw(st.lists(st.floats(0.5, 5.0), min_size=2, max_size=2, unique=True)))
    prevalences = draw(st.lists(_REACHABLE_F, min_size=1, max_size=3))
    argv = ["sweep"]
    for flag, value in (
        ("prevalences", ",".join(map(repr, prevalences))),
        ("p0-min", repr(p0[0])), ("p0-max", repr(p0[1])),
        ("rr-min", repr(rr[0])), ("rr-max", repr(rr[1])),
        ("resolution", str(draw(st.integers(2, 7)))),
        ("format", draw(st.sampled_from(("json", "csv")))),
    ):
        argv += _flag_tokens(draw, flag, value)
    return argv


@st.composite
def _valid_compute(draw):
    """``compute`` with f in (0, 1), p0 >= 1e-200 and rr in (0, 1/p0]."""
    f = draw(_REACHABLE_F)
    p0 = draw(st.sampled_from((1e-200, 0.5, 0.9999999999999999))
              | st.floats(1e-200, 1.0, exclude_max=True))
    rr = draw(st.floats(0.0, max_feasible_rr(p0), exclude_min=True))
    argv = ["compute"]
    for flag, value in (("f", f), ("p0", p0), ("rr", rr)):
        argv += _flag_tokens(draw, flag, repr(value))
    return argv


@st.composite
def _valid_simulate(draw):
    """``simulate`` with both exposure groups, cases and controls all but surely drawn:
    f and p0 in [0.05, 0.5], rr in [0.5, 2] and n in [1000, 5000]."""
    argv = ["simulate"]
    for flag, value in (
        ("f", repr(draw(st.floats(0.05, 0.5)))), ("p0", repr(draw(st.floats(0.05, 0.5)))),
        ("rr", repr(draw(st.floats(0.5, 2.0)))), ("n", str(draw(st.integers(1000, 5000)))),
        ("seed", str(draw(st.integers(0, 2**64 - 1)))),
    ):
        argv += _flag_tokens(draw, flag, value)
    return argv


@st.composite
def _any_argv(draw):
    """Any command, each of its flags present or not, with a value drawn as in ``_FLAGS``,
    each in either of the two forms of ``_flag_tokens``."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        # without --resolution a lattice would be 201 x 201
        if flag == "resolution" or draw(st.integers(0, 15)):
            argv += _flag_tokens(draw, flag, draw(values))
    for flag, values in _SHARED_FLAGS.items():
        if not draw(st.integers(0, 3)):
            argv += _flag_tokens(draw, flag, draw(values))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# Where the rounded product rr*p0 lies within four floats of 1, the kernel's
# 1 - p1 can be 0 or off by its own size, so the c-index the library computes
# for a printed rr can differ from the exact one by up to about 1/3 (the
# FOUND line on p1 near 1 in CHANGES.md). The exact solver contract is not
# met there; TestWholeDomainContract.test_exact_contract_near_p1_one pins it.
_NEAR_ONE = 4 * 2.0**-53


def _sweep_cells(envelope):
    """Per cell of a sweep payload, in payload order: its c text as an exact
    ``Fraction`` (None if masked), its mask flag, and its (f, p0, rr) as floats.

    The lattice is read from the envelope's inputs, with ``GridSpec``'s
    defaults for the flags left out: ``resolution`` evenly spaced floats per
    axis, rr row by row and p0 within a row, one panel per prevalence.
    """
    inputs, defaults = envelope["inputs"], GridSpec()
    spec = {
        key: getattr(defaults, key) if inputs[key] is None else inputs[key]
        for key in ("prevalences", "p0_min", "p0_max", "rr_min", "rr_max", "resolution")
    }
    p0_axis = np.linspace(spec["p0_min"], spec["p0_max"], spec["resolution"]).tolist()
    rr_axis = np.linspace(spec["rr_min"], spec["rr_max"], spec["resolution"]).tolist()
    lattice = [(f, p0, rr) for f in spec["prevalences"] for rr in rr_axis for p0 in p0_axis]
    with open(envelope["results"]["files"][0], encoding="utf-8") as handle:
        text = handle.read()
    if inputs["format"] == "csv":
        rows = [row.split(",") for row in text.splitlines()[1:]]
        cells = [(Fraction(row[4]) if row[4] else None, row[5] == "true") for row in rows]
    else:
        # the exact decimal of each text, not its nearest float
        grids = json.loads(text, parse_float=Fraction)["grids"]
        cells = [
            cell
            for grid in grids
            for values, flags in zip(grid["c_values"], grid["mask"])
            for cell in zip(values, flags)
        ]
    assert len(cells) == len(lattice)
    return [(value, masked, *point) for (value, masked), point in zip(cells, lattice)]


def _check_sweep_payload(envelope):
    """Every mask flag is the float test rr*p0 > 1, and every other cell is
    the exact c-index rounded to 12 significant digits, give or take the
    2 ulp(1/2) that ``compute``'s c-index may be off by."""
    for value, masked, f, p0, rr in _sweep_cells(envelope):
        assert masked == (rr * p0 > 1.0)
        if masked:
            assert value is None
            continue
        # as for compute, the exact c at the rounded product p1 the kernel reads
        exact = derive_exact(f, p0, Fraction(rr * p0) / Fraction(p0))["c_index"]
        half_unit = Fraction(1, 2) * Fraction(10) ** (math.floor(math.log10(exact)) - 11)
        assert abs(value - exact) <= half_unit + 2 * Fraction(math.ulp(0.5)), (f, p0, rr)


def _check_exit_zero_results(argv, envelope):
    """Check what an exit-0 run of ``argv`` printed against the exact oracles."""
    flags = _flag_values(argv)
    if argv[0] == "compute":
        f, p0, rr = (float(flags[name]) for name in ("f", "p0", "rr"))
        inputs, results = envelope["inputs"], envelope["results"]
        assert (inputs["f"], inputs["p0"], inputs["rr"]) == (f, p0, rr)
        # p1 is the rounded rr*p0, the product the validation accepted
        p1 = results["p1"]
        assert p1 == rr * p0
        exact = derive_exact(f, p0, Fraction(p1) / Fraction(p0))
        for name in ("f_cases", "f_controls"):
            assert ulps_off(results[name], exact[name]) <= 4, name
        assert abs(Fraction(results["c_index"]) - exact["c_index"]) <= 2 * Fraction(math.ulp(0.5))
        # PAR reads the typed rr, not the rounded product
        assert ulps_off(results["par"], exact_par(f, rr)) <= 4
    elif argv[0] == "solve":
        f, rr = float(flags["f"]), envelope["results"]["rr"]
        verification = envelope["results"]["verification"]
        if "target-c" in flags:
            p0, target = float(flags["p0"]), float(flags["target-c"])
            forward = derive_measures(PopulationParams(f=f, p0=p0, rr=rr))
            assert verification["c_index"] == forward.c_index
            if 1.0 - rr * p0 > _NEAR_ONE:
                tolerance = float(flags.get("tolerance", 1e-10))
                assert meets_solver_contract(f, p0, target, rr, tolerance)
        else:
            assert ulps_off(verification["par"], exact_par(f, rr)) <= 4
            # the printed rr against the exact inversion of PAR at the typed target
            tp = Fraction(float(flags["target-par"]))
            assert ulps_off(rr, 1 + tp / (Fraction(f) * (1 - tp))) <= 4, (f, tp)
    elif argv[0] == "simulate":
        inputs, results = envelope["inputs"], envelope["results"]
        f, p0, rr = inputs["f"], inputs["p0"], inputs["rr"]
        counts = results["counts"]
        assert (
            counts["n_exposed_case"], counts["n_exposed_control"],
            counts["n_unexposed_case"], counts["n_unexposed_control"],
        ) == tabulate_cohort(f, p0, rr, inputs["n"], inputs["seed"])
        # the empirical record is the kernel at the printed plug-in rates
        rates = results["empirical"]
        exact = derive_exact(rates["f"], rates["p0"], Fraction(rates["p1"]) / Fraction(rates["p0"]))
        for name in ("f_cases", "f_controls", "c_index"):
            assert ulps_off(rates[name], exact[name]) <= 4, name
        # PAR reads the printed rr: at the exact p1/p0 the cancellation near
        # rr = 1 would cost up to about 100 ulp
        assert ulps_off(rates["par"], exact_par(rates["f"], rates["rr"])) <= 4
        # as for compute: the closed form at the rounded product p1
        closed_form = results["closed_form"]
        exact = derive_exact(f, p0, Fraction(closed_form["p1"]) / Fraction(p0))["c_index"]
        assert abs(Fraction(closed_form["c_index"]) - exact) <= 2 * Fraction(math.ulp(0.5))
    elif argv[0] == "sweep":
        _check_sweep_payload(envelope)


class TestWholeDomainContract:
    """Every argv gets exit 0 with one strict-JSON envelope, or exit 2 or 3 and
    an empty stdout; what exit 0 reports is checked against the exact oracles."""

    @settings(
        max_examples=1000,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(reachable=st.integers(0, 3).map(lambda k: k == 0), data=st.data())
    def test_exit_code_stdout_and_results(self, reachable, data, run_cli, tmp_path, monkeypatch):
        # a reachable draw runs one compute, one --target-c and one
        # --target-par solve, one sweep over a valid window and one simulate
        if reachable:
            argvs = [data.draw(_valid_compute()), data.draw(_reachable_solve()),
                     data.draw(_reachable_par_solve()), data.draw(_valid_sweep()),
                     data.draw(_valid_simulate())]
        else:
            argvs = [data.draw(_any_argv())]
        # sweep and plot write grids.json and figure.svg without --out
        monkeypatch.chdir(tmp_path)
        for argv in argvs:
            code, out, _ = run_cli(*argv)
            assert code in (0, 2, 3)
            if reachable:
                assert code == 0
            if code != 0:
                assert out == ""
                continue
            envelope = json.loads(out, parse_constant=_reject_constant)
            assert out == json.dumps(envelope, indent=2) + "\n"
            assert envelope["command"] == argv[0]
            _check_exit_zero_results(argv, envelope)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="FOUND (CHANGES.md): near p1 = 1 the printed rr's exact c-index misses "
        "the target, because the kernel reads p1 as the rounded rr*p0",
    )
    @pytest.mark.parametrize("f, p0, target_c", [
        # rr 1.3333333333333333: exact product 1 - 5.6e-17, exact c about 2/3
        ("0.9999999999999999", "0.75", "1"),
        # rr max_feasible_rr(p0): its exact product exceeds 1
        ("0.5", "0.9999999999999999", "0.75"),
    ])
    def test_exact_contract_near_p1_one(self, run_cli, f, p0, target_c):
        code, out, _ = run_cli("solve", "--f", f, "--p0", p0, "--target-c", target_c)
        if code != 0:
            pytest.fail(f"exit {code}")
        rr = json.loads(out)["results"]["rr"]
        if 1.0 - rr * float(p0) > _NEAR_ONE:
            pytest.fail(f"rr {rr!r} is not near p1 = 1")
        assert meets_solver_contract(float(f), float(p0), float(target_c), rr, 1e-10)


_SCENARIO = ("--f", "0.2", "--p0", "0.1", "--rr", "1.5")
_PARSE_CORNERS = [
    (), ("frobnicate",), ("--help",), ("-h",), ("--", "compute", *_SCENARIO),
    ("compute", "--f=0.2", "--p0=0.1", "--rr=1.5"),
    # an abbreviation, an ambiguous one, and a prefix of two commands' flags
    ("solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.54", "--tol", "1e-6"),
    ("solve", "--f", "0.2", "--target", "0.1"),
    ("sweep", "--p", "0.1"),
    ("compute", "--f", "0.2", "--", "--p0", "0.1"), ("compute", *_SCENARIO, "--", "x"),
    ("compute", "-h"), ("compute", *_SCENARIO, "--help"), ("solve", "--he"),
    ("compute", "--f", "0.3", *_SCENARIO),
    ("compute", *_SCENARIO, "--bogus", "1"), ("compute", *_SCENARIO, "-x"),
    ("compute", *_SCENARIO, "extra", "more"), ("compute", "compute", *_SCENARIO),
    ("simulate", *_SCENARIO, "--n", "2.5", "--seed", "1"),
    ("compute", "--f", "-1", "--p0", "-0.5", "--rr", "2"), ("compute", "--f"), ("compute",),
    ("compute", "--format", "xml", *_SCENARIO), ("compute", *_SCENARIO, "--out", "-"),
    ("plot", "--levels=0.51,,0.52", "--resolution", "-3"),
    # plain argvs at the borders of the flag table
    ("compute", "--rr", "1.5", "--p0", "0.1", "--f", "0.2"),
    ("compute", "--f", " 0.2", "--p0", "0.1", "--rr", "1.5"),
    ("simulate", *_SCENARIO, "--n", "1_000", "--seed", "1"), ("compute", *_SCENARIO, "--out", ""),
    ("compute", *_SCENARIO, "--format", "csv"), ("compute", "--f", "x", *_SCENARIO),
    ("sweep", "--prevalences", "0.1,,0.3"), ("compute", *_SCENARIO, "--out", "-h"),
]


class TestDispatchedParse:
    """``main`` parses a plain argv from the command's flag table and any other
    through argparse; it must print, exit and parse exactly as the whole parser does."""

    @staticmethod
    def _outcome(parse, argv, capsys):
        try:
            namespace, code = list(vars(parse(list(argv))).items()), None
        except SystemExit as exc:
            namespace, code = None, exc.code
        out, err = capsys.readouterr()
        # repr: a parsed NaN equals no other NaN
        return code, out, err, repr(namespace)

    def _check(self, argv, capsys):
        dispatched = self._outcome(cli._parse_args, argv, capsys)
        assert dispatched == self._outcome(build_parser().parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", _PARSE_CORNERS, ids=lambda argv: " ".join(argv) or "(empty)")
    def test_corner_cases(self, argv, capsys):
        self._check(argv, capsys)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=_any_argv())
    def test_whole_domain_argv(self, argv, capsys):
        self._check(argv, capsys)

    def test_namespace_starts_with_the_command(self):
        args = cli._parse_args(["compute", *_SCENARIO])
        assert list(vars(args)) == ["command", "format", "out", "f", "p0", "rr", "handler"]

    def test_plain_argv_never_calls_argparse(self, run_cli, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a plain argv")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        out = str(tmp_path / "payload")
        grid = ("--prevalences", "0.2", "--resolution", "5", "--out", out)
        for argv in [
            ("compute", *_SCENARIO),
            ("solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.54"),
            ("simulate", *_SCENARIO, "--n", "2000", "--seed", "7", "--format", "csv", "--out", out),
            ("sweep", *grid), ("plot", "--levels", "0.51", *grid),
        ]:
            assert run_cli(*argv)[0] == 0, argv

    def test_value_that_is_no_str_fails_as_argparse_fails(self):
        argv = ["compute", "--f", 0.2, "--p0", "0.1", "--rr", "1.5"]
        with pytest.raises(TypeError) as expected:
            build_parser().parse_args(argv)
        with pytest.raises(TypeError) as raised:
            cli._parse_args(argv)
        assert str(raised.value) == str(expected.value)

    def test_flag_table_assumptions(self):
        # the table copies action.default verbatim: parse_args converts a str
        # default through the type, and an nargs would make a value a list
        parser = build_parser()
        commands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name, command in commands.items():
            for action in command._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                assert action.nargs is None, (name, action.dest)
                assert not (isinstance(action.default, str) and action.type), (name, action.dest)
        assert all(table is not None for table in cli._parser()[1].values())


_TEXTS = st.text() | st.sampled_from(('"', "\\", "\x00\x1f\x7f", "é€😀 ", "\ud800", ""))
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _TEXTS
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from((-0.0, 5e-324, sys.float_info.min, 1e308, -1e308, 2.0**53, 0.1))
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXTS, children, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    """The envelope writer gives the bytes of ``json.dumps(indent=2)``."""

    @settings(max_examples=500, deadline=None)
    @given(value=_JSON_VALUES)
    def test_equals_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2, allow_nan=False)

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, {"x": [1, math.inf]}, {1j: 1}, {"x": 1j}, [{0.5}],
         (1, b"bytes")],
        ids=repr,
    )
    def test_raises_as_json_dumps(self, value):
        with pytest.raises((TypeError, ValueError)) as expected:
            json.dumps(value, indent=2, allow_nan=False)
        with pytest.raises(expected.type):
            cli._json_text(value)
