import json
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binaryrisk import PopulationParams, cli, derive_measures, max_feasible_rr
from binaryrisk.cli import build_parser, main

from _oracles import derive_exact, meets_solver_contract

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
    "1e308", "inf", "nan", "-0.0", str(2**64), "x",
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
    "resolution": st.sampled_from(("-1", "0", "1", "2", "3", "7", "2.5", "x")),
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


@st.composite
def _reachable_solve(draw):
    """``solve --target-c`` for a target in [1/2, c(max_feasible_rr(p0))], with p0 >= 1e-300."""
    f = draw(st.sampled_from((5e-324, 1e-300, 0.5, 0.9999999999999999))
             | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    p0 = draw(st.sampled_from((1e-300, 1e-10, 0.5, 0.9999999999999999))
              | st.floats(1e-300, 1.0, exclude_max=True))
    top = derive_measures(PopulationParams(f=f, p0=p0, rr=max_feasible_rr(p0))).c_index
    target = min(0.5 + draw(st.floats(0.0, 1.0)) * (top - 0.5), top)
    argv = ["solve", f"--f={f!r}", f"--p0={p0!r}", f"--target-c={target!r}"]
    if draw(st.booleans()):
        argv.append(f"--tolerance={draw(st.sampled_from(('1e-6', '1e-10', '1e-14')))}")
    return argv


@st.composite
def _any_argv(draw):
    """Any command, each of its flags present or not, with a value drawn as in ``_FLAGS``."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        # without --resolution a lattice would be 201 x 201
        if flag == "resolution" or draw(st.integers(0, 15)):
            argv.append(f"--{flag}={draw(values)}")
    for flag, values in _SHARED_FLAGS.items():
        if not draw(st.integers(0, 3)):
            argv.append(f"--{flag}={draw(values)}")
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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
        argv = data.draw(_reachable_solve() if reachable else _any_argv())
        # sweep and plot write grids.json and figure.svg without --out
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(*argv)
        assert code in (0, 2, 3)
        if reachable:
            assert code == 0
        if code != 0:
            assert out == ""
            return
        envelope = json.loads(out, parse_constant=_reject_constant)
        assert out == json.dumps(envelope, indent=2) + "\n"
        assert envelope["command"] == argv[0]
        if argv[0] == "compute":
            flags = dict(arg[2:].split("=", 1) for arg in argv[1:])
            f, p0 = float(flags["f"]), float(flags["p0"])
            c_index, p1 = envelope["results"]["c_index"], envelope["results"]["p1"]
            # p1 is the rounded rr*p0, the product the validation accepted
            exact = derive_exact(f, p0, Fraction(p1) / Fraction(p0))["c_index"]
            assert abs(Fraction(c_index) - exact) <= 2 * Fraction(math.ulp(0.5))
