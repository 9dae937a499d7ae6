"""numpy loads only with the cohort simulation and the grid sweeps.

``compute`` and ``solve`` are pure-Python closed forms, so neither the
package nor the CLI imports ``binaryrisk.cohort``, ``binaryrisk.sweep`` or
numpy until a caller needs them, and neither loads ``dataclasses`` or
``inspect``, which cost more to import than the CLI itself. Likewise the
CLI builds its argparse parser on the first ``main()`` call, not at import,
and only once. The import-state checks run in a fresh interpreter, because
this test process has imported numpy already.
"""

import json
import subprocess
import sys

import pytest

import binaryrisk
from binaryrisk import cli, cohort, errors, measures, sweep

HEAVY = ("numpy", "binaryrisk.cohort", "binaryrisk.sweep")
# Loaded by ``dataclasses`` (with ``ast``, ``dis`` and ``tokenize``), whose
# import cost more than the CLI's own; only ``cohort`` and ``sweep`` use it.
START_UP_WEIGHT = ("dataclasses", "inspect")

PUBLIC_NAMES = [
    "__version__",
    "BinaryRiskError",
    "InvalidParamsError",
    "DegenerateScenarioError",
    "TargetUnreachableError",
    "PopulationParams",
    "DerivedMeasures",
    "incidence_exposed",
    "prevalence_in_cases",
    "prevalence_in_controls",
    "par",
    "c_index_three_term",
    "c_index_closed",
    "derive_measures",
    "rr_from_par",
    "max_feasible_rr",
    "rr_for_target_c",
    "CohortCounts",
    "SimulationSpec",
    "simulate_cohort",
    "empirical_c",
    "plugin_rates",
    "empirical_measures",
    "GridSpec",
    "MeasureGrid",
    "ContourSet",
    "evaluate_grid",
    "extract_contours",
    "render_svg",
    "grids_to_csv",
    "grids_to_json",
]

# Runs each step in a fresh interpreter and prints, per step, its exit
# code and which of HEAVY and of START_UP_WEIGHT are loaded after it.
LIGHT_PATH_SCRIPT = """
import contextlib, io, json, sys

HEAVY = {heavy!r}
START_UP_WEIGHT = {weight!r}
steps = []

def record(step, code=None):
    loaded = [[m for m in names if m in sys.modules] for names in (HEAVY, START_UP_WEIGHT)]
    steps.append([step, code, *loaded])

import binaryrisk
record("import binaryrisk")
import binaryrisk.cli as cli
record("import binaryrisk.cli")
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    record(argv[0] + " " + argv[-2], code)
print(json.dumps(steps))
"""

LIGHT = [
    ["compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5"],
    ["solve", "--f", "0.2", "--target-par", "0.1"],
    ["solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.54"],
]
HEAVY_COMMANDS = [
    ["simulate", "--f", "0.2", "--p0", "0.1", "--rr", "1.5", "--n", "1000", "--seed", "1"],
    ["sweep", "--prevalences", "0.5", "--resolution", "5"],
    ["plot", "--prevalences", "0.5", "--resolution", "5"],
]


def _run_fresh(code: str, cwd) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_compute_and_solve_never_load_numpy(tmp_path):
    script = LIGHT_PATH_SCRIPT.format(
        heavy=HEAVY, weight=START_UP_WEIGHT, argvs=LIGHT + HEAVY_COMMANDS
    )
    steps = json.loads(_run_fresh(script, tmp_path))
    light, heavy = steps[: 2 + len(LIGHT)], steps[2 + len(LIGHT):]
    for step, code, loaded, weight in light:
        assert code in (None, 0), step
        assert loaded == [], step
        assert weight == [], step
    # the numpy-backed commands still work in the same process
    assert [code for _, code, _, _ in heavy] == [0, 0, 0]
    assert heavy[-1][2] == list(HEAVY)
    assert (tmp_path / "grids.json").exists()
    assert (tmp_path / "figure.svg").exists()


# Counts the argparse parsers made at import, after each of two main()
# calls, and by one build_parser() call, through a wrapper installed
# before binaryrisk is imported.
PARSER_COUNT_SCRIPT = """
import argparse, contextlib, io, json

made = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
counts = []
import binaryrisk.cli as cli
counts.append(len(made))
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    counts.append(len(made))
cli.build_parser()
counts.append(len(made) - counts[-1])
print(json.dumps(counts))
"""


def test_parser_is_built_once_on_first_main(tmp_path):
    script = PARSER_COUNT_SCRIPT.format(argvs=LIGHT[:2])
    at_import, after_first, after_second, per_build = json.loads(_run_fresh(script, tmp_path))
    assert at_import == 0
    assert after_first == per_build > 0
    assert after_second == after_first


def test_submodules_and_dir_resolve_in_a_fresh_interpreter(tmp_path):
    script = (
        "import json, sys, binaryrisk\n"
        "listed = dir(binaryrisk)\n"
        "before = [m for m in {heavy!r} if m in sys.modules]\n"
        "same = [binaryrisk.cohort is sys.modules['binaryrisk.cohort'],\n"
        "        binaryrisk.sweep is sys.modules['binaryrisk.sweep']]\n"
        "print(json.dumps([listed, before, same]))\n"
    ).format(heavy=HEAVY)
    listed, before, same = json.loads(_run_fresh(script, tmp_path))
    assert set(PUBLIC_NAMES) | {"cohort", "errors", "measures", "sweep"} <= set(listed)
    assert before == []
    assert same == [True, True]


def test_public_names_are_unchanged():
    assert binaryrisk.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES[1:])
def test_public_name_is_the_submodule_object(name):
    value = getattr(binaryrisk, name)
    home = sys.modules[value.__module__]
    assert home in (errors, measures, cohort, sweep)
    assert getattr(home, name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from binaryrisk import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["simulate_cohort"] is cohort.simulate_cohort


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        binaryrisk.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_patched_cli_name_is_the_one_called(monkeypatch, tmp_path):
    # start as a fresh process would: no numpy-backed name bound in cli yet
    for name in cli._LAZY:
        monkeypatch.delitem(vars(cli), name, raising=False)
    calls = []

    def patched(grids):
        calls.append(len(grids))
        return "patched\n"

    monkeypatch.setattr(cli, "grids_to_csv", patched)
    target = tmp_path / "grids.csv"
    argv = ["sweep", "--prevalences", "0.5", "--resolution", "5", "--format", "csv",
            "--out", str(target)]
    assert cli.main(argv) == 0
    assert calls == [1]
    assert target.read_text() == "patched\n"


def test_lazy_table_lists_the_numpy_backed_modules_in_order():
    assert list(binaryrisk._LAZY) == cohort.__all__ + sweep.__all__
    modules = {"cohort": cohort, "sweep": sweep}
    for name, home in binaryrisk._LAZY.items():
        assert name in modules[home].__all__, name


def test_errors_all_lists_every_error_type():
    defined = [
        name
        for name, value in vars(errors).items()
        if isinstance(value, type)
        and issubclass(value, errors.BinaryRiskError)
        and value.__module__ == errors.__name__
    ]
    assert errors.__all__ == defined


def test_cli_shares_the_package_lazy_table():
    assert cli._LAZY is binaryrisk._LAZY
