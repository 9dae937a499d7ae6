"""Scenarios that pass every validator but whose cases denominator is zero.

At f = 0.9999999999999999, p0 = 5e-324, rr = 0.1 both terms of
f*p1 + (1-f)*p0 underflow: p1 = 0.1 * 5e-324 rounds to 0, and so does
(1 - f) * 5e-324 with 1 - f = 1.1e-16. Every route to the measures must
report a typed degenerate scenario: a bare float division would raise
ZeroDivisionError (CLI exit 1) and an array division would return NaN
cells without a word.
"""

import pytest

from binaryrisk import (
    DegenerateScenarioError,
    GridSpec,
    PopulationParams,
    derive_measures,
    evaluate_grid,
)
from binaryrisk.cli import main

F = 0.9999999999999999
P0 = 5e-324
RR = 0.1
GRID_FLAGS = dict(p0_min=P0, p0_max=1e-300, rr_min=RR, rr_max=0.5, resolution=3)


def test_derive_measures():
    with pytest.raises(DegenerateScenarioError, match="no cases exist"):
        derive_measures(PopulationParams(f=F, p0=P0, rr=RR))


def test_evaluate_grid():
    with pytest.raises(DegenerateScenarioError, match="no cases exist"):
        evaluate_grid(GridSpec(prevalences=(F,), **GRID_FLAGS), F)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--f", repr(F), "--p0", repr(P0), "--rr", repr(RR)],
        ["sweep", "--prevalences", repr(F)]
        + [f"--{k.replace('_', '-')}={v!r}" for k, v in GRID_FLAGS.items()],
    ],
    ids=["compute", "sweep"],
)
def test_cli_exits_2_with_empty_stdout(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no cases exist" in captured.err
    assert list(tmp_path.iterdir()) == []
