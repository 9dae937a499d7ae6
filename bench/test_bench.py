"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They check that a seed fixes the argv sequence, that a wrong exit code, a
corrupted payload or a repeat that differs is counted as a failure, and
that every metric BENCHMARK.json names is emitted with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from binaryrisk import cli  # noqa: E402
from binaryrisk.measures import DerivedMeasures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTE = workloads.Request("compute", ("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5"), 0)
SWEEP_CSV = workloads.Request("sweep_csv", (
    "sweep", "--prevalences", "0.3,0.1", "--p0-min", "0.01", "--p0-max", "0.4",
    "--rr-min", "1", "--rr-max", "5", "--resolution", "21", "--levels", "0.55,0.6",
    "--format", "csv", "--out", "grids.csv"), 0)


def _argv(workload: str, seed: int, count: int = 2) -> list:
    stream = workloads.rounds(workload, seed)
    return [request.argv for _ in range(count) for request in next(stream)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_argv_sequence(workload):
    assert _argv(workload, 5) == _argv(workload, 5)
    assert _argv(workload, 5) != _argv(workload, 6)


@pytest.fixture
def client(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return worker.Client(seed=3, workdir=tmp_path)


def test_correct_requests_pass(client):
    client.run([COMPUTE, SWEEP_CSV], passes=2)
    assert client.failures == []
    assert client.attempted == 4


def test_wrong_exit_code_is_a_failure(client):
    client.send(workloads.Request("invalid", COMPUTE.argv, 2), 0)
    assert len(client.failures) == 1
    assert client.summary()["latencies_ns"] == []


def test_corrupted_compute_result_is_a_failure(client, monkeypatch):
    original = cli.derive_measures

    def skewed(params):
        m = original(params)
        return DerivedMeasures(m.p1, m.f_cases, m.f_controls, m.par, m.c_index + 1e-9)

    monkeypatch.setattr(cli, "derive_measures", skewed)
    client.send(COMPUTE, 0)
    assert "c_index" in client.failures[0]["reason"]


def test_corrupted_csv_payload_is_a_failure(client, monkeypatch):
    original = cli.grids_to_csv
    monkeypatch.setattr(cli, "grids_to_csv",
                        lambda grids: original(grids).replace("false", "true", 1))
    client.send(SWEEP_CSV, 0)
    assert len(client.failures) == 1


def test_repeat_that_differs_from_the_checked_pass_is_a_failure(client, monkeypatch):
    client.send(COMPUTE, 0)
    monkeypatch.setattr(cli, "SCHEMA_VERSION", "2")
    client.send(COMPUTE, 0)
    assert [f["reason"] for f in client.failures] == [
        "CheckFailed: a repeat differs from the checked first pass"]


def test_pinned_digest_mismatch_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pinned = worker.Client(seed=3, workdir=tmp_path, pinned=["0" * 64])
    pinned.send(SWEEP_CSV, 0)
    assert pinned.failures[0]["reason"].endswith("pinned digest")


def test_unreachable_target_is_expected_to_exit_2(client):
    request = workloads.Request("invalid", (
        "solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.99"), 2)
    client.send(request, 0)
    assert client.failures == []


def test_metric_tables_match_benchmark_json():
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert gated == {name: run.END_TO_END[name] for name in run.GATED}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    layers = set(tracing.layer_metrics(tracing.Tracer(), 0))
    imports = {f"setup.import_ms.{m}" for m in run.IMPORT_MODULES}
    assert layers | imports | {"trace.overhead_ratio"} == set(run.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(trace):
    proc = _bench("--workload", "scalar", "--seed", "4", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    if trace == "0":
        report = "\n".join(lines[:-1])
        for name, unit in run.END_TO_END.items():
            assert any(line.split()[:1] == [name] and f" {unit} " in line
                       for line in report.splitlines()), name


def test_a_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "scalar", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_exact_oracle_matches_a_known_scenario():
    exact = checks.exact_measures(0.2, 0.1, 1.5)
    assert abs(float(exact["par"]) - 1 / 11) < 1e-15
    assert abs(float(exact["c_index"]) - 0.5409) < 1e-4
