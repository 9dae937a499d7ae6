"""The binaryrisk benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload scalar --seed 1 --seconds 45 --trace 0
    python3 bench/run.py                             # every workload, one report each
    python3 bench/run.py --pin                       # re-pin the default-seed digests

Each workload runs in its own child process (``worker.py``), one at a time,
as a closed loop with one client and no threads. Every request goes through
``binaryrisk.cli.main(argv)`` in process and every output is checked; a
request fails when it raises, exits with an unexpected code, or fails its
check, and failures are listed with their argv, never dropped. The seed
fixes the requests; the worker sends them again and again for
``--seconds`` and keeps each request's fastest time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run (see ``tracing.py``). The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
the ``metrics`` listed in BENCHMARK.json; the lines before it are the full
report: every metric with its unit and sample count, and the environment.

Metric definitions:
  setup_s         median, over fresh interpreters, of the time to import
                  binaryrisk.cli, timed inside the child.
  ops_per_s       requests / summed request times (checks excluded).
  latency_p50_ms, latency_p90_ms
                  percentiles of the request times; p90 only with at least
                  100 requests.
  cells_per_s     grid cells evaluated and written / summed request times (grids).
  subjects_per_s  simulated subjects / summed request times (cohort).
  peak_rss_mb     peak RSS of the worker process that ran the workload.
  error_rate      failed / attempted requests, reported with both counts.
  <layer>.calls, <layer>.self_ms, and the other per-layer counts
                  over one traced pass of the run's requests.
  setup.import_ms.<module>
                  median self time from ``-X importtime``; numpy sums its submodules.
  trace.overhead_ratio
                  traced ops_per_s / untraced ops_per_s on the same requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from tracing import LAYERS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
# Each workload, with its set-up, must end well inside three minutes.
DEADLINE_S = 170.0
SETUP_CHILDREN = 9
IMPORTTIME_CHILDREN = 5
SETUP_CODE = (
    "import time; start = time.perf_counter(); import binaryrisk.cli; "
    "print(time.perf_counter() - start)"
)
IMPORT_MODULES = ("numpy", "binaryrisk", "binaryrisk.errors", "binaryrisk.measures",
                  "binaryrisk.cohort", "binaryrisk.sweep", "binaryrisk.cli")
LOAD = "closed loop, one client, one process, no threads"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cells_per_s": "1/s",
    "subjects_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
# The end-to-end metrics every workload has and none reports as 0; the
# others are printed in the report only.
GATED = ("setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb")
P90_MIN_SAMPLES = 100

_SPANNED = ("cli.main",) + tuple(f"{module}.{name}" for module, name in LAYERS)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _SPANNED},
    **{f"{name}.self_ms": "ms" for name in _SPANNED},
    "cli.out_bytes": "bytes",
    "measures.params.calls": "count",
    "measures.rr_for_target_c.evals_per_call": "count",
    "sweep.evaluate_grid.cells": "count",
    "sweep.evaluate_grid.masked_cells": "count",
    "sweep.evaluate_grid.ns_per_cell": "ns",
    "sweep.extract_contours.polylines": "count",
    "sweep.extract_contours.vertices": "count",
    "sweep.render_svg.bytes": "bytes",
    "sweep.grids_to_json.bytes": "bytes",
    "sweep.grids_to_csv.bytes": "bytes",
    "sweep.export.ns_per_cell": "ns",
    "cohort.simulate_cohort.ns_per_subject": "ns",
    "cohort.simulate_cohort.peak_bytes_per_subject": "bytes",
    **{f"setup.import_ms.{module}": "ms" for module in IMPORT_MODULES},
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def _child_env() -> dict:
    """The environment of every child: the absolute src path first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(cmd: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=remaining, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cmd[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited with {proc.returncode}")
    return proc


def setup_times(deadline: float) -> list[float]:
    return [float(_run([sys.executable, "-c", SETUP_CODE], deadline).stdout)
            for _ in range(SETUP_CHILDREN)]


def import_self_ms(deadline: float) -> dict[str, float]:
    samples = []
    for _ in range(IMPORTTIME_CHILDREN):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import binaryrisk.cli"],
                    deadline, stderr=subprocess.PIPE)
        self_ms: Counter = Counter()
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name.startswith("numpy."):
                name = "numpy"
            self_ms[name] += int(fields[0]) / 1000
        samples.append(self_ms)
    return {f"setup.import_ms.{m}": statistics.median(s[m] for s in samples)
            for m in IMPORT_MODULES}


def run_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=BUILD))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workdir", str(workdir),
           "--spans", str(BUILD / "trace" / f"{workload}-seed{seed}.jsonl")]
    try:
        proc = _run(cmd, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, requests: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "seed": seed,
        "requests": requests,
        "load": LOAD,
    }


def end_to_end(workload: str, raw: dict, setup: list[float]) -> dict[str, tuple]:
    """Metric name -> (value or None, sample count)."""
    latencies = [ns / 1e6 for ns in raw["latencies_ns"]]
    busy_s = sum(latencies) / 1e3
    done = len(latencies)
    attempted = raw["attempted"]
    p90 = statistics.quantiles(latencies, n=10)[8] if done >= P90_MIN_SAMPLES else None
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (done / busy_s if busy_s else None, done),
        "latency_p50_ms": (statistics.median(latencies) if latencies else None, done),
        "latency_p90_ms": (p90, done),
        "cells_per_s": (raw["cells"] / busy_s if workload == "grids" and busy_s else None, done),
        "subjects_per_s": (raw["subjects"] / busy_s if workload == "cohort" and busy_s else None,
                           done),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, 1),
        "error_rate": (len(raw["failures"]) / attempted if attempted else None, attempted),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; print its report; return (attempted, failed, metrics)."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        imports = import_self_ms(deadline)
        raw = run_worker(workload, seed, seconds, "trace", deadline)
        plain = raw["plain_ok"] / raw["plain_ns"] if raw["plain_ns"] else 0.0
        traced = raw["traced_ok"] / raw["traced_ns"] if raw["traced_ns"] else 0.0
        metrics = {**raw["layers"], **imports,
                   "trace.overhead_ratio": traced / plain if plain else 0.0}
        table = {name: (metrics[name], raw["layers"]["cli.main.calls"]) for name in PER_LAYER}
        units = PER_LAYER
        reported = metrics
    else:
        setup = setup_times(deadline)
        raw = run_worker(workload, seed, seconds, "timed", deadline)
        table = end_to_end(workload, raw, setup)
        units = END_TO_END
        reported = {name: table[name][0] for name in GATED}
    attempted, failed = raw["attempted"], len(raw["failures"])
    print(f"# workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("# env " + json.dumps(environment(seed, {workload: attempted})))
    for name, unit in units.items():
        value, samples = table[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<46} {shown:>14} {unit:<6} n={samples}")
    print(f"# error_rate base: {failed} failed of {attempted} attempted")
    for failure in raw["failures"]:
        print(f"# failed: {failure['reason']} :: {' '.join(failure['argv'])}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in reported.items()}
    return attempted, failed, metrics


def pin(deadline: float) -> None:
    digests = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        raw = run_worker(workload, DEFAULT_SEED, 0, "pin", deadline)
        if raw["failures"]:
            raise BenchError(f"{workload}: a first-round request failed: {raw['failures'][0]}")
        digests[workload] = raw["digests"]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from the default seed's first rounds")
    args = parser.parse_args(argv)
    if not (SRC / "binaryrisk" / "cli.py").is_file():
        print(f"error: no binaryrisk source under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin(time.monotonic() + DEADLINE_S)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        attempted, failed, metrics = results[names[0]]
    else:
        attempted = sum(r[0] for r in results.values())
        failed = sum(r[1] for r in results.values())
        metrics = {f"{name}.{key}": value for name, r in results.items()
                   for key, value in r[2].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
