"""Run one workload in this process and print its raw figures as JSON.

Started by ``run.py``, one workload at a time, with the package's absolute
``src`` path on PYTHONPATH. The load is a closed loop with one client: each
request goes through ``binaryrisk.cli.main(argv)`` in process, with stdout
and stderr captured and the working directory set to a scratch directory
that receives every ``--out`` file. Only the ``main`` call is timed; the
output checks run between requests.

The seed fixes one pass of requests. A run sends that pass again and
again, and a request's time is its fastest pass: the host's speed drifts
by up to 1.5x over stretches of tens of seconds, and the best of passes
spread over the run is far steadier than any single pass. The first pass
checks every output against the oracles; a later pass must reproduce
that checked output byte for byte.

Modes:
  timed  passes until ``--seconds`` have passed, and at least MIN_PASSES.
  trace  TRACE_PASSES passes untraced, then TRACE_PASSES traced.
  pin    the first round of the default seed, reporting its payload digests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import checks
import tracing
import workloads
from binaryrisk import cli

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MIN_PASSES = 3
TRACE_PASSES = 3
# Rounds in one pass, about 5 s on a 2-core Xeon. The requests are fixed by
# the seed alone, so every commit is timed on the same requests.
ROUNDS_PER_PASS = {"scalar": 200, "grids": 1, "cohort": 4}


class Client:
    """Sends requests one at a time and keeps what the report needs."""

    def __init__(self, seed: int, workdir: Path, pinned=(), tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pinned = list(pinned)
        self.tracer = tracer
        self.sent: list[workloads.Request] = []
        self.best_ns: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.out_bytes = 0
        # request index -> (exit code, stdout, --out file digest) of its checked first pass
        self.verified: dict[int, tuple] = {}
        self.digests: dict[int, str | None] = {}

    def call(self, request: workloads.Request):
        stdout, stderr = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is not None:
                tracer.request += 1
                tracer.counts["cli.main.calls"] += 1
                span = tracer.begin("cli.main")
            start = perf_counter_ns()
            try:
                code = cli.main(list(request.argv))
            except Exception:  # a request that raises is a failed request
                code = None
                stderr.write(traceback.format_exc())
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end(span)
        return code, stdout.getvalue(), stderr.getvalue(), elapsed

    def _verify(self, request, index: int, code, stdout: str, stderr: str) -> None:
        out = checks.flags(request.argv).get("out")
        if index in self.verified:
            path = self.workdir / out if out else None
            payload = path.read_bytes() if path is not None and path.exists() else None
            if (code, stdout, checks.digest(payload)) != self.verified[index]:
                raise checks.CheckFailed("a repeat differs from the checked first pass")
            return
        rng = random.Random(f"{self.seed}/{index}")
        payload = checks.check(request, code, stdout, stderr, self.workdir, rng)
        found = checks.digest(payload)
        if index < len(self.pinned) and found != self.pinned[index]:
            raise checks.CheckFailed("payload differs from the pinned digest")
        self.verified[index] = (code, stdout, found if out else None)
        self.digests[index] = found
        if out:
            self.out_bytes += len(payload)

    def send(self, request: workloads.Request, index: int) -> None:
        """Send and check request ``index``; keep its fastest successful time."""
        code, stdout, stderr, elapsed = self.call(request)
        self.attempted += 1
        if index == len(self.sent):
            self.sent.append(request)
            self.best_ns.append(math.inf)
        try:
            self._verify(request, index, code, stdout, stderr)
        except Exception as exc:  # any check that cannot complete fails the request
            self.failures.append({"argv": list(request.argv),
                                  "reason": f"{type(exc).__name__}: {exc}"})
            self.best_ns[index] = math.nan
        else:
            self.best_ns[index] = min(self.best_ns[index], elapsed)
        finally:
            for entry in self.workdir.iterdir():
                entry.unlink()

    def run(self, requests: list, *, passes=None, seconds=None, before_pass=None) -> None:
        """Send ``requests`` ``passes`` times, or at least MIN_PASSES times and
        until ``seconds`` have passed."""
        start = perf_counter()
        done = 0
        while (done < passes if passes is not None
               else done < MIN_PASSES or perf_counter() - start < seconds):
            if before_pass is not None:
                before_pass()
            for index, request in enumerate(requests):
                self.send(request, index)
            done += 1

    def summary(self) -> dict:
        latencies, cells, subjects = [], 0, 0
        for request, best in zip(self.sent, self.best_ns):
            if math.isnan(best):
                continue
            latencies.append(best)
            opts = checks.flags(request.argv)
            if request.argv[0] in ("sweep", "plot"):
                cells += int(opts["resolution"]) ** 2 * len(opts["prevalences"].split(","))
            elif request.argv[0] == "simulate":
                subjects += int(opts["n"])
        return {"attempted": self.attempted, "failures": self.failures,
                "latencies_ns": latencies, "cells": cells, "subjects": subjects}


def _pinned(seed: int, workload: str) -> list:
    """Digests of the first round's payloads, checked on the default seed only."""
    if seed != workloads.DEFAULT_SEED:
        return []
    return json.loads(DIGESTS.read_text())[workload]


def warm_up(workload: str, workdir: Path) -> None:
    client = Client(workloads.DEFAULT_SEED, workdir)
    for request in workloads.WARMUP[workload]:
        client.call(request)
    for entry in workdir.iterdir():
        entry.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace", "pin"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    os.chdir(args.workdir)
    warm_up(args.workload, args.workdir)
    stream = workloads.rounds(args.workload, args.seed)
    if args.mode == "pin":
        client = Client(workloads.DEFAULT_SEED, args.workdir)
        client.run(next(stream), passes=1)
        result = {"failures": client.failures,
                  "digests": [client.digests.get(k) for k in range(len(client.sent))]}
        return _emit(result)
    requests = [request for _ in range(ROUNDS_PER_PASS[args.workload])
                for request in next(stream)]
    pinned = _pinned(args.seed, args.workload)
    if args.mode == "timed":
        client = Client(args.seed, args.workdir, pinned)
        client.run(requests, seconds=args.seconds)
        return _emit(client.summary())
    plain = Client(args.seed, args.workdir, pinned)
    plain.run(requests, passes=TRACE_PASSES)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = Client(args.seed, args.workdir, pinned, tracer)
    # the spans and counts kept are those of the last traced pass
    traced.run(requests, passes=TRACE_PASSES, before_pass=tracer.reset)
    if args.spans is not None:
        tracer.write(args.spans)
    plain_summary, traced_summary = plain.summary(), traced.summary()
    return _emit({
        "attempted": plain.attempted + traced.attempted,
        "failures": plain.failures + traced.failures,
        "layers": tracing.layer_metrics(tracer, traced.out_bytes),
        "plain_ns": sum(plain_summary["latencies_ns"]),
        "plain_ok": len(plain_summary["latencies_ns"]),
        "traced_ns": sum(traced_summary["latencies_ns"]),
        "traced_ok": len(traced_summary["latencies_ns"]),
    })


def _emit(result: dict) -> int:
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
