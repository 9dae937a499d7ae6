"""Seeded request streams for the benchmark workloads.

Each workload is an endless sequence of rounds. A round is a fixed mix of
request kinds and sizes, so every round carries about the same work and a
run's figures depend little on the seed; the seed draws the scenarios,
windows, levels and order. The program only ever sees the argv; the checks
recompute everything they need from that argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("scalar", "grids", "cohort")
# The seed whose first-round payloads are pinned in digests.json.
DEFAULT_SEED = 1

# Smallest expected count in any cell of a simulated 2x2 table. Below it a
# margin can come out empty (a valid exit 2, not a defect) and the normal
# approximation behind the 5-SE gap check breaks down.
MIN_EXPECTED_CELL = 30

# One cohort round; 1e7 twice, so that the median request is a 1e7 draw
# rather than the mean of the slowest 3e6 and the fastest 1e7 draws.
COHORT_ROUND = (1_000_000, 3_000_000, 10_000_000, 10_000_000, 30_000_000)


@dataclass(frozen=True)
class Request:
    """One CLI invocation: the argv handed to ``binaryrisk.cli.main``."""

    kind: str
    argv: tuple[str, ...]
    expect_exit: int


def _num(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits}g}")


def _arg(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scenario(rng: random.Random) -> tuple[float, float, float]:
    """f in [0.01, 0.9]; p0, rr log-uniform in [1e-4, 0.3] and [1, 20]; rr*p0 <= 1."""
    while True:
        f = _num(rng.uniform(0.01, 0.9))
        p0 = _num(_log_uniform(rng, 1e-4, 0.3))
        rr = _num(_log_uniform(rng, 1.0, 20.0))
        if rr * p0 <= 1.0:
            return f, p0, rr


def _populated(f: float, p0: float, rr: float, n: int) -> bool:
    p1 = rr * p0
    cells = (f * p1, f * (1 - p1), (1 - f) * p0, (1 - f) * (1 - p0))
    return n * min(cells) >= MIN_EXPECTED_CELL


def _simulate_argv(rng: random.Random, n: int) -> list[str]:
    while True:
        f, p0, rr = _scenario(rng)
        if _populated(f, p0, rr, n):
            break
    return ["simulate", "--f", _arg(f), "--p0", _arg(p0), "--rr", _arg(rr),
            "--n", str(n), "--seed", str(rng.randrange(2**32))]


def _c_at_max_rr(f: float, p0: float) -> float:
    """c-index at rr = 1/p0, where p1 = 1 and no exposed subject is a control."""
    return 0.5 * (1.0 + f / (f + (1.0 - f) * p0))


def _par(f: float, rr: float) -> float:
    return f * (rr - 1.0) / (f * (rr - 1.0) + 1.0)


def _invalid(rng: random.Random) -> list[str]:
    variant = rng.randrange(4)
    if variant in (0, 1):  # rr*p0 > 1
        while True:
            p0 = _num(_log_uniform(rng, 0.06, 0.3))
            rr = _num(rng.uniform(1.05 / p0, 20.0))
            if rr * p0 > 1.0:
                break
        f = _num(rng.uniform(0.01, 0.9))
        if variant == 0:
            return ["compute", "--f", _arg(f), "--p0", _arg(p0), "--rr", _arg(rr)]
        return ["simulate", "--f", _arg(f), "--p0", _arg(p0), "--rr", _arg(rr),
                "--n", "10000", "--seed", str(rng.randrange(2**32))]
    f, p0, rr = _scenario(rng)
    if variant == 2:  # a c-index above the one reached at the largest feasible rr
        c_max = _c_at_max_rr(f, p0)
        target = _num(c_max + (1.0 - c_max) * rng.uniform(0.05, 0.95), 12)
        return ["solve", "--f", _arg(f), "--p0", _arg(p0), "--target-c", _arg(target)]
    # a percent-style prevalence, which is rejected rather than rescaled
    return ["compute", "--f", _arg(_num(rng.uniform(2.0, 90.0), 3)), "--p0", _arg(p0),
            "--rr", _arg(rr)]


# One scalar round: 35% compute, 25% solve --target-c, 15% solve
# --target-par, 15% simulate, 10% invalid; 4 of the 20 also write --out.
SCALAR_ROUND = ("compute",) * 7 + ("solve_c",) * 5 + ("solve_par",) * 3 + (
    "simulate",) * 3 + ("invalid",) * 2
SCALAR_OUTS_PER_ROUND = 4


def _scalar_round(rng: random.Random) -> list[Request]:
    kinds = list(SCALAR_ROUND)
    rng.shuffle(kinds)
    valid = [k for k, kind in enumerate(kinds) if kind != "invalid"]
    with_out = set(rng.sample(valid, SCALAR_OUTS_PER_ROUND))
    requests = []
    for k, kind in enumerate(kinds):
        if kind == "compute":
            f, p0, rr = _scenario(rng)
            argv = ["compute", "--f", _arg(f), "--p0", _arg(p0), "--rr", _arg(rr)]
        elif kind == "solve_c":
            f, p0, _ = _scenario(rng)
            c_max = _c_at_max_rr(f, p0)
            target = _num(0.5 + (c_max - 0.5) * rng.uniform(0.001, 0.999), 12)
            argv = ["solve", "--f", _arg(f), "--p0", _arg(p0), "--target-c", _arg(target)]
        elif kind == "solve_par":
            f, _, rr = _scenario(rng)
            argv = ["solve", "--f", _arg(f), "--target-par",
                    _arg(_num(_par(f, rr), 12))]
        elif kind == "simulate":
            argv = _simulate_argv(rng, int(_log_uniform(rng, 1e4, 2e5)))
        else:
            argv = _invalid(rng)
        if k in with_out:
            fmt = rng.choice(("json", "csv"))
            argv += ["--format", fmt, "--out", f"payload.{fmt}"]
        requests.append(Request(kind, tuple(argv), 2 if kind == "invalid" else 0))
    return requests


def lattice(lo: float, hi: float, resolution: int) -> np.ndarray:
    """The samples of one grid axis, as ``GridSpec`` defines them."""
    return np.linspace(lo, hi, resolution)


def _window(rng: random.Random, resolution: int, masked: bool) -> list[float]:
    """(p0_min, p0_max, rr_min, rr_max); masked windows cross rr*p0 = 1."""
    while True:
        rr_min = _num(rng.uniform(1.0, 1.5))
        if masked:
            p0_min = _num(_log_uniform(rng, 1e-3, 0.05))
            p0_max = _num(rng.uniform(0.1, 0.5))
            rr_max = _num(rng.uniform(4.0, 20.0))
            product = np.outer(lattice(rr_min, rr_max, resolution),
                               lattice(p0_min, p0_max, resolution))
            lo, hi = MASKED_FRACTION
            if lo <= float(np.mean(product > 1.0)) <= hi:
                return [p0_min, p0_max, rr_min, rr_max]
        else:
            p0_min = _num(_log_uniform(rng, 1e-4, 0.02))
            p0_max = _num(min(0.3, p0_min * _log_uniform(rng, 3.0, 300.0)))
            rr_max = _num(rng.uniform(rr_min + 1.0, 20.0))
            if p0_max * rr_max <= 1.0:
                return [p0_min, p0_max, rr_min, rr_max]


def c_lattice(f: float, p0: np.ndarray, rr: np.ndarray) -> np.ndarray:
    """Closed-form c-index over an [rr, p0] lattice; NaN where rr*p0 > 1."""
    p0 = p0[np.newaxis, :]
    rr = rr[:, np.newaxis]
    p1 = rr * p0
    with np.errstate(invalid="ignore", divide="ignore"):
        f_cases = f * p1 / (f * p1 + (1 - f) * p0)
        f_controls = f * (1 - p1) / (f * (1 - p1) + (1 - f) * (1 - p0))
    return np.where(p1 > 1.0, np.nan, 0.5 * (1 + f_cases - f_controls))


GRID_KINDS = ("sweep_json", "sweep_csv", "plot")
# (panels, resolution, contour level range, window crosses rr*p0 = 1). Every
# round runs each shape once per kind, so the work per round, the median
# request and the largest request are the same for every seed; the seed
# draws the prevalences, windows, levels and order. An odd number of shapes
# of distinct cell counts puts the median request inside one shape.
GRID_SHAPES = (
    (3, 51, (22, 30), False),
    (2, 101, (13, 21), False),
    (3, 101, (5, 30), False),
    (2, 151, (13, 21), True),
    (1, 251, (5, 12), False),
)
MASKED_FRACTION = (0.1, 0.2)


def _grid_request(rng: random.Random, kind: str, shape) -> Request:
    panels, resolution, level_range, masked = shape
    prevalences = []
    while len(prevalences) < panels:
        value = round(rng.uniform(0.05, 0.6), 3)
        if value not in prevalences:
            prevalences.append(value)
    p0_min, p0_max, rr_min, rr_max = _window(rng, resolution, masked)
    p0_axis = lattice(p0_min, p0_max, resolution)
    rr_axis = lattice(rr_min, rr_max, resolution)
    c_values = np.concatenate([c_lattice(f, p0_axis, rr_axis).ravel() for f in prevalences])
    c_lo, c_hi = float(np.nanmin(c_values)), float(np.nanmax(c_values))
    count = rng.randint(*level_range)
    levels = sorted({_num(rng.uniform(c_lo, c_hi)) for _ in range(count)})
    argv = ["plot" if kind == "plot" else "sweep",
            "--prevalences", ",".join(_arg(v) for v in prevalences),
            "--p0-min", _arg(p0_min), "--p0-max", _arg(p0_max),
            "--rr-min", _arg(rr_min), "--rr-max", _arg(rr_max),
            "--resolution", str(resolution),
            "--levels", ",".join(_arg(v) for v in levels)]
    argv += {"sweep_json": ["--out", "grids.json"],
             "sweep_csv": ["--format", "csv", "--out", "grids.csv"],
             "plot": ["--out", "figure.svg"]}[kind]
    return Request(kind, tuple(argv), 0)


def _grid_round(rng: random.Random) -> list[Request]:
    requests = [_grid_request(rng, kind, shape) for kind in GRID_KINDS for shape in GRID_SHAPES]
    rng.shuffle(requests)
    return requests


def _cohort_round(rng: random.Random) -> list[Request]:
    sizes = list(COHORT_ROUND)
    rng.shuffle(sizes)
    return [Request("simulate", tuple(_simulate_argv(rng, n)), 0) for n in sizes]


_ROUNDS = {"scalar": _scalar_round, "grids": _grid_round, "cohort": _cohort_round}


def rounds(workload: str, seed: int):
    """Yield the rounds of ``workload`` for ``seed``, without end."""
    rng = random.Random(f"binaryrisk-bench/{workload}/{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng)


# Untimed requests that load every code path a workload uses before timing.
WARMUP = {
    "scalar": [
        Request("compute", ("compute", "--f", "0.2", "--p0", "0.1", "--rr", "1.5"), 0),
        Request("solve_c", ("solve", "--f", "0.2", "--p0", "0.1", "--target-c", "0.54"), 0),
        Request("solve_par", ("solve", "--f", "0.2", "--target-par", "0.09"), 0),
        Request("simulate", ("simulate", "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
                             "--n", "10000", "--seed", "7", "--format", "csv",
                             "--out", "payload.csv"), 0),
        Request("invalid", ("compute", "--f", "0.2", "--p0", "0.5", "--rr", "3"), 2),
    ],
    "grids": [
        Request("sweep_json", ("sweep", "--resolution", "21", "--out", "grids.json"), 0),
        Request("sweep_csv", ("sweep", "--resolution", "21", "--format", "csv",
                              "--out", "grids.csv"), 0),
        Request("plot", ("plot", "--resolution", "21", "--out", "figure.svg"), 0),
    ],
    "cohort": [
        Request("simulate", ("simulate", "--f", "0.2", "--p0", "0.1", "--rr", "1.5",
                             "--n", "1000000", "--seed", "7"), 0),
    ],
}
