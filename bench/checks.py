"""Output checks for one benchmark request, run outside the timed interval.

The checks lean on oracles that share no code with the program: exact
``Fraction`` arithmetic for every closed-form value, the pairwise c
statistic recomputed from the 2x2 counts, DeLong's variance for the
Monte Carlo gap, and a fresh evaluation of the mask rr*p0 > 1 over the
lattice the grid flags define. A request passes only if every check holds;
``check`` raises :class:`CheckFailed` with the reason otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import Request, c_lattice, lattice

ABS_TOL = 1e-12
# Float rounding between the solver's c and the exact c at the returned rr.
SOLVE_SLACK = 1e-14
DEFAULT_SOLVER_TOL = 1e-10
GAP_SES = 5.0
SAMPLED_CELLS = 16
ENVELOPE_KEYS = {"schema_version", "command", "inputs", "results", "warnings"}
MEASURE_KEYS = ("p1", "f_cases", "f_controls", "par", "c_index")
SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    """A request's exit code or output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def flags(argv) -> dict[str, str]:
    """``--name value`` pairs of an argv, keyed by name without dashes."""
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1, 2)}


def exact_measures(f, p0, rr) -> dict[str, Fraction]:
    f, p0, rr = Fraction(f), Fraction(p0), Fraction(rr)
    p1 = rr * p0
    f_cases = f * p1 / (f * p1 + (1 - f) * p0)
    f_controls = f * (1 - p1) / (f * (1 - p1) + (1 - f) * (1 - p0))
    return {
        "p1": p1,
        "f_cases": f_cases,
        "f_controls": f_controls,
        "par": exact_par(f, rr),
        "c_index": (1 + f_cases - f_controls) / 2,
    }


def exact_par(f, rr) -> Fraction:
    f, rr = Fraction(f), Fraction(rr)
    return f * (rr - 1) / (f * (rr - 1) + 1)


def _close(value, exact, what: str, tol: float = ABS_TOL) -> None:
    """``value`` within ``tol`` of ``exact``; relative to |exact| above 1."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} is not a number: {value!r}")
    exact = Fraction(exact)
    _require(abs(Fraction(value) - exact) <= Fraction(tol) * max(1, abs(exact)),
             f"{what} = {value!r} differs from the exact {float(exact)!r}")


def _close12(value, exact, what: str) -> None:
    """An exported value: ``exact`` rounded to 12 significant digits, plus float error."""
    magnitude = abs(float(exact))
    exponent = math.floor(math.log10(magnitude)) if magnitude else -300
    tol = 0.5 * 10.0 ** (exponent - 11) + 1e-15
    _require(abs(float(value) - magnitude * math.copysign(1.0, float(exact))) <= tol,
             f"{what} = {value!r} differs from the exact {float(exact)!r}")


def _envelope(stdout: str, command: str) -> dict:
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON envelope: {exc}") from None
    _require(isinstance(envelope, dict) and set(envelope) == ENVELOPE_KEYS,
             "stdout envelope has the wrong keys")
    _require(envelope["command"] == command,
             f"envelope command {envelope['command']!r} is not {command!r}")
    return envelope


def _flatten(record: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in record.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        else:
            flat[name] = value
    return flat


def _record_file(results: dict, out: str | None, fmt: str, workdir: Path) -> bytes | None:
    """Check the --out file of compute/solve/simulate against the envelope."""
    if out is None:
        _require("files" not in results, "results list files although no --out was given")
        return None
    _require(results.get("files") == [out], f"results.files is not [{out!r}]")
    data = (workdir / out).read_bytes()
    record = {key: value for key, value in results.items() if key != "files"}
    if fmt == "json":
        _require(json.loads(data) == record, "the --out JSON differs from the envelope")
    else:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        flat = _flatten(record)
        _require(len(rows) == 2 and rows[0] == list(flat),
                 "the --out CSV header differs from the envelope")
        _require(all(float(text) == value for text, value in zip(rows[1], flat.values())),
                 "the --out CSV values differ from the envelope")
    return data


def _check_measures(measures: dict, exact: dict, what: str) -> None:
    for key in MEASURE_KEYS:
        _close(measures[key], exact[key], f"{what}.{key}")


def _check_counts(results: dict, f, p0, rr, n: int) -> bytes:
    counts = results["counts"]
    a, b = counts["n_exposed_case"], counts["n_exposed_control"]
    c, d = counts["n_unexposed_case"], counts["n_unexposed_control"]
    _require(min(a, b, c, d) >= 0 and a + b + c + d == n, f"counts do not sum to n = {n}")
    cases, controls = a + c, b + d
    empirical_c = (a * d + 0.5 * a * b + 0.5 * c * d) / (cases * controls)
    _close(results["empirical"]["c_index"], empirical_c, "empirical.c_index")
    exact = exact_measures(f, p0, rr)
    _check_measures(results["closed_form"], exact, "closed_form")
    _close(results["difference"]["c_index"],
           results["empirical"]["c_index"] - results["closed_form"]["c_index"],
           "difference.c_index")
    # DeLong's variance of the c statistic of a binary marker
    fc, fk = a / cases, b / controls
    se = 0.5 * math.sqrt(fc * (1 - fc) / cases + fk * (1 - fk) / controls)
    gap = abs(empirical_c - float(exact["c_index"]))
    _require(gap <= GAP_SES * se,
             f"|empirical - closed c| = {gap:.3g} exceeds {GAP_SES:g} standard errors ({se:.3g})")
    return f"{a},{b},{c},{d}".encode()


def _grid_spec(opts: dict) -> dict:
    spec = {
        "prevalences": [float(v) for v in opts["prevalences"].split(",")],
        "p0_min": float(opts["p0-min"]),
        "p0_max": float(opts["p0-max"]),
        "rr_min": float(opts["rr-min"]),
        "rr_max": float(opts["rr-max"]),
        "resolution": int(opts["resolution"]),
        "levels": [float(v) for v in opts["levels"].split(",")],
    }
    spec["p0_axis"] = lattice(spec["p0_min"], spec["p0_max"], spec["resolution"])
    spec["rr_axis"] = lattice(spec["rr_min"], spec["rr_max"], spec["resolution"])
    spec["mask"] = np.outer(spec["rr_axis"], spec["p0_axis"]) > 1.0
    return spec


def _check_panels(panels: list, spec: dict) -> None:
    """The envelope's per-panel summaries: masked counts, c range."""
    _require(len(panels) == len(spec["prevalences"]), "one panel summary per prevalence")
    masked = int(spec["mask"].sum())
    for panel, f in zip(panels, spec["prevalences"]):
        _require(panel["prevalence"] == f, "panel summaries are out of order")
        _require(panel["masked_cells"] == masked,
                 f"masked_cells {panel['masked_cells']} != {masked} cells with rr*p0 > 1")
        # c rises with p0 and rr once rr >= 1, so the first cell is the minimum
        first = exact_measures(f, spec["p0_axis"][0], spec["rr_axis"][0])
        _close(panel["c_min"], first["c_index"], "panel c_min")
        c_values = c_lattice(f, spec["p0_axis"], spec["rr_axis"])
        i, j = np.unravel_index(np.nanargmax(c_values), c_values.shape)
        _close(panel["c_max"],
               exact_measures(f, spec["p0_axis"][j], spec["rr_axis"][i])["c_index"],
               "panel c_max")


def _sample(rng: random.Random, mask: np.ndarray) -> list[tuple[int, int]]:
    cells = np.argwhere(~mask)
    picks = rng.sample(range(len(cells)), min(SAMPLED_CELLS, len(cells)))
    return [(int(cells[k][0]), int(cells[k][1])) for k in picks]


def _check_grids_json(data: bytes, spec: dict, rng: random.Random) -> None:
    document = json.loads(data)
    echo = document["spec"]
    _require(echo["resolution"] == spec["resolution"], "spec echo has the wrong resolution")
    _require(echo["prevalences"] == spec["prevalences"], "spec echo has the wrong prevalences")
    _require(len(echo["contour_levels"]) == len(spec["levels"]), "spec echo lost levels")
    grids = document["grids"]
    _require(len(grids) == len(spec["prevalences"]), "one grid per prevalence")
    size = spec["resolution"]
    for grid, f in zip(grids, spec["prevalences"]):
        for axis in ("p0_axis", "rr_axis", "par_axis"):
            _require(len(grid[axis]) == size, f"{axis} has the wrong length")
        rows = grid["c_values"]
        _require(len(rows) == size and all(len(row) == size for row in rows),
                 "c_values has the wrong shape")
        _require(np.array_equal(np.array(grid["mask"], dtype=bool), spec["mask"]),
                 "mask differs from rr*p0 > 1")
        nulls = np.array([[value is None for value in row] for row in rows])
        _require(np.array_equal(nulls, spec["mask"]), "null c_values differ from the mask")
        for i in range(size):
            _close12(grid["par_axis"][i], exact_par(f, spec["rr_axis"][i]), "par_axis")
        for i, j in _sample(rng, spec["mask"]):
            _close12(grid["p0_axis"][j], spec["p0_axis"][j], "p0_axis")
            _close12(grid["rr_axis"][i], spec["rr_axis"][i], "rr_axis")
            _close12(grid["c_values"][i][j],
                     exact_measures(f, spec["p0_axis"][j], spec["rr_axis"][i])["c_index"],
                     f"c_values[{i}][{j}]")


def _check_grids_csv(path: Path, spec: dict, rng: random.Random) -> None:
    """Stream the rows, so the check holds far less memory than the export."""
    size = spec["resolution"]
    per_panel = size * size
    flat_mask = spec["mask"].ravel().tolist()
    samples = {(p, i * size + j): (i, j) for p in range(len(spec["prevalences"]))
               for i, j in _sample(rng, spec["mask"])}
    with open(path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        _require(next(rows) == ["f", "p0", "rr", "par", "c_index", "masked"], "wrong CSV header")
        count = 0
        for count, row in enumerate(rows, start=1):
            panel, cell = divmod(count - 1, per_panel)
            _require(panel < len(spec["prevalences"]), "CSV has more rows than cells")
            masked = flat_mask[cell]
            _require((row[5] == "true") == masked and (row[4] == "") == masked,
                     f"CSV row {count} disagrees with rr*p0 > 1")
            if (panel, cell) in samples:
                i, j = samples[panel, cell]
                f = spec["prevalences"][panel]
                _close12(float(row[0]), f, "f")
                _close12(float(row[1]), spec["p0_axis"][j], "p0")
                _close12(float(row[2]), spec["rr_axis"][i], "rr")
                exact = exact_measures(f, spec["p0_axis"][j], spec["rr_axis"][i])
                _close12(float(row[3]), exact["par"], "par")
                _close12(float(row[4]), exact["c_index"], f"c_index at ({i}, {j})")
    _require(count == per_panel * len(spec["prevalences"]),
             "CSV row count differs from panels x resolution^2")


def _check_svg(data: bytes, spec: dict) -> None:
    root = ET.fromstring(data)
    _require(root.tag == SVG_NS + "svg", "the figure is not an SVG document")
    panels = root.findall(f"{SVG_NS}g[@class='panel']")
    _require([panel.get("data-prevalence") for panel in panels]
             == [f"{f:.4g}" for f in spec["prevalences"]], "one SVG panel per prevalence")
    levels = {f"{level:.4g}" for level in spec["levels"]}
    for panel in panels:
        for group in panel.iter(f"{SVG_NS}g"):
            if group.get("class") == "level":
                _require(group.get("data-level") in levels, "contour of an unrequested level")
                paths = group.findall(f"{SVG_NS}path")
                _require(paths and all(p.get("d", "").startswith("M ") for p in paths),
                         "contour level without a path")


def check(request: Request, code: int, stdout: str, stderr: str, workdir: Path,
          rng: random.Random) -> bytes | None:
    """Check one request; return its deterministic payload bytes, if any.

    The payload is the --out file where one is written, and the 2x2 counts
    of a simulate without one.
    """
    _require(code == request.expect_exit,
             f"exit code {code}, expected {request.expect_exit}: {stderr.strip()[-200:]}")
    if request.expect_exit != 0:
        _require(stdout == "", "a rejected request printed to stdout")
        _require(stderr.strip() != "", "a rejected request gave no diagnostic")
        return None
    argv = request.argv
    opts = flags(argv)
    envelope = _envelope(stdout, argv[0])
    results = envelope["results"]
    out = opts.get("out")
    fmt = opts.get("format", "json")
    if argv[0] in ("sweep", "plot"):
        spec = _grid_spec(opts)
        _require(results["files"] == [out], f"results.files is not [{out!r}]")
        _check_panels(results["panels"], spec)
        data = (workdir / out).read_bytes()
        if argv[0] == "plot":
            _check_svg(data, spec)
        elif fmt == "csv":
            _check_grids_csv(workdir / out, spec, rng)
        else:
            _check_grids_json(data, spec, rng)
        return data
    f = float(opts["f"])
    if argv[0] == "compute":
        exact = exact_measures(f, float(opts["p0"]), float(opts["rr"]))
        _check_measures(results, exact, "results")
    elif argv[0] == "solve" and "target-c" in opts:
        p0, target = float(opts["p0"]), float(opts["target-c"])
        rr = results["rr"]
        _require(1.0 <= rr and rr * p0 <= 1.0, f"rr = {rr!r} is outside [1, 1/p0]")
        c_exact = exact_measures(f, p0, rr)["c_index"]
        _close(results["verification"]["c_index"], c_exact, "verification.c_index")
        _close(target, c_exact, "c(rr) against the target", DEFAULT_SOLVER_TOL + SOLVE_SLACK)
    elif argv[0] == "solve":
        target = float(opts["target-par"])
        par_at_rr = exact_par(f, results["rr"])
        _close(results["verification"]["par"], par_at_rr, "verification.par")
        _close(target, par_at_rr, "par(rr_from_par(x)) against x")
    else:
        counts = _check_counts(results, f, float(opts["p0"]), float(opts["rr"]), int(opts["n"]))
    data = _record_file(results, out, fmt, workdir)
    if data is None and argv[0] == "simulate":
        return counts
    return data


def digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()
