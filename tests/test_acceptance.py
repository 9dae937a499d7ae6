"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced. Each criterion pins its tolerance here; nothing is
deferred to calibration elsewhere.
"""

import xml.etree.ElementTree as ET

import numpy as np

from binaryrisk import (
    CohortCounts,
    GridSpec,
    PopulationParams,
    SimulationSpec,
    c_index_closed,
    c_index_three_term,
    derive_measures,
    empirical_c,
    evaluate_grid,
    extract_contours,
    max_feasible_rr,
    par,
    render_svg,
    rr_for_target_c,
    rr_from_par,
    simulate_cohort,
)

from _oracles import bilinear_c, pairwise_c_enumerated

SVG_NS = "{http://www.w3.org/2000/svg}"


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_1_par_reproduction():
    """PAR at (f=0.2, rr=1.5) and (f=0.5, rr=1.5): 9% and 20%."""
    par_02 = par(0.2, 1.5)
    par_05 = par(0.5, 1.5)
    error_02 = abs(par_02 - 1.0 / 11.0)
    error_05 = abs(par_05 - 0.2)
    ok = (
        error_02 <= 1e-12
        and error_05 <= 1e-12
        and round(100.0 * par_02) == 9
        and round(100.0 * par_05) == 20
    )
    _report(
        "1 PAR reproduction",
        ok,
        f"par(0.2,1.5)={par_02:.12f}, par(0.5,1.5)={par_05:.12f}",
    )


def test_criterion_2_c_index_bound_reproduction():
    """Max c-index over p0 in (0, 0.10] at rr = 1.5: <= 0.55/0.56 bounds."""
    p0_grid = np.linspace(0.10 / 1001, 0.10, 1001)
    maxima = {}
    for f, bound in ((0.2, 0.55), (0.5, 0.56)):
        values = [
            derive_measures(PopulationParams(f=f, p0=float(p0), rr=1.5)).c_index
            for p0 in p0_grid
        ]
        maxima[f] = max(values)
    ok = maxima[0.2] <= 0.55 + 5e-3 and maxima[0.5] <= 0.56 + 5e-3
    _report(
        "2 c-index bound reproduction",
        ok,
        f"max c at f=0.2: {maxima[0.2]:.6f} <= 0.555, "
        f"at f=0.5: {maxima[0.5]:.6f} <= 0.565",
    )


def test_criterion_3_algebraic_identity_suite():
    """Three-term vs closed form, and Bayes re-derivations, to 1e-12."""
    rng = np.random.Generator(np.random.PCG64(101))
    worst_identity = 0.0
    for _ in range(10000):
        a = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(0.0, 1.0))
        worst_identity = max(
            worst_identity, abs(c_index_three_term(a, b) - c_index_closed(a, b))
        )

    worst_cases = 0.0
    worst_par = 0.0
    for _ in range(10000):
        # rr >= 1 is the tested domain: the absolute 1e-12 tolerance is
        # meaningful where the attributable risk lives in [0, 1)
        f = float(rng.uniform(0.001, 0.999))
        p0 = float(rng.uniform(0.001, 0.999))
        rr = float(rng.uniform(1.0, 1.0 / p0))
        if rr * p0 > 1.0:
            rr = max_feasible_rr(p0)
        measures = derive_measures(PopulationParams(f=f, p0=p0, rr=rr))
        p_pop = f * measures.p1 + (1.0 - f) * p0
        worst_cases = max(worst_cases, abs(measures.f_cases - f * measures.p1 / p_pop))
        worst_par = max(worst_par, abs(measures.par - (p_pop - p0) / p_pop))

    ok = worst_identity <= 1e-12 and worst_cases <= 1e-12 and worst_par <= 1e-12
    _report(
        "3 algebraic identity suite",
        ok,
        f"worst identity gap {worst_identity:.2e}, worst Bayes gaps "
        f"{worst_cases:.2e} / {worst_par:.2e} over 10000 draws each",
    )


def test_criterion_4_oracle_equivalence():
    """Closed-count empirical c equals O(n^2) enumeration exactly."""
    rng = np.random.Generator(np.random.PCG64(202))
    checked = 0
    mismatches = 0
    while checked < 1000:
        total = int(rng.integers(2, 51))
        split = rng.multinomial(total, [0.25, 0.25, 0.25, 0.25])
        counts_tuple = tuple(int(x) for x in split)
        if counts_tuple[0] + counts_tuple[2] == 0 or counts_tuple[1] + counts_tuple[3] == 0:
            continue
        counts = CohortCounts(*counts_tuple)
        if empirical_c(counts) != pairwise_c_enumerated(counts):
            mismatches += 1
        checked += 1
    _report(
        "4 oracle equivalence",
        mismatches == 0,
        f"{checked} tables with total <= 50, {mismatches} mismatches",
    )


def test_criterion_5_monte_carlo_convergence():
    """200 seeded cohorts of n = 200,000: < 0.02 always, < 0.01 for >= 95%."""
    rng = np.random.Generator(np.random.PCG64(20240811))
    differences = []
    for _ in range(200):
        f = float(rng.uniform(0.05, 0.95))
        p0 = float(rng.uniform(0.02, 0.5))
        rr = float(rng.uniform(1.0, min(3.0, 1.0 / p0)))
        if rr * p0 > 1.0:
            rr = max_feasible_rr(p0)
        seed = int(rng.integers(0, 2**63))
        params = PopulationParams(f=f, p0=p0, rr=rr)
        spec = SimulationSpec(params=params, n_subjects=200000, seed=seed)
        empirical = empirical_c(simulate_cohort(spec))
        differences.append(abs(empirical - derive_measures(params).c_index))
    differences = np.asarray(differences)
    worst = float(differences.max())
    within_001 = int(np.count_nonzero(differences < 0.01))
    ok = worst < 0.02 and within_001 >= 190
    _report(
        "5 Monte Carlo convergence",
        ok,
        f"worst |diff| {worst:.4f} < 0.02, {within_001}/200 below 0.01 (need 190)",
    )


def test_criterion_6_inverse_round_trips():
    """rr recovered to 1e-10 by both inverters over 1000 scenarios."""
    rng = np.random.Generator(np.random.PCG64(303))
    worst_par_trip = 0.0
    worst_c_trip = 0.0
    for _ in range(1000):
        f = float(rng.uniform(0.05, 0.95))
        p0 = float(rng.uniform(0.05, 0.5))
        rr = float(rng.uniform(1.0, min(5.0, max_feasible_rr(p0))))
        worst_par_trip = max(worst_par_trip, abs(rr_from_par(f, par(f, rr)) - rr))
        target = derive_measures(PopulationParams(f=f, p0=p0, rr=rr)).c_index
        recovered = rr_for_target_c(f, p0, target)  # float spacing ends the bisection; no budget
        worst_c_trip = max(worst_c_trip, abs(recovered - rr))
    ok = worst_par_trip <= 1e-10 and worst_c_trip <= 1e-10
    _report(
        "6 inverse round trips",
        ok,
        f"worst algebraic trip {worst_par_trip:.2e}, worst bisection trip "
        f"{worst_c_trip:.2e} over 1000 scenarios",
    )


def test_criterion_7_monotonicity_property():
    """101x101 grids at f in {0.5, 0.2, 0.1}: strictly increasing both ways."""
    spec = GridSpec(resolution=101)
    failures = []
    for prevalence in spec.prevalences:
        grid = evaluate_grid(spec, prevalence)
        if grid.mask.any():
            failures.append(f"unexpected mask at f={prevalence}")
        if not np.all(np.diff(grid.c_values, axis=0) > 0.0):
            failures.append(f"not increasing in rr at f={prevalence}")
        if not np.all(np.diff(grid.c_values[1:], axis=1) > 0.0):
            failures.append(f"not increasing in p0 at f={prevalence}")
    _report("7 monotonicity property", not failures, "; ".join(failures) or "3 grids")


def test_criterion_8_figure_reproduction():
    """Structural figure check: 3 panels, dual axes, determinism, fidelity."""
    spec = GridSpec()
    grids = [evaluate_grid(spec, prevalence) for prevalence in spec.prevalences]
    svg_first = render_svg(grids, spec)
    svg_second = render_svg(grids, spec)

    root = ET.fromstring(svg_first)  # raises if not well-formed XML
    panels = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "panel"]
    par_axes = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "axis axis-par"]
    rr_axes = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "axis axis-rr"]

    worst_fidelity = 0.0
    for grid in grids:
        for level in spec.contour_levels:
            for polyline in extract_contours(grid, level).polylines:
                for x, y in polyline:
                    worst_fidelity = max(worst_fidelity, abs(bilinear_c(grid, x, y) - level))

    ok = (
        svg_first == svg_second
        and len(panels) == 3
        and len(par_axes) == 3
        and len(rr_axes) == 3
        and worst_fidelity <= 1e-9
    )
    _report(
        "8 figure reproduction",
        ok,
        f"panels={len(panels)}, dual axes={len(par_axes)}/{len(rr_axes)}, "
        f"deterministic={svg_first == svg_second}, vertex fidelity {worst_fidelity:.2e}",
    )
