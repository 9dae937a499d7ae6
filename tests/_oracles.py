"""Independent oracles used by the test suite.

These deliberately avoid the library's float code paths: the measures are
recomputed in exact rational arithmetic, the pairwise c statistic by
explicit enumeration over the expanded cohort, the cohort counts by a
per-subject threshold tabulation of the documented draw, and contour
vertices are checked by a locally written bilinear interpolation. The
exceptions are ``bisect_rr_for_target_c`` and ``reference_rr_for_target_c``,
frozen copies of earlier solvers that the current one must match bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from binaryrisk.errors import InvalidParamsError, TargetUnreachableError
from binaryrisk.measures import (
    _EPSILON,
    _FLOAT_MIN,
    _closed_root,
    _measure_kernel,
    _require_finite,
    _require_positive,
    _require_prob,
    max_feasible_rr,
)


def derive_exact(f, p0, rr):
    """All derived measures in exact rational arithmetic.

    Pass exact inputs (strings, ints, or Fractions) to keep the result
    exact; the floats of these values are the frozen expectations.
    """
    f, p0, rr = Fraction(f), Fraction(p0), Fraction(rr)
    p1 = rr * p0
    f_cases = f * p1 / (f * p1 + (1 - f) * p0)
    f_controls = f * (1 - p1) / (f * (1 - p1) + (1 - f) * (1 - p0))
    par = exact_par(f, rr)
    c_index = Fraction(1, 2) * (1 + f_cases - f_controls)
    return {
        "p1": p1,
        "f_cases": f_cases,
        "f_controls": f_controls,
        "par": par,
        "c_index": c_index,
    }


def exact_par(f, rr):
    """The PAR at f and rr, exactly."""
    excess = Fraction(f) * (Fraction(rr) - 1)
    return excess / (excess + 1)


def ulps_off(value, exact):
    """Distance of a float from an exact value, in ulps of the exact value's
    float; the smallest subnormal is the smallest ulp."""
    return abs(Fraction(value) - exact) / Fraction(max(math.ulp(float(exact)), 5e-324))


def meets_solver_contract(f, p0, target_c, rr, tolerance):
    """Whether a solved rr meets the c-index solver's contract, exactly.

    Either the exact c-index at the float rr is within ``tolerance`` of
    the target, or the exact root lies between rr's two float neighbours
    (the exact c-index is increasing in rr).
    """
    target = Fraction(target_c)
    if abs(derive_exact(f, p0, rr)["c_index"] - target) <= Fraction(tolerance):
        return True
    below = derive_exact(f, p0, math.nextafter(rr, 0.0))["c_index"]
    above = derive_exact(f, p0, math.nextafter(rr, math.inf))["c_index"]
    return below <= target <= above


def bisect_rr_for_target_c(f, p0, target_c, *, tolerance=1e-10):
    """The bisection of ``measures.rr_for_target_c`` as it was before the
    solver skipped evaluations away from the closed-form root, verbatim.

    Unlike the oracles above it runs the library's own float kernel: it is
    the reference whose result bits, and whose exceptions, the solver must
    reproduce exactly.
    """
    f = _require_prob(f, "f", open_interval=True)
    p0 = _require_prob(p0, "p0", open_interval=True)
    target = _require_finite(target_c, "target_c")
    if target < 0.5:
        raise InvalidParamsError(
            f"target_c must be at least 0.5 (the c-index at rr = 1), got {target}"
        )
    tol = _require_positive(tolerance, "tolerance")

    lo = 1.0
    hi = max_feasible_rr(p0)

    # Every rr in [1, hi] keeps rr * p0 <= 1: the scenario needs no re-validation.
    def c_at(rr: float) -> float:
        return _measure_kernel(f, p0, rr * p0, rr)[4]

    c_hi = c_at(hi)
    if target > c_hi + tol:
        raise TargetUnreachableError(
            f"target_c = {target:.12g} is unreachable: the achievable c-index "
            f"range is [0.5, {c_hi:.12g}] for f = {f:g}, p0 = {p0:g} with rr "
            f"in [1, {hi:.6g}]"
        )
    if target > c_hi:
        # e.g. the c of an rr one ulp below hi, which rounds above c(hi)
        return hi
    # c(1) is exactly 1/2; evaluating it could fall below the float floor
    c_lo = 0.5
    if target <= c_lo:
        return lo

    # c_lo < target <= c_hi holds throughout
    while True:
        # rounds as 0.5 * (lo + hi) does, but cannot overflow near 1.8e308
        mid = 0.5 * lo + 0.5 * hi
        c_mid = c_at(mid)
        if abs(c_mid - target) <= tol and (hi - lo) <= tol:
            return mid
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats: the bracket cannot shrink
            return lo if target - c_lo < c_hi - target else hi
        if c_mid < target:
            lo, c_lo = mid, c_mid
        else:
            hi, c_hi = mid, c_mid


def reference_rr_for_target_c(f, p0, target_c, *, tolerance=1e-10):
    """``measures.rr_for_target_c`` as it was before its tight skip loop, its
    code verbatim: one loop that tests each midpoint against the certified
    zone and evaluates c only inside it or in a bracket within tolerance.

    Like ``bisect_rr_for_target_c`` it runs the library's own float kernel
    and closed-form root; the solver must reproduce its result bits and its
    exceptions exactly.
    """
    f = _require_prob(f, "f", open_interval=True)
    p0 = _require_prob(p0, "p0", open_interval=True)
    target = _require_finite(target_c, "target_c")
    if target < 0.5:
        raise InvalidParamsError(
            f"target_c must be at least 0.5 (the c-index at rr = 1), got {target}"
        )
    tol = _require_positive(tolerance, "tolerance")

    lo = 1.0
    hi = max_feasible_rr(p0)

    # Every rr in [1, hi] keeps rr * p0 <= 1: the scenario needs no re-validation.
    def c_at(rr: float) -> float:
        return _measure_kernel(f, p0, rr * p0, rr)[4]

    c_hi = c_at(hi)
    if target > c_hi + tol:
        raise TargetUnreachableError(
            f"target_c = {target:.12g} is unreachable: the achievable c-index "
            f"range is [0.5, {c_hi:.12g}] for f = {f:g}, p0 = {p0:g} with rr "
            f"in [1, {hi:.6g}]"
        )
    if target > c_hi:
        # e.g. the c of an rr one ulp below hi, which rounds above c(hi)
        return hi
    # c(1) is exactly 1/2; evaluating it could fall below the float floor
    c_lo = 0.5
    if target <= c_lo:
        return lo

    # the zone of midpoints whose side is in doubt; the argument is in measures
    z_lo, z_hi = 0.0, math.inf
    if f * p0 >= _FLOAT_MIN:
        root = _closed_root(f, p0, target)
        bound = 128.0 * _EPSILON
        for kappa in (1e-12, 1e-9):
            a, b = root * (1.0 - kappa), root * (1.0 + kappa)
            if 1.0 < a and b < hi and c_at(a) < target - bound and c_at(b) > target + bound:
                z_lo, z_hi = a, b
                break

    # c(lo) < target <= c(hi) holds throughout
    while True:
        # rounds as 0.5 * (lo + hi) does, but cannot overflow near 1.8e308
        mid = 0.5 * lo + 0.5 * hi
        if z_lo < mid < z_hi or hi - lo <= tol:
            c_mid = c_at(mid)
            if abs(c_mid - target) <= tol and (hi - lo) <= tol:
                return mid
            below = c_mid < target
        else:
            below = mid <= z_lo
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats: the bracket cannot shrink. Each end
            # is 1, whose c is exactly 1/2, or an rr whose c bisection evaluated,
            # or could have without raising: evaluating it again gives those bits.
            c_lo = c_lo if lo == 1.0 else c_at(lo)
            return lo if target - c_lo < c_at(hi) - target else hi
        lo, hi = (mid, hi) if below else (lo, mid)


def pairwise_c_enumerated(counts):
    """The pairwise c statistic by brute force over every case-control pair.

    Expands the 2x2 table into per-subject exposure indicators and loops
    over all n_cases * n_controls pairs, scoring 1 for an exposed case
    paired with an unexposed control, 0.5 for an exposure tie, 0 for the
    reversed order.
    """
    cases = [1] * counts.n_exposed_case + [0] * counts.n_unexposed_case
    controls = [1] * counts.n_exposed_control + [0] * counts.n_unexposed_control
    total = 0.0
    for case_exposed in cases:
        for control_exposed in controls:
            if case_exposed == 1 and control_exposed == 0:
                total += 1.0
            elif case_exposed == control_exposed:
                total += 0.5
    return total / (len(cases) * len(controls))


def tabulate_cohort(f, p0, rr, n, seed):
    """The 2x2 counts of the documented cohort draw, tabulated per subject.

    PCG64 seeded with ``seed`` gives a block of n exposure uniforms, then
    a block of n disease uniforms. Each subject gets its own disease
    threshold (p1 = rr * p0 if exposed, p0 otherwise), and all four cells
    are counted from the two boolean columns. Returns the counts as
    (exposed case, exposed control, unexposed case, unexposed control).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    exposed = rng.random(n) < f
    diseased = rng.random(n) < np.where(exposed, rr * p0, p0)
    return (
        int(np.count_nonzero(exposed & diseased)),
        int(np.count_nonzero(exposed & ~diseased)),
        int(np.count_nonzero(~exposed & diseased)),
        int(np.count_nonzero(~exposed & ~diseased)),
    )


def bilinear_c(grid, x, y):
    """Bilinear interpolation of grid.c_values at (p0 = x, rr = y).

    A point that lies exactly on a cell boundary belongs to every adjacent
    cell, and bilinear interpolation is continuous across shared edges, so
    any fully unmasked containing cell gives the same value; the first one
    found is used. Returns NaN when every containing cell touches the mask.
    """
    j = int(np.searchsorted(grid.p0_axis, x, side="right")) - 1
    i = int(np.searchsorted(grid.rr_axis, y, side="right")) - 1
    j = min(max(j, 0), grid.p0_axis.size - 2)
    i = min(max(i, 0), grid.rr_axis.size - 2)
    column_candidates = [j] + ([j - 1] if j > 0 and x == float(grid.p0_axis[j]) else [])
    row_candidates = [i] + ([i - 1] if i > 0 and y == float(grid.rr_axis[i]) else [])
    for ic in row_candidates:
        for jc in column_candidates:
            value = _bilinear_in_cell(grid, ic, jc, x, y)
            if not np.isnan(value):
                return value
    return float("nan")


def _bilinear_in_cell(grid, i, j, x, y):
    if grid.mask[i, j] or grid.mask[i, j + 1] or grid.mask[i + 1, j] or grid.mask[i + 1, j + 1]:
        return float("nan")
    x0, x1 = float(grid.p0_axis[j]), float(grid.p0_axis[j + 1])
    y0, y1 = float(grid.rr_axis[i]), float(grid.rr_axis[i + 1])
    tx = (x - x0) / (x1 - x0)
    ty = (y - y0) / (y1 - y0)
    v = grid.c_values
    lower = (1.0 - tx) * float(v[i, j]) + tx * float(v[i, j + 1])
    upper = (1.0 - tx) * float(v[i + 1, j]) + tx * float(v[i + 1, j + 1])
    return (1.0 - ty) * lower + ty * upper
