"""Closed-form epidemiologic measures for a single binary risk factor.

A scenario is the triple (f, p0, rr): risk factor prevalence, disease
incidence among the unexposed, and the relative risk. Everything else is
derived from it: the incidence among the exposed, the factor prevalence
among future cases and future controls, the population-attributable risk
(PAR), and the concordance index of the prediction rule that calls every
exposed subject a case and every unexposed subject a control.

Two routes to the concordance index are kept deliberately distinct.
:func:`c_index_three_term` evaluates the pairwise success probability term
by term, :func:`c_index_closed` evaluates the simplified linear form
0.5 * (1 + f_cases - f_controls), and the test suite holds the two to
agree to 1e-12. The algebra is written once, in :func:`_measure_kernel`,
which serves one scenario on floats and a whole grid on numpy arrays.
Inverse problems (which rr produces a given PAR, which rr produces a given
c-index) are solved algebraically where possible and by bisection
otherwise; bisection is sound because the c-index is strictly increasing
in rr at fixed (f, p0). It needs no iteration budget: it stops once the
midpoint meets the tolerance in c and in rr, or once the bracket ends are
adjacent floats, when the end with c nearer the target is returned. So
every reachable target returns an rr that meets the tolerance in c or lies
within one ulp of the root.

All computation is plain 64-bit floating point. Every input check of the
package goes through one helper per kind of check, all defined here
(``_require_type``, ``_finite``, ``_prob``, ``_positive``, ``_count``). A
:class:`PopulationParams` that exists is always a realizable population;
the public scalar helpers check their own arguments, as they take user input.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field

from .errors import (
    DegenerateScenarioError,
    InvalidParamsError,
    TargetUnreachableError,
)

__all__ = [
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
]


def _require_type(value, kind: type, name: str) -> None:
    if not isinstance(value, kind):
        raise InvalidParamsError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _require_finite(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(x):
        raise InvalidParamsError(f"{name} must be finite, got {x}")
    return x


def _require_prob(value, name: str, *, open_interval: bool = False) -> float:
    """Validate a probability; boundary values are degenerate, not invalid."""
    x = _require_finite(value, name)
    if x < 0.0 or x > 1.0:
        raise InvalidParamsError(f"{name} must lie in [0, 1], got {x}")
    if open_interval and (x == 0.0 or x == 1.0):
        raise DegenerateScenarioError(
            f"{name} = {x:g} makes the scenario degenerate; "
            f"{name} must lie strictly between 0 and 1"
        )
    return x


def _require_positive(value, name: str, *, allow_zero: bool = False) -> float:
    x = _require_finite(value, name)
    if x < 0.0 or (x == 0.0 and not allow_zero):
        raise InvalidParamsError(f"{name} must be positive, got {x}")
    return x


def _require_count(value, name: str, *, minimum: int = 0) -> int:
    """An integer of at least ``minimum``, as an ``int``; a bool is not a count."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < minimum:
        raise InvalidParamsError(f"{name} must be at least {minimum}, got {count}")
    return count


def _realizable_p1(p0: float, rr: float) -> float:
    p1 = rr * p0
    if p1 > 1.0:
        raise InvalidParamsError(
            f"rr*p0 = {p1:.6g} exceeds 1, so the incidence among the exposed "
            f"would not be a probability; rr*p0 <= 1 is required"
        )
    return p1


def _any(condition) -> bool:
    """Reduce an elementwise comparison: a bool as is, an array by ``any()``."""
    return condition if isinstance(condition, bool) else bool(condition.any())


# The measure algebra. It validates nothing (its callers have) and uses only
# arithmetic operators in a fixed order, so floats and numpy arrays give
# bitwise-equal results.


def _f_cases(f, p0, p1):
    denom = f * p1 + (1.0 - f) * p0
    # Below the smallest normal float the terms of denom have lost bits, and
    # the c-index with them. For 0 < f, p0 < 1 the controls denominator is
    # at least (1-f)*(1-p0) >= 1.2e-32, so it needs no such floor.
    if _any(denom < sys.float_info.min):
        raise DegenerateScenarioError(
            "overall incidence f*p1 + (1-f)*p0 is zero: no cases exist, so the "
            "factor prevalence among cases is undefined"
            if _any(denom <= 0.0)
            else f"overall incidence f*p1 + (1-f)*p0 lies below the float floor "
            f"{sys.float_info.min:.3g} (the smallest normal float), where it has "
            f"lost the precision the measures need"
        )
    return f * p1 / denom


def _f_controls(f, p0, p1):
    denom = f * (1.0 - p1) + (1.0 - f) * (1.0 - p0)
    if _any(denom <= 0.0):
        raise DegenerateScenarioError(
            "f*(1-p1) + (1-f)*(1-p0) is zero: everyone is a case, so the factor "
            "prevalence among controls is undefined"
        )
    return f * (1.0 - p1) / denom


def _par(f, rr):
    excess = f * (rr - 1.0)
    return excess / (excess + 1.0)


def _c_linear(f_cases, f_controls):
    return 0.5 * (1.0 + f_cases - f_controls)


def _measure_kernel(f, p0, p1, rr):
    """(p1, f_cases, f_controls, par, c_index) for floats or arrays of scenarios.

    Raises :class:`DegenerateScenarioError` when a denominator is zero.
    """
    f_cases = _f_cases(f, p0, p1)
    f_controls = _f_controls(f, p0, p1)
    return p1, f_cases, f_controls, _par(f, rr), _c_linear(f_cases, f_controls)


@dataclass(frozen=True)
class PopulationParams:
    """A realizable population scenario for one binary risk factor.

    f
        Risk factor prevalence, strictly inside (0, 1).
    p0
        Disease incidence among the unexposed, strictly inside (0, 1).
    rr
        Relative risk p1/p0. Must be positive, and rr * p0 may not exceed
        1 because the implied incidence among the exposed is itself a
        probability.

    p1
        Disease incidence among the exposed, rr * p0; derived, not passed.

    Construction validates every constraint; the constraint check is not
    repeated downstream.
    """

    f: float
    p0: float
    rr: float
    p1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", _require_prob(self.f, "f", open_interval=True))
        object.__setattr__(self, "p0", _require_prob(self.p0, "p0", open_interval=True))
        rr = _require_positive(self.rr, "rr")
        object.__setattr__(self, "p1", _realizable_p1(self.p0, rr))
        object.__setattr__(self, "rr", rr)


@dataclass(frozen=True)
class DerivedMeasures:
    """All measures computed from one scenario.

    ``par`` is negative when the factor is protective (rr < 1); for
    rr >= 1 it lies in [0, 1) and ``c_index`` in [0.5, 1). The record
    itself is not validated so that plug-in estimates from finite cohorts,
    including protective ones, can be carried in the same type.
    """

    p1: float
    f_cases: float
    f_controls: float
    par: float
    c_index: float


def incidence_exposed(p0, rr) -> float:
    """Disease incidence among the exposed, p1 = rr * p0.

    Raises :class:`InvalidParamsError` when rr * p0 exceeds 1: such a
    scenario is unrealizable.
    """
    p0 = _require_prob(p0, "p0", open_interval=True)
    return _realizable_p1(p0, _require_positive(rr, "rr"))


def prevalence_in_cases(f, p0, p1) -> float:
    """Risk factor prevalence among future cases.

    Bayes' rule applied to the scenario: f*p1 / (f*p1 + (1-f)*p0). The
    denominator is the overall disease incidence; when it vanishes there
    are no cases and the quantity is undefined.
    """
    return _f_cases(_require_prob(f, "f"), _require_prob(p0, "p0"), _require_prob(p1, "p1"))


def prevalence_in_controls(f, p0, p1) -> float:
    """Risk factor prevalence among future controls.

    f*(1-p1) / (f*(1-p1) + (1-f)*(1-p0)); undefined when everyone becomes
    a case.
    """
    return _f_controls(_require_prob(f, "f"), _require_prob(p0, "p0"), _require_prob(p1, "p1"))


def par(f, rr) -> float:
    """Population-attributable risk, f*(rr-1) / (f*(rr-1) + 1).

    Negative values indicate a protective factor (rr < 1) and are returned
    unclamped. rr = 0 is accepted as the fully protective limit so that
    plug-in estimates from cohorts with no exposed cases stay computable.
    The denominator is at least 1 - f > 0, also in floating point.
    """
    f = _require_prob(f, "f", open_interval=True)
    return _par(f, _require_positive(rr, "rr", allow_zero=True))


def c_index_three_term(f_cases, f_controls) -> float:
    """Concordance probability as the explicit three-term pairwise expansion.

    For a randomly selected case-control pair, the exposure rule succeeds
    with probability 0.5 when both members are exposed, 0.5 when neither
    is, and 1 when the case is exposed and the control is not:

        0.5 * f_cases * f_controls
        + 0.5 * (1 - f_cases) * (1 - f_controls)
        + 1 * f_cases * (1 - f_controls)

    The expansion is evaluated term by term on purpose. It serves as an
    independent cross-check of :func:`c_index_closed` and must never be
    simplified into it.
    """
    a = _require_prob(f_cases, "f_cases")
    b = _require_prob(f_controls, "f_controls")
    return 0.5 * (a * b) + 0.5 * ((1.0 - a) * (1.0 - b)) + 1.0 * (a * (1.0 - b))


def c_index_closed(f_cases, f_controls) -> float:
    """Concordance index in closed linear form, 0.5 * (1 + f_cases - f_controls)."""
    return _c_linear(_require_prob(f_cases, "f_cases"), _require_prob(f_controls, "f_controls"))


def derive_measures(params: PopulationParams) -> DerivedMeasures:
    """Compute the full set of derived measures for one scenario.

    The validated params go straight to :func:`_measure_kernel`, whose
    ``c_index`` is the linear form of :func:`c_index_closed`.
    """
    _require_type(params, PopulationParams, "params")
    return DerivedMeasures(*_measure_kernel(params.f, params.p0, params.p1, params.rr))


def rr_from_par(f, target_par) -> float:
    """Relative risk producing a given attributable risk at prevalence f.

    Algebraic inversion of :func:`par`:
    rr = 1 + target_par / (f * (1 - target_par)). Raises
    :class:`TargetUnreachableError` when that rr is beyond the floating
    point range, i.e. the denominator underflows to 0 or the quotient
    overflows.
    """
    f = _require_prob(f, "f", open_interval=True)
    tp = _require_finite(target_par, "target_par")
    if tp < 0.0 or tp >= 1.0:
        raise InvalidParamsError(f"target_par must lie in [0, 1), got {tp}")
    denom = f * (1.0 - tp)
    rr = 1.0 + tp / denom if denom > 0.0 else math.inf
    if rr == math.inf:
        raise TargetUnreachableError(
            f"target_par = {tp!r} at f = {f!r} needs an rr beyond the "
            f"floating point range"
        )
    return rr


def max_feasible_rr(p0) -> float:
    """The float nearest 1/p0, or the largest float where 1/p0 overflows.

    This is the top of the rr range that :func:`rr_for_target_c` searches.
    The rounded product rr * p0 is at most 1 there, so
    :class:`PopulationParams`, which checks the rounded product, accepts
    (f, p0, rr); the exact product may exceed 1 by up to half an ulp of 1.
    """
    p0 = _require_prob(p0, "p0", open_interval=True)
    return min(1.0 / p0, sys.float_info.max)


def rr_for_target_c(f, p0, target_c, *, tolerance=1e-10) -> float:
    """Relative risk whose c-index equals ``target_c``, found by bisection.

    The c-index is strictly increasing in rr at fixed (f, p0), so the root
    on [1, max_feasible_rr(p0)] is unique. Bisection returns the first
    midpoint whose c-index is within ``tolerance`` of the target while the
    bracket is no wider than ``tolerance``; both conditions together make
    the result accurate in rr as well as in c. Where floats are too coarse
    for that, the bracket shrinks until its ends are adjacent floats, and
    the end whose c-index is nearer the target is returned: the root then
    lies within one ulp of the result. Float spacing thus ends the loop
    (about 1100 halvings at most), so there is no iteration budget.

    Raises :class:`InvalidParamsError` unless ``tolerance`` is finite and
    positive, and :class:`TargetUnreachableError` when ``target_c``
    exceeds the c-index at the upper bracket end by more than
    ``tolerance``. A target above that c-index but within ``tolerance`` of
    it returns the bracket end, which already meets the tolerance contract
    in c. :class:`DegenerateScenarioError` is raised when the bisection
    reaches an rr whose overall incidence lies below the float floor.
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
