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
within one ulp of the root. The bisection evaluates c only in a thin zone
around the closed-form root of the quadratic in rr, certified by two
evaluations whose rounding error is bounded; outside the zone the side of
each midpoint is known, so the result bits are those of a bisection that
evaluates every midpoint. The zone is set up only where f*p0 is at or
above the float floor, so a skipped evaluation could never have raised.

All computation is plain 64-bit floating point. Every input check of the
package goes through one helper per kind of check, all defined here
(``_require_type``, ``_require_iterable``, ``_require_finite``,
``_require_prob``, ``_require_positive``, ``_require_count``). A
:class:`PopulationParams` that exists is always a realizable population;
the public scalar helpers check their own arguments, as they take user input.

The two records, :class:`PopulationParams` and :class:`DerivedMeasures`,
are plain frozen classes on :class:`_FrozenRecord`, not dataclasses:
``dataclasses`` imports ``inspect`` and through it ``ast``, ``dis`` and
``tokenize``, which took 40-60% of ``import binaryrisk.cli``, while a
``compute`` or ``solve`` run does some 25 microseconds of arithmetic.
They keep the dataclass behaviour: construction by position or keyword,
``repr``, equality and ``hash`` over the compared fields, pickling, and
the ``vars()`` key order that orders the CLI's ``results``.
"""

from __future__ import annotations

import math
import operator
import sys

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


def _shown(value) -> str:
    """``repr(value)``; where ``repr`` refuses, as for an int of over 4300 digits, its size."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<{'negative ' * (value < 0)}int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} too long to write>"


def _require_iterable(value, name: str):
    """``iter(value)``; a ``str`` or ``bytes`` is one value, not a list of them."""
    if not isinstance(value, (str, bytes)):
        try:
            return iter(value)
        except TypeError:
            pass
    raise InvalidParamsError(f"{name} must be an iterable of numbers, got {_shown(value)}")


def _require_finite(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"{name} must be a real number, got {_shown(value)}") from exc
    except OverflowError as exc:
        raise InvalidParamsError(f"{name} must lie in float range, got {_shown(value)}") from exc
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


def _require_count(value, name: str, *, minimum: int = 0, maximum: int | None = None) -> int:
    """An integer in [``minimum``, ``maximum``], as an ``int``; a bool is not a count."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidParamsError(f"{name} must be an integer, got {_shown(value)}")
    count = operator.index(value)
    if count < minimum:
        raise InvalidParamsError(f"{name} must be at least {minimum}, got {_shown(count)}")
    if maximum is not None and count > maximum:
        raise InvalidParamsError(f"{name} must be at most {maximum}, got {_shown(count)}")
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

# Each prevalence below is exposed / (exposed + unexposed). Where the
# product ``exposed`` falls below the smallest normal float it has lost
# bits, or all of them, while the quotient need not be small: the quotient
# is then taken with both terms scaled by this power of two. The scaling is
# exact, so wherever ``exposed`` is normal the scaled quotient has the bits
# of the plain one, and an array needs no elementwise selection.
_UPSCALE = 2.0**1022
_FLOAT_MIN = sys.float_info.min
_EPSILON = sys.float_info.epsilon


def _f_cases(f, p0, p1):
    exposed = f * p1
    unexposed = (1.0 - f) * p0
    denom = exposed + unexposed
    # Below the smallest normal float the terms of denom have lost bits, and
    # the c-index with them. For 0 < f, p0 < 1 the controls denominator is
    # at least (1-f)*(1-p0) >= 1.2e-32, so it needs no such floor. As
    # denom >= exposed, such a denom is met inside this branch.
    if _any(exposed < _FLOAT_MIN):
        if _any(denom < _FLOAT_MIN):
            raise DegenerateScenarioError(
                "overall incidence f*p1 + (1-f)*p0 is zero: no cases exist, so the "
                "factor prevalence among cases is undefined"
                if _any(denom <= 0.0)
                else f"overall incidence f*p1 + (1-f)*p0 lies below the float floor "
                f"{_FLOAT_MIN:.3g} (the smallest normal float), where it has "
                f"lost the precision the measures need"
            )
        exposed = f * _UPSCALE * p1
        return exposed / (exposed + _UPSCALE * unexposed)
    return exposed / denom


def _f_controls(f, p0, p1):
    exposed = f * (1.0 - p1)
    unexposed = (1.0 - f) * (1.0 - p0)
    denom = exposed + unexposed
    if _any(exposed < _FLOAT_MIN):
        if _any(denom <= 0.0):
            raise DegenerateScenarioError(
                "f*(1-p1) + (1-f)*(1-p0) is zero: everyone is a case, so the factor "
                "prevalence among controls is undefined"
            )
        exposed = f * _UPSCALE * (1.0 - p1)
        return exposed / (exposed + _UPSCALE * unexposed)
    return exposed / denom


def _par(f, rr):
    excess = f * (rr - 1.0)
    # For rr < 1 with f*(1-rr) near 1, excess + 1 cancels; (1-f) + f*rr has
    # two positive terms. A product by a bool is exact and the other term
    # is +0, so rr >= 1 keeps the bits of excess / (excess + 1).
    denom = (rr < 1.0) * ((1.0 - f) + f * rr) + (rr >= 1.0) * (excess + 1.0)
    return excess / denom


def _c_linear(f_cases, f_controls):
    return 0.5 * (1.0 + f_cases - f_controls)


def _measure_kernel(f, p0, p1, rr):
    """(p1, f_cases, f_controls, par, c_index) for floats or arrays of scenarios.

    Raises :class:`DegenerateScenarioError` when a denominator is zero.
    """
    f_cases = _f_cases(f, p0, p1)
    f_controls = _f_controls(f, p0, p1)
    return p1, f_cases, f_controls, _par(f, rr), _c_linear(f_cases, f_controls)


class _FrozenRecord:
    """A read-only record compared, hashed and shown by the names in ``_fields``.

    A subclass sets its attributes with ``object.__setattr__`` in its
    ``__init__``; they live in the instance ``__dict__``, so ``vars()``,
    pickling and ``copy`` work as for any plain object.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PopulationParams(_FrozenRecord):
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
        Disease incidence among the exposed, rr * p0; derived, not passed,
        and neither shown nor compared.

    Construction validates every constraint; the constraint check is not
    repeated downstream.
    """

    __match_args__ = _fields = ("f", "p0", "rr")

    def __init__(self, f: float, p0: float, rr: float) -> None:
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "rr", rr)
        # looked up on the class, so a wrapper set there sees every construction
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", _require_prob(self.f, "f", open_interval=True))
        object.__setattr__(self, "p0", _require_prob(self.p0, "p0", open_interval=True))
        rr = _require_positive(self.rr, "rr")
        object.__setattr__(self, "p1", _realizable_p1(self.p0, rr))
        object.__setattr__(self, "rr", rr)


class DerivedMeasures(_FrozenRecord):
    """All measures computed from one scenario.

    ``par`` is negative when the factor is protective (rr < 1); for
    rr >= 1 it lies in [0, 1) and ``c_index`` in [0.5, 1). The record
    itself is not validated so that plug-in estimates from finite cohorts,
    including protective ones, can be carried in the same type.
    """

    __match_args__ = _fields = ("p1", "f_cases", "f_controls", "par", "c_index")

    def __init__(
        self, p1: float, f_cases: float, f_controls: float, par: float, c_index: float
    ) -> None:
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "f_cases", f_cases)
        object.__setattr__(self, "f_controls", f_controls)
        object.__setattr__(self, "par", par)
        object.__setattr__(self, "c_index", c_index)


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


def _c_at(f, p0, rr) -> float:
    """The kernel's c-index at (f, p0, rr), validating nothing: for f and p0
    as :class:`PopulationParams` accepts them and rr * p0 <= 1 it has the bits
    of ``derive_measures(PopulationParams(f, p0, rr)).c_index`` and raises
    what that raises."""
    return _measure_kernel(f, p0, rr * p0, rr)[4]


def _closed_root(f, p0, target) -> float:
    """The rr whose exact c-index is ``target``, in closed form; NaN where the
    float arithmetic gives no finite root. For 0 < f, p0 < 1 and
    1/2 < target <= 1 it never raises.

    The c-index is (1 + j)/2 with j Youden's index, so with j = 2c - 1 and
    x = rr - 1, j*p0*f^2*x^2 + f(1 - f - j + 2j*p0)*x - j(1 - p0) = 0, whose
    positive root is taken in the form that does not cancel.
    """
    j = 2.0 * target - 1.0
    a = j * p0 * f * f
    b = f * (1.0 - f - j + 2.0 * j * p0)
    c = j * (1.0 - p0)
    sqrt_disc = math.sqrt(b * b + 4.0 * a * c)
    num, den = (2.0 * c, b + sqrt_disc) if b >= 0.0 else (sqrt_disc - b, 2.0 * a)
    rr = 1.0 + num / den if den > 0.0 else math.nan
    return rr if math.isfinite(rr) else math.nan


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

    Most midpoints need no evaluation of c. Where f*p0 is at or above the
    float floor, c is evaluated on both sides of the closed-form root
    (:func:`_closed_root`) at a relative distance of 1e-12, else 1e-9;
    once both values clear the target by a bound far above their rounding
    error, every midpoint outside that thin zone lies on a known side of the
    root. A tight inner loop steps past such midpoints with two comparisons
    each and no evaluation, while the bracket is wider than ``tolerance``;
    it stops at a midpoint inside the zone, in a bracket within
    ``tolerance``, or equal to an end (the ends are adjacent floats), and
    that midpoint alone is evaluated. So the loop takes the same steps to the
    same result bits as one that evaluates every midpoint (the argument is
    in the code). A scenario with f*p0 below the floor, or a root the zone
    cannot certify, has no zone: the inner loop stops at once and every
    midpoint is evaluated. Solves from the benchmark's sampler take a
    median of 4 evaluations of c instead of 43.

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
    # max_feasible_rr(p0), whose check of p0 has been made above
    hi = min(1.0 / p0, sys.float_info.max)

    c_hi = _c_at(f, p0, hi)
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

    # The zone (z_lo, z_hi) around the closed-form root holds every midpoint
    # whose sign of c(mid) - target is in doubt; outside it the sign is known
    # without evaluating c. Float c_at(m) = _c_at(f, p0, m) depends on m only
    # through the float p1 = fl(m*p0), and there it is the exact c at that p1
    # plus an absolute error E of about 9u (u the unit roundoff). Rounding is
    # monotone, so mid <= a gives fl(mid*p0) <= fl(a*p0), and exact c
    # increases in p1: c_at(mid) <= c_at(a) + 2E. So c_at(a) < target - 2E
    # gives c_at(mid) < target for every mid <= a, and c_at(b) > target + 2E
    # gives c_at(mid) > target for every mid >= b: bisection would step
    # exactly as it does below, to the same midpoints and the same result
    # bits. The bound, 256u, is 2E with a wide margin. With f*p0 at or above
    # the float floor, no rr in [1, hi] reaches the floor's raise or the
    # upscaled branch of _f_cases, so no skipped evaluation could have raised.
    # In every other case the zone is (0, inf), which holds every midpoint,
    # and every midpoint is evaluated.
    z_lo, z_hi = 0.0, math.inf
    if f * p0 >= _FLOAT_MIN:
        root = _closed_root(f, p0, target)
        bound = 128.0 * _EPSILON
        for kappa in (1e-12, 1e-9):
            a, b = root * (1.0 - kappa), root * (1.0 + kappa)
            if (
                1.0 < a
                and b < hi
                and _c_at(f, p0, a) < target - bound
                and _c_at(f, p0, b) > target + bound
            ):
                z_lo, z_hi = a, b
                break

    # c(lo) < target <= c(hi) holds throughout. The inner loop steps past
    # each midpoint of known side while the bracket is wider than tol, with
    # no evaluation; it stops at a midpoint in the zone, in a bracket within
    # tol, or at one equal to an end (lo and hi adjacent floats), and that
    # midpoint is evaluated. An adjacent end outside the zone cannot raise,
    # as a zone exists only where f*p0 is at or above the float floor.
    while True:
        while hi - lo > tol:
            # rounds as 0.5 * (lo + hi) does, but cannot overflow near 1.8e308
            mid = 0.5 * lo + 0.5 * hi
            if lo < mid <= z_lo:
                lo = mid
            elif z_hi <= mid < hi:
                hi = mid
            else:
                break
        mid = 0.5 * lo + 0.5 * hi
        c_mid = _c_at(f, p0, mid)
        if abs(c_mid - target) <= tol and hi - lo <= tol:
            return mid
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats: the bracket cannot shrink. Each end
            # is 1, whose c is exactly 1/2, or an rr whose c bisection evaluated,
            # or could have without raising: evaluating it again gives those bits.
            c_lo = c_lo if lo == 1.0 else _c_at(f, p0, lo)
            return lo if target - c_lo < _c_at(f, p0, hi) - target else hi
        if c_mid < target:
            lo = mid
        else:
            hi = mid
