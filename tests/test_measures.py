import copy
import inspect
import math
import pickle
import random
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binaryrisk import (
    BinaryRiskError,
    DegenerateScenarioError,
    DerivedMeasures,
    InvalidParamsError,
    PopulationParams,
    SimulationSpec,
    TargetUnreachableError,
    c_index_closed,
    c_index_three_term,
    derive_measures,
    incidence_exposed,
    max_feasible_rr,
    par,
    prevalence_in_cases,
    prevalence_in_controls,
    rr_for_target_c,
    rr_from_par,
    simulate_cohort,
)
from binaryrisk import measures as measures_module
from binaryrisk.measures import _closed_root, _measure_kernel

from _oracles import (
    bisect_rr_for_target_c,
    derive_exact,
    exact_par,
    meets_solver_contract,
    ulps_off,
)

# Frozen expectations, computed once with the exact rational oracle
# (see _oracles.derive_exact); fractions noted for reference.
F_CASES_02 = 0.2727272727272727  # 3/11
F_CONTROLS_02 = 0.19101123595505617  # 17/89
C_INDEX_02 = 0.5408580183861083  # 1059/1958
PAR_02 = 0.09090909090909091  # 1/11
F_CONTROLS_05 = 0.4857142857142857  # 17/35
C_INDEX_05 = 0.5571428571428572  # 39/70

TOL = 1e-12


def probabilities(**kwargs):
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False, **kwargs)


def open_probabilities(low=1e-3, high=1.0 - 1e-3):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


@st.composite
def valid_params(draw, rr_min=1e-3):
    f = draw(open_probabilities())
    p0 = draw(open_probabilities())
    rr = draw(st.floats(min_value=rr_min, max_value=1.0 / p0, allow_nan=False))
    if rr * p0 > 1.0:
        rr = max_feasible_rr(p0)
    return PopulationParams(f=f, p0=p0, rr=rr)


class TestPopulationParams:
    def test_valid_construction(self):
        params = PopulationParams(f=0.2, p0=0.1, rr=1.5)
        assert params.p1 == pytest.approx(0.15, abs=TOL)

    def test_rr_p0_above_one_rejected(self):
        with pytest.raises(InvalidParamsError, match=r"rr\*p0"):
            PopulationParams(f=0.5, p0=0.8, rr=1.5)

    def test_rr_p0_exactly_one_allowed(self):
        params = PopulationParams(f=0.2, p0=0.1, rr=10.0)
        assert params.p1 == pytest.approx(1.0, abs=TOL)

    @pytest.mark.parametrize("f", [0.0, 1.0])
    def test_boundary_prevalence_degenerate(self, f):
        with pytest.raises(DegenerateScenarioError):
            PopulationParams(f=f, p0=0.1, rr=1.5)

    @pytest.mark.parametrize("p0", [0.0, 1.0])
    def test_boundary_incidence_degenerate(self, p0):
        with pytest.raises(DegenerateScenarioError):
            PopulationParams(f=0.2, p0=p0, rr=1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
    def test_out_of_range_prevalence_invalid(self, bad):
        with pytest.raises(InvalidParamsError):
            PopulationParams(f=bad, p0=0.1, rr=1.5)

    @pytest.mark.parametrize("rr", [0.0, -1.0, float("nan")])
    def test_bad_rr_invalid(self, rr):
        with pytest.raises(InvalidParamsError):
            PopulationParams(f=0.2, p0=0.1, rr=rr)

    @pytest.mark.parametrize("bad", ["abc", None])
    def test_non_number_rejected(self, bad):
        with pytest.raises(InvalidParamsError, match=f"f must be a real number, got {bad!r}"):
            PopulationParams(f=bad, p0=0.1, rr=1.5)


# Frozen dataclasses declared as the two records were: the oracle for their
# behaviour. The twin of PopulationParams sets p1 without validating.
@dataclass(frozen=True)
class ParamsTwin:
    f: float
    p0: float
    rr: float
    p1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p1", self.rr * self.p0)


@dataclass(frozen=True)
class MeasuresTwin:
    p1: float
    f_cases: float
    f_controls: float
    par: float
    c_index: float


RECORD_ARGS = [
    (PopulationParams, ParamsTwin, (0.2, 0.1, 1.5)),
    (DerivedMeasures, MeasuresTwin, (0.15, F_CASES_02, F_CONTROLS_02, PAR_02, C_INDEX_02)),
]


@pytest.mark.parametrize(
    "record, twin, args", RECORD_ARGS, ids=["PopulationParams", "DerivedMeasures"]
)
class TestRecordsBehaveAsDataclasses:
    """The two records keep the observable behaviour of their dataclass twins."""

    @staticmethod
    def _init_parameters(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    def test_construction_by_position_and_keyword(self, record, twin, args):
        assert self._init_parameters(record) == self._init_parameters(twin)
        assert record.__match_args__ == twin.__match_args__
        keywords = dict(zip(record.__match_args__, args))
        assert record(*args) == record(**keywords)
        assert vars(record(*args)) == vars(record(**keywords))
        with pytest.raises(TypeError):
            record(*args, 0.5)
        with pytest.raises(TypeError):
            record(**keywords, extra=0.5)

    def test_repr_hash_and_vars_order(self, record, twin, args):
        made, mirror = record(*args), twin(*args)
        assert repr(made) == repr(mirror).replace(twin.__name__, record.__name__)
        assert hash(made) == hash(mirror)
        assert list(vars(made).items()) == list(vars(mirror).items())

    def test_equality(self, record, twin, args):
        changed = (args[0] / 2, *args[1:])
        # equal values in a subclass: equality is by class, not by isinstance
        subclass, twin_subclass = type("Sub", (record,), {}), type("Sub", (twin,), {})
        pairs = [
            (record(*args), record(*args), twin(*args), twin(*args)),
            (record(*args), record(*changed), twin(*args), twin(*changed)),
            (record(*args), subclass(*args), twin(*args), twin_subclass(*args)),
            (record(*args), twin(*args), twin(*args), record(*args)),
            (record(*args), args, twin(*args), args),
            (record(*args), None, twin(*args), None),
        ]
        for made, other, mirror, mirror_other in pairs:
            assert (made == other) is (mirror == mirror_other)
            assert (made != other) is (mirror != mirror_other)
        other_record, other_twin = (
            (DerivedMeasures(0.1, 0.2, 0.3, 0.4, 0.5), MeasuresTwin(0.1, 0.2, 0.3, 0.4, 0.5))
            if record is PopulationParams
            else (PopulationParams(0.2, 0.1, 1.5), ParamsTwin(0.2, 0.1, 1.5))
        )
        assert (record(*args) == other_record) is (twin(*args) == other_twin) is False

    def test_assignment_and_deletion_raise(self, record, twin, args):
        for cls in (record, twin):
            made = cls(*args)
            before = dict(vars(made))
            for name in (*cls.__match_args__, "p1", "new_name"):
                with pytest.raises(AttributeError):
                    setattr(made, name, 0.5)
                with pytest.raises(AttributeError):
                    delattr(made, name)
            assert vars(made) == before

    def test_pickle_and_deepcopy_round_trips(self, record, twin, args):
        for cls in (record, twin):
            made = cls(*args)
            copies = [copy.deepcopy(made), copy.copy(made)] + [
                pickle.loads(pickle.dumps(made, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for clone in copies:
                assert type(clone) is cls
                assert clone == made
                assert list(vars(clone).items()) == list(vars(made).items())
                with pytest.raises(AttributeError):
                    clone.p1 = 0.5


def test_hidden_p1_is_neither_compared_nor_shown():
    made, mirror = PopulationParams(0.2, 0.1, 1.5), ParamsTwin(0.2, 0.1, 1.5)
    moved, moved_mirror = PopulationParams(0.2, 0.1, 1.5), ParamsTwin(0.2, 0.1, 1.5)
    object.__setattr__(moved, "p1", 0.5)
    object.__setattr__(moved_mirror, "p1", 0.5)
    assert (made == moved) is (mirror == moved_mirror) is True
    assert (made != moved) is (mirror != moved_mirror) is False
    assert hash(made) == hash(moved) == hash(moved_mirror)
    assert repr(moved) == repr(made) == "PopulationParams(f=0.2, p0=0.1, rr=1.5)"
    assert repr(moved_mirror) == "ParamsTwin(f=0.2, p0=0.1, rr=1.5)"


class TestIncidenceExposed:
    def test_scenario_value(self):
        assert incidence_exposed(0.10, 1.5) == pytest.approx(0.15, abs=TOL)

    def test_null_effect_identity(self):
        assert incidence_exposed(0.10, 1.0) == pytest.approx(0.10, abs=TOL)

    def test_unrealizable_scenario_rejected(self):
        with pytest.raises(InvalidParamsError):
            incidence_exposed(0.80, 1.5)


class TestPrevalenceInCasesControls:
    def test_cases_example(self):
        # 0.03 / 0.11
        assert prevalence_in_cases(0.2, 0.10, 0.15) == pytest.approx(3 / 11, abs=TOL)

    def test_cases_null_effect(self):
        assert prevalence_in_cases(0.5, 0.10, 0.10) == pytest.approx(0.5, abs=TOL)

    def test_cases_hand_arithmetic(self):
        # 0.075 / 0.125
        assert prevalence_in_cases(0.5, 0.10, 0.15) == pytest.approx(0.6, abs=TOL)

    def test_controls_example(self):
        # 0.17 / 0.89
        assert prevalence_in_controls(0.2, 0.10, 0.15) == pytest.approx(17 / 89, abs=TOL)

    def test_controls_null_effect(self):
        assert prevalence_in_controls(0.5, 0.10, 0.10) == pytest.approx(0.5, abs=TOL)

    def test_controls_hand_arithmetic(self):
        # 0.425 / 0.875
        assert prevalence_in_controls(0.5, 0.10, 0.15) == pytest.approx(
            F_CONTROLS_05, abs=TOL
        )

    def test_no_cases_is_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            prevalence_in_cases(0.5, 0.0, 0.0)

    def test_everyone_a_case_is_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            prevalence_in_controls(0.5, 1.0, 1.0)

    def test_out_of_range_probability_invalid(self):
        with pytest.raises(InvalidParamsError):
            prevalence_in_cases(0.2, 0.1, 1.2)


class TestPar:
    def test_reported_nine_percent(self):
        assert par(0.2, 1.5) == pytest.approx(PAR_02, abs=TOL)

    def test_reported_twenty_percent(self):
        assert par(0.5, 1.5) == pytest.approx(0.20, abs=TOL)

    def test_null_effect(self):
        assert par(0.3, 1.0) == 0.0

    def test_protective_factor_is_negative(self):
        assert par(0.5, 0.5) < 0.0

    def test_fully_protective_limit(self):
        assert par(0.25, 0.0) == pytest.approx(-1 / 3, abs=TOL)

    def test_boundary_prevalence_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            par(0.0, 1.5)

    def test_negative_rr_invalid(self):
        with pytest.raises(InvalidParamsError):
            par(0.2, -0.5)

    def test_negative_rr_message(self):
        with pytest.raises(InvalidParamsError, match="^rr must be positive, got -1.0$"):
            par(0.2, -1.0)


class TestCIndexForms:
    def test_three_term_example(self):
        assert c_index_three_term(F_CASES_02, F_CONTROLS_02) == pytest.approx(
            C_INDEX_02, abs=TOL
        )

    def test_three_term_symmetric(self):
        assert c_index_three_term(0.5, 0.5) == pytest.approx(0.5, abs=TOL)

    def test_three_term_perfect_separation(self):
        assert c_index_three_term(1.0, 0.0) == 1.0

    def test_closed_example(self):
        assert c_index_closed(F_CASES_02, F_CONTROLS_02) == pytest.approx(
            C_INDEX_02, abs=TOL
        )

    def test_closed_symmetric(self):
        assert c_index_closed(0.5, 0.5) == 0.5

    def test_closed_anti_concordant(self):
        assert c_index_closed(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [-0.2, 1.1])
    def test_out_of_range_invalid(self, bad):
        with pytest.raises(InvalidParamsError):
            c_index_three_term(bad, 0.5)
        with pytest.raises(InvalidParamsError):
            c_index_closed(0.5, bad)

    @given(probabilities(), probabilities())
    def test_expansion_equals_closed_form(self, f_cases, f_controls):
        assert abs(
            c_index_three_term(f_cases, f_controls) - c_index_closed(f_cases, f_controls)
        ) <= TOL


class TestPaperClaimIdentities:
    """The README's two identities, in exact arithmetic on rational scenarios.

    With P = f*p1 + (1-f)*p0 the overall incidence, c - 1/2 equals
    (1/2)*(1-f)*PAR/(1-P), and f_cases equals f*rr/(1 + f*(rr-1)). These
    check the documented algebra through the rational oracle, not the
    float kernel.
    """

    @staticmethod
    def _excess_c(f, p0, rr):
        par_value = f * (rr - 1) / (f * (rr - 1) + 1)
        incidence = f * rr * p0 + (1 - f) * p0
        return Fraction(1, 2) * (1 - f) * par_value / (1 - incidence)

    def test_identities_hold_exactly(self):
        rng = np.random.Generator(np.random.PCG64(2013))
        for _ in range(300):
            f = Fraction(int(rng.integers(1, 1000)), 1000)
            p0 = Fraction(int(rng.integers(1, 1000)), 1000)
            # rr from 0.01 up to the feasible 1/p0, endpoint included
            rr = Fraction(int(rng.integers(1, int(100 / p0) + 1)), 100)
            exact = derive_exact(f, p0, rr)
            assert exact["c_index"] - Fraction(1, 2) == self._excess_c(f, p0, rr)
            assert exact["f_cases"] == f * rr / (1 + f * (rr - 1))

    @pytest.mark.parametrize("f, c_index", [("0.2", C_INDEX_02), ("0.5", C_INDEX_05)])
    def test_criterion_2_maxima_from_the_identity(self, f, c_index):
        # at rr = 1.5 and p0 = 0.10: 0.5408580183861083 and 0.5571428571428572
        excess = self._excess_c(Fraction(f), Fraction("0.10"), Fraction("1.5"))
        assert float(Fraction(1, 2) + excess) == c_index


class TestDeriveMeasures:
    def test_scenario_point_two(self):
        measures = derive_measures(PopulationParams(f=0.2, p0=0.10, rr=1.5))
        assert measures.p1 == pytest.approx(0.15, abs=TOL)
        assert measures.f_cases == pytest.approx(F_CASES_02, abs=TOL)
        assert measures.f_controls == pytest.approx(F_CONTROLS_02, abs=TOL)
        assert measures.par == pytest.approx(PAR_02, abs=TOL)
        assert measures.c_index == pytest.approx(C_INDEX_02, abs=TOL)

    def test_scenario_point_five(self):
        measures = derive_measures(PopulationParams(f=0.5, p0=0.10, rr=1.5))
        assert measures.par == pytest.approx(0.20, abs=TOL)
        assert measures.c_index == pytest.approx(C_INDEX_05, abs=TOL)
        # consistent with the reported two-decimal bound of 0.56
        assert measures.c_index <= 0.56 + 5e-3

    def test_null_effect_scenario(self):
        measures = derive_measures(PopulationParams(f=0.3, p0=0.05, rr=1.0))
        assert measures.p1 == pytest.approx(0.05, abs=TOL)
        assert measures.f_cases == pytest.approx(0.3, abs=TOL)
        assert measures.f_controls == pytest.approx(0.3, abs=TOL)
        assert measures.par == 0.0
        assert measures.c_index == pytest.approx(0.5, abs=TOL)

    def test_agrees_with_exact_oracle(self):
        exact = derive_exact("0.2", "0.1", "1.5")
        measures = derive_measures(PopulationParams(f=0.2, p0=0.1, rr=1.5))
        for key in ("p1", "f_cases", "f_controls", "par", "c_index"):
            assert getattr(measures, key) == pytest.approx(float(exact[key]), abs=TOL)

    def test_requires_params_type(self):
        # every entry point words a wrong type the same way
        expected = "^params must be a PopulationParams, got tuple$"
        with pytest.raises(InvalidParamsError, match=expected):
            derive_measures((0.2, 0.1, 1.5))
        with pytest.raises(InvalidParamsError, match=expected):
            SimulationSpec(params=(0.2, 0.1, 1.5), n_subjects=10, seed=1)
        with pytest.raises(InvalidParamsError, match="^spec must be a SimulationSpec, got dict$"):
            simulate_cohort({})

    @given(open_probabilities(), open_probabilities())
    def test_null_effect_property(self, f, p0):
        measures = derive_measures(PopulationParams(f=f, p0=p0, rr=1.0))
        assert measures.par == 0.0
        assert abs(measures.f_cases - f) <= TOL
        assert abs(measures.f_controls - f) <= TOL
        assert abs(measures.c_index - 0.5) <= TOL

    @given(valid_params(rr_min=1.0))
    def test_bounds_property(self, params):
        measures = derive_measures(params)
        assert 0.5 - TOL <= measures.c_index < 1.0
        assert 0.0 <= measures.par < 1.0

    @given(valid_params(rr_min=1.0))
    def test_bayes_consistency(self, params):
        measures = derive_measures(params)
        p_pop = params.f * measures.p1 + (1.0 - params.f) * params.p0
        assert abs(measures.f_cases - params.f * measures.p1 / p_pop) <= TOL
        assert abs(measures.par - (p_pop - params.p0) / p_pop) <= TOL

    @given(valid_params())
    def test_bayes_consistency_protective_relative(self, params):
        # for rr < 1 the attributable risk can be hugely negative and the
        # formula denominator nearly cancels, so the comparison is relative
        measures = derive_measures(params)
        p_pop = params.f * measures.p1 + (1.0 - params.f) * params.p0
        par_bayes = (p_pop - params.p0) / p_pop
        assert abs(measures.par - par_bayes) <= 1e-9 * max(1.0, abs(par_bayes))


class TestFloatFloor:
    """Scenarios whose overall incidence P = f*p1 + (1-f)*p0 is below the
    smallest normal float are rejected: there the terms of P have lost bits,
    and the c-index with them. Above it the kernel is exact to float rounding.
    """

    def test_kernel_exact_above_the_floor_and_typed_error_below(self):
        rng = np.random.Generator(np.random.PCG64(11))
        log_tiny = math.log(5e-324)
        exact, rejected = 0, 0
        for _ in range(3000):
            f, p0 = (max(math.exp(v), 5e-324) for v in rng.uniform(log_tiny, math.log(0.99), 2))
            top = max_feasible_rr(p0)
            rr = min(math.exp(rng.uniform(math.log(1e-3), math.log(top))), top)
            params = PopulationParams(f=f, p0=p0, rr=rr)
            incidence = f * params.p1 + (1.0 - f) * p0
            if incidence < sys.float_info.min:
                with pytest.raises(DegenerateScenarioError, match="float floor|no cases exist"):
                    derive_measures(params)
                rejected += 1
                continue
            c_index = derive_measures(params).c_index
            oracle = derive_exact(f, p0, Fraction(params.p1) / Fraction(p0))["c_index"]
            assert abs(Fraction(c_index) - oracle) <= 2 * Fraction(math.ulp(0.5))
            exact += 1
        assert exact > 2000 and rejected > 50

    def test_public_helper_names_the_floor(self):
        with pytest.raises(DegenerateScenarioError, match="below the float floor 2.23e-308"):
            prevalence_in_cases(0.5, 1e-310, 1e-310)

    def test_solver_reports_a_root_below_the_floor(self):
        # c reaches 0.74 only where P is about 6e-323
        with pytest.raises(DegenerateScenarioError, match="float floor"):
            rr_for_target_c(0.5, 5e-324, 0.74)


class TestProductUnderflow:
    """Where f*p1 or f*(1-p1) falls below the smallest normal float, the
    prevalence among cases or controls is the quotient with both of its
    terms scaled by 2**1022: it stays within a few ulp of the exact value,
    and floats and arrays still give the same bits."""

    EDGES = (5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-200, 1e-16, 0.5, 0.9999999999999999)
    RR_EDGES = (5e-324, 1e-310, 1e-200, 1e-17, 0.5, 1e100, 1e300, sys.float_info.max)

    def test_prevalences_within_a_few_ulp(self):
        rng = random.Random(11)

        def draw(edges, low, high):
            if rng.random() < 0.25:
                return rng.choice(edges)
            return math.exp(rng.uniform(math.log(low), math.log(high)))

        checked = underflowed = 0
        for _ in range(3000):
            f = min(draw(self.EDGES, 1e-320, 0.999), 0.9999999999999999)
            p0 = min(draw(self.EDGES, 1e-320, 0.999), 0.9999999999999999)
            rr = draw(self.RR_EDGES, 1e-300, 1e300)
            try:
                params = PopulationParams(f=f, p0=p0, rr=rr)
                measures = derive_measures(params)
            except (InvalidParamsError, DegenerateScenarioError):
                continue
            exact = derive_exact(f, p0, Fraction(params.p1) / Fraction(p0))
            assert ulps_off(measures.f_cases, exact["f_cases"]) <= 4, (f, p0, rr)
            assert ulps_off(measures.f_controls, exact["f_controls"]) <= 4, (f, p0, rr)
            assert ulps_off(measures.par, exact_par(f, rr)) <= 4, (f, p0, rr)
            checked += 1
            underflowed += min(f * params.p1, f * (1.0 - params.p1)) < sys.float_info.min
        assert checked > 1500 and underflowed > 300

    @pytest.mark.parametrize(
        "f, cells",
        [
            # f*p1 normal with (1-f)*p0 subnormal; f*p1 subnormal; ordinary
            (0.9999999999999999, [(1e-300, 1e10), (1e-200, 1e-110), (0.1, 2.0)]),
            # f*p1 below the floor; f*(1-p1) below the floor; ordinary
            (1e-300, [(1e-200, 1e100), (0.5, 1.9999999999999998), (0.1, 2.0)]),
        ],
    )
    def test_arrays_match_floats_bitwise(self, f, cells):
        p0, rr = (np.array(axis) for axis in zip(*cells))
        columns = _measure_kernel(f, p0, rr * p0, rr)
        for i, (p0_i, rr_i) in enumerate(cells):
            row = _measure_kernel(f, p0_i, rr_i * p0_i, rr_i)
            assert [float(column[i]).hex() for column in columns] == [x.hex() for x in row]
            exact = derive_exact(f, p0_i, Fraction(row[0]) / Fraction(p0_i))
            assert ulps_off(row[1], exact["f_cases"]) <= 4
            assert ulps_off(row[2], exact["f_controls"]) <= 4


class TestMonotonicity:
    def test_c_index_increases_with_rr_and_p0(self):
        # pairwise comparisons over a lattice; strict in both directions
        f_values = [0.1, 0.3, 0.5, 0.8]
        p0_values = np.linspace(0.01, 0.30, 8)
        rr_values = np.linspace(1.0, 3.0, 9)
        for f in f_values:
            c = {}
            for p0 in p0_values:
                for rr in rr_values:
                    c[(p0, rr)] = derive_measures(
                        PopulationParams(f=f, p0=float(p0), rr=float(rr))
                    ).c_index
            for p0 in p0_values:
                for left, right in zip(rr_values, rr_values[1:]):
                    assert c[(p0, left)] < c[(p0, right)]
            for rr in rr_values[1:]:  # p0-direction strictness needs rr > 1
                for low, high in zip(p0_values, p0_values[1:]):
                    assert c[(low, rr)] < c[(high, rr)]


class TestRrFromPar:
    def test_round_trip_nine_percent(self):
        assert rr_from_par(0.2, PAR_02) == pytest.approx(1.5, abs=1e-10)

    def test_round_trip_twenty_percent(self):
        assert rr_from_par(0.5, 0.20) == pytest.approx(1.5, abs=1e-10)

    def test_zero_par_is_null_effect(self):
        assert rr_from_par(0.4, 0.0) == 1.0

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.2])
    def test_target_outside_range_invalid(self, bad):
        with pytest.raises(InvalidParamsError):
            rr_from_par(0.2, bad)

    @given(open_probabilities(), st.floats(min_value=1.0, max_value=10.0, allow_nan=False))
    def test_round_trip_property(self, f, rr):
        assert abs(rr_from_par(f, par(f, rr)) - rr) <= 1e-10

    @pytest.mark.parametrize(
        "f, target",
        [
            (5e-324, 0.5),  # f * (1 - target) underflows to 0
            (5e-324, 0.1),  # the quotient overflows to inf
            (1e-300, 0.9999999999999999),  # subnormal denominator, quotient overflows
        ],
    )
    def test_rr_beyond_float_range_unreachable(self, f, target):
        with pytest.raises(TargetUnreachableError, match="floating point range"):
            rr_from_par(f, target)


class TestMaxFeasibleRr:
    @given(open_probabilities())
    def test_result_is_feasible_and_tight(self, p0):
        rr = max_feasible_rr(p0)
        assert rr * p0 <= 1.0
        assert math.nextafter(rr, math.inf) * p0 > 1.0 or rr == 1.0 / p0

    def test_equals_the_nudging_loop(self):
        def nudged(p0):
            # the former body: step down from 1/p0 while the rounded product exceeds 1
            rr = 1.0 / p0
            while rr * p0 > 1.0:
                rr = math.nextafter(rr, 0.0)
            return rr

        rng = random.Random(14)
        # below 1/max the reciprocal overflows
        tiny = 1.0 / sys.float_info.max
        edges = [
            5e-324, 1e-310, tiny, math.nextafter(tiny, 0.0), math.nextafter(tiny, 1.0),
            sys.float_info.min, 0.5, math.nextafter(1.0, 0.0),
        ]
        uniform = [rng.random() for _ in range(20000)]
        log_uniform = [2.0 ** rng.uniform(-1074.0, 0.0) for _ in range(20000)]
        for p0 in edges + [p0 for p0 in uniform + log_uniform if 0.0 < p0 < 1.0]:
            rr = max_feasible_rr(p0)
            assert rr == nudged(p0), p0
            assert PopulationParams(f=0.5, p0=p0, rr=rr).rr == rr
        # where 1/p0 overflows, the result is the largest float
        assert max_feasible_rr(5e-324) == sys.float_info.max


class TestRrForTargetC:
    def test_recovers_scenario(self):
        assert rr_for_target_c(0.2, 0.10, C_INDEX_02) == pytest.approx(1.5, abs=1e-9)

    def test_half_means_null_effect(self):
        assert rr_for_target_c(0.3, 0.05, 0.5) == 1.0

    def test_unreachable_target(self):
        # c at the upper bracket rr = 10 (p1 = 1) is 6/7, far below 0.99
        with pytest.raises(TargetUnreachableError):
            rr_for_target_c(0.2, 0.10, 0.99)

    def test_unreachable_message_reports_range(self):
        with pytest.raises(TargetUnreachableError, match="achievable"):
            rr_for_target_c(0.2, 0.10, 0.99)

    def test_below_half_invalid(self):
        with pytest.raises(InvalidParamsError):
            rr_for_target_c(0.2, 0.10, 0.49)

    @pytest.mark.parametrize(
        "tolerance, message",
        [
            pytest.param(0.0, "tolerance must be positive, got 0.0", id="0.0"),
            pytest.param(-1e-9, "tolerance must be positive, got -1e-09", id="-1e-09"),
            pytest.param(math.nan, "tolerance must be finite, got nan", id="nan"),
            pytest.param(math.inf, "tolerance must be finite, got inf", id="inf"),
        ],
    )
    def test_invalid_tolerance(self, tolerance, message):
        with pytest.raises(InvalidParamsError) as excinfo:
            rr_for_target_c(0.2, 0.10, C_INDEX_02, tolerance=tolerance)
        assert str(excinfo.value) == message

    def test_solution_meets_tolerance_contract(self):
        rr = rr_for_target_c(0.35, 0.08, 0.57, tolerance=1e-10)
        achieved = derive_measures(PopulationParams(f=0.35, p0=0.08, rr=rr)).c_index
        assert abs(achieved - 0.57) <= 1e-10

    @pytest.mark.parametrize(
        "f, p0, target, tolerance",
        [
            # large rr at small p0, where the float spacing of rr exceeds the tolerance
            (0.5, 1e-9, 0.99, 1e-10),
            (0.5, 1e-300, 0.75, 1e-10),
            # p0 near 1, where c is steep in rr
            (0.4513582702342793, 0.9999999999983522, 0.6255687757932229, 1e-12),
            # rr near 1 with a bracket up to ~4.6e53: more than 200 halvings
            (0.003309301144703165, 2.1816238568248375e-54, 0.5000000081705862, 1e-12),
        ],
    )
    def test_reachable_target_meets_oracle_contract(self, f, p0, target, tolerance):
        rr = rr_for_target_c(f, p0, target, tolerance=tolerance)
        assert meets_solver_contract(f, p0, target, rr, tolerance)

    def test_subnormal_p0_bracket_does_not_overflow(self):
        # max_feasible_rr(1e-310) is the largest float and the root lies above
        # 1.5e308, so lo + hi would overflow to inf
        rr = rr_for_target_c(0.5, 1e-310, 0.752)
        assert 1.5e308 < rr <= max_feasible_rr(1e-310)

    @settings(derandomize=True)
    @given(
        f=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        log_p0=st.floats(min_value=math.log(1e-300), max_value=math.log1p(-1e-12)),
        share=st.floats(min_value=0.0, max_value=1.0),
        tolerance=st.sampled_from([1e-6, 1e-10, 1e-12, 1e-14]),
    )
    def test_always_returns_and_meets_oracle_contract(self, f, log_p0, share, tolerance):
        p0 = min(max(math.exp(log_p0), 1e-300), 1.0 - 1e-12)
        top = derive_measures(PopulationParams(f=f, p0=p0, rr=max_feasible_rr(p0))).c_index
        target = min(0.5 + share * (top - 0.5), top)
        rr = rr_for_target_c(f, p0, target, tolerance=tolerance)
        assert meets_solver_contract(f, p0, target, rr, tolerance)

    @given(
        open_probabilities(low=0.05, high=0.95),
        st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
        st.floats(min_value=1.000001, max_value=5.0, allow_nan=False),
    )
    # c at this rr rounds one ulp above c at the bracket end rr = 5
    @example(f=0.2, p0=0.2, rr=4.999999999999999)
    def test_round_trip_property(self, f, p0, rr):
        if rr * p0 > 1.0:
            rr = max_feasible_rr(p0)
        target = derive_measures(PopulationParams(f=f, p0=p0, rr=rr)).c_index
        assert abs(rr_for_target_c(f, p0, target) - rr) <= 1e-10


def _workload_solve(rng):
    """(f, p0, target) as the scalar benchmark draws a ``solve --target-c``:
    f and p0 to 6 digits, a target inside (1/2, c(1/p0)) to 12 digits."""
    f = float(f"{rng.uniform(0.01, 0.9):.6g}")
    p0 = float(f"{math.exp(rng.uniform(math.log(1e-4), math.log(0.3))):.6g}")
    top = 0.5 * (1.0 + f / (f + (1.0 - f) * p0))
    return f, p0, float(f"{0.5 + (top - 0.5) * rng.uniform(0.001, 0.999):.12g}")


def _solver_outcome(solve, f, p0, target, tolerance):
    """The result bits of a solve, or the type and message of what it raised."""
    keywords = {} if tolerance is None else {"tolerance": tolerance}
    try:
        return solve(f, p0, target, **keywords).hex()
    except BinaryRiskError as exc:
        return type(exc).__name__, str(exc)


def _outcome_kind_matching_reference(case):
    """Check that the solver and the reference bisection give the same outcome
    for ``case``; return ``"root"`` or the name of the error both raised."""
    expected = _solver_outcome(bisect_rr_for_target_c, *case)
    assert _solver_outcome(rr_for_target_c, *case) == expected, case
    return expected[0] if isinstance(expected, tuple) else "root"


class TestSolverSkipsOnlyCertainSigns:
    """``rr_for_target_c`` evaluates c only in a certified zone around the
    closed-form root and where the bracket is within the tolerance; everywhere
    else the sign of c(mid) - target is known. It must return the bits of the
    bisection that evaluated every midpoint, and raise what that one raised."""

    EDGES = (
        5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-4,
        0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0 - 1e-15, 0.9999999999999999,
    )
    TOLERANCES = (None, 1e-10, 1e-14, 1e-300, 5e-324, 1e-3, 0.1)

    def _edge_case(self, rng):
        def probability():
            kind = rng.randrange(3)
            if kind == 0:
                return rng.choice(self.EDGES)
            if kind == 1:
                return math.exp(rng.uniform(math.log(1e-300), math.log(0.9999999999999999)))
            return rng.random() or 0.5

        f, p0 = probability(), probability()
        try:
            top = derive_measures(PopulationParams(f=f, p0=p0, rr=max_feasible_rr(p0))).c_index
        except DegenerateScenarioError:
            top = 0.75
        target = rng.choice((
            math.nextafter(0.5, 1.0), top, math.nextafter(top, 0.0),
            0.5 + rng.random() * (top - 0.5), rng.uniform(0.5, 1.0),
        ))
        if rng.random() < 0.05:
            target = rng.uniform(0.45, 0.5)
        return f, p0, target, rng.choice(self.TOLERANCES)

    def test_bits_and_errors_match_the_reference_bisection(self):
        rng = random.Random(18)
        kinds = Counter(
            _outcome_kind_matching_reference(self._edge_case(rng)) for _ in range(20000)
        )
        assert kinds["root"] > 12000
        for error in ("DegenerateScenarioError", "TargetUnreachableError", "InvalidParamsError"):
            assert kinds[error] > 100, kinds

    def test_roots_just_above_the_float_floor(self):
        # with f*p0 below the floor, midpoints below the root can raise where
        # the root itself does not: every one of them must still be evaluated
        kinds = Counter()
        for p0 in (1e-310, 1e-320, 3e-323):
            for f in (0.3, 0.5, 0.9):
                floor_rr = sys.float_info.min / (f * p0)
                for step in (1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0):
                    rr = min(floor_rr * (1.0 + step), max_feasible_rr(p0))
                    try:
                        target = derive_measures(PopulationParams(f=f, p0=p0, rr=rr)).c_index
                    except DegenerateScenarioError:
                        continue
                    for tolerance in (None, 1e-14):
                        kinds[_outcome_kind_matching_reference((f, p0, target, tolerance))] += 1
        assert kinds["root"] >= 10 and kinds["DegenerateScenarioError"] >= 20, kinds

    def test_a_few_kernel_evaluations_per_workload_solve(self, monkeypatch):
        kernel = measures_module._measure_kernel
        evaluations = [0]

        def counted(*args):
            evaluations[0] += 1
            return kernel(*args)

        rng = random.Random(180)
        cases = [_workload_solve(rng) for _ in range(1000)]
        expected = [bisect_rr_for_target_c(*case).hex() for case in cases]
        monkeypatch.setattr(measures_module, "_measure_kernel", counted)
        per_solve = []
        for case, bits in zip(cases, expected):
            evaluations[0] = 0
            assert rr_for_target_c(*case).hex() == bits, case
            per_solve.append(evaluations[0])
        # the reference bisection takes a median of 43
        assert statistics.median(per_solve) <= 8

    @given(
        f=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        p0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        target=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    )
    @example(f=5e-324, p0=5e-324, target=math.nextafter(0.5, 1.0))
    @example(f=1e-200, p0=1e-200, target=0.9999999999999999)
    @example(f=0.9999999999999999, p0=0.9999999999999999, target=1.0)
    def test_closed_root_is_a_float_and_never_raises(self, f, p0, target):
        assert isinstance(_closed_root(f, p0, target), float)

    def test_closed_root_solves_the_exact_c_index(self):
        rng = random.Random(19)
        for _ in range(200):
            f, p0, target = _workload_solve(rng)
            c_index = derive_exact(f, p0, _closed_root(f, p0, target))["c_index"]
            assert abs(c_index - Fraction(target)) <= Fraction(1, 10**13)
