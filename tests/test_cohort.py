import ast
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from binaryrisk import (
    CohortCounts,
    DegenerateScenarioError,
    DerivedMeasures,
    InvalidParamsError,
    PopulationParams,
    SimulationSpec,
    c_index_closed,
    derive_measures,
    empirical_c,
    empirical_measures,
    par,
    plugin_rates,
    prevalence_in_cases,
    prevalence_in_controls,
    simulate_cohort,
)

from _oracles import pairwise_c_enumerated, tabulate_cohort

# Golden counts for the reference scenario, pinned from the documented
# generator (PCG64, exposure block then disease block). Any change to the
# draw order or generator breaks this on purpose.
GOLDEN_SPEC = dict(f=0.2, p0=0.1, rr=1.5, n=100000, seed=42)
GOLDEN_COUNTS = CohortCounts(
    n_exposed_case=3046,
    n_exposed_control=16875,
    n_unexposed_case=7912,
    n_unexposed_control=72167,
)

C_INDEX_02 = 0.5408580183861083  # closed form at (f=0.2, p0=0.1, rr=1.5)

# (f, p0, rr) scenarios checked against the per-subject tabulation oracle:
# the reference scenario, a protective factor, p1 = rr*p0 = 1 exactly,
# and exposure prevalences next to 0 and next to 1.
STREAM_SCENARIOS = [
    (0.2, 0.1, 1.5),
    (0.3, 0.2, 0.5),
    (0.5, 0.25, 4.0),
    (1e-6, 0.1, 2.0),
    (1.0 - 1e-6, 0.1, 2.0),
]
# 2**16 - 1 is the largest cohort drawn by one generator, 2**16 the
# smallest drawn as two halves, 2**16 + 1 and 1 000 003 split unevenly.
# Halves of 2**17 - 2 fit one 2**16-subject chunk with a subject to spare
# and of 2**17 fill it; of 2**17 + 2 they take a second chunk of one
# subject, and of 2**18 + 3 a third of one or two.
STREAM_SIZES = [
    1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1, 2**17 - 2, 2**17, 2**17 + 2, 2**18 + 3, 200003,
    1_000_003,
]
STREAM_SEEDS = [0, 2**64 - 1]


def make_spec(f, p0, rr, n, seed):
    return SimulationSpec(
        params=PopulationParams(f=f, p0=p0, rr=rr), n_subjects=n, seed=seed
    )


class TestCohortCounts:
    def test_properties(self):
        counts = CohortCounts(3, 17, 8, 72)
        assert counts.total == 100
        assert counts.n_cases == 11
        assert counts.n_controls == 89
        assert counts.n_exposed == 20
        assert counts.n_unexposed == 80

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidParamsError):
            CohortCounts(-1, 1, 1, 1)

    def test_empty_cohort_rejected(self):
        with pytest.raises(InvalidParamsError):
            CohortCounts(0, 0, 0, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidParamsError):
            CohortCounts(1.5, 1, 1, 1)


class TestSimulationSpec:
    def test_params_type_checked(self):
        with pytest.raises(InvalidParamsError, match="params must be a PopulationParams, got dict"):
            SimulationSpec(params={"f": 0.2, "p0": 0.1, "rr": 1.5}, n_subjects=10, seed=1)

    def test_zero_subjects_rejected(self):
        with pytest.raises(InvalidParamsError):
            make_spec(0.2, 0.1, 1.5, 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(InvalidParamsError):
            make_spec(0.2, 0.1, 1.5, 10, seed)

    def test_subjects_beyond_sys_maxsize_rejected(self):
        # the documented budget; nothing is drawn at construction
        cap = 2**40
        assert make_spec(0.2, 0.1, 1.5, cap, 1).n_subjects == cap
        for n in (cap + 1, sys.maxsize, sys.maxsize + 1):
            with pytest.raises(InvalidParamsError, match=f"must be at most {cap}, got {n}"):
                make_spec(0.2, 0.1, 1.5, n, 1)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (1.5, 1, "n_subjects must be an integer, got 1.5"),
            (True, 1, "n_subjects must be an integer, got True"),
            (0, 1, "n_subjects must be at least 1, got 0"),
            (10, "7", "seed must be an integer, got '7'"),
            (10, False, "seed must be an integer, got False"),
            (10, -1, "seed must be at least 0, got -1"),
            (10, 2**64, f"seed must be at most {2**64 - 1}, got {2**64}"),
        ],
    )
    def test_messages(self, n, seed, message):
        with pytest.raises(InvalidParamsError) as excinfo:
            make_spec(0.2, 0.1, 1.5, n, seed)
        assert str(excinfo.value) == message

    def test_numpy_integers_are_stored_as_int(self):
        spec = make_spec(0.2, 0.1, 1.5, np.int64(10), np.uint64(2**64 - 1))
        assert (spec.n_subjects, spec.seed) == (10, 2**64 - 1)
        assert (type(spec.n_subjects), type(spec.seed)) == (int, int)


class TestSimulateCohort:
    def test_golden_counts(self):
        assert simulate_cohort(make_spec(**GOLDEN_SPEC)) == GOLDEN_COUNTS

    def test_spec_type_checked(self):
        with pytest.raises(InvalidParamsError, match="spec must be a SimulationSpec, got dict"):
            simulate_cohort({"n_subjects": 10, "seed": 1})

    def test_law_of_large_numbers_bands(self):
        counts = simulate_cohort(make_spec(**GOLDEN_SPEC))
        total = counts.total
        assert total == GOLDEN_SPEC["n"]
        assert abs(counts.n_exposed / total - 0.2) < 0.01
        assert abs(counts.n_cases / total - 0.11) < 0.01  # p_pop = 0.11

    def test_determinism(self):
        first = simulate_cohort(make_spec(0.3, 0.05, 2.0, 50000, 123456789))
        second = simulate_cohort(make_spec(0.3, 0.05, 2.0, 50000, 123456789))
        assert first == second

    def test_different_seeds_differ(self):
        a = simulate_cohort(make_spec(0.3, 0.05, 2.0, 50000, 1))
        b = simulate_cohort(make_spec(0.3, 0.05, 2.0, 50000, 2))
        assert a != b

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n", STREAM_SIZES)
    @pytest.mark.parametrize("f, p0, rr", STREAM_SCENARIOS)
    def test_counts_match_per_subject_tabulation(self, f, p0, rr, n, seed):
        counts = simulate_cohort(make_spec(f, p0, rr, n, seed))
        assert (
            counts.n_exposed_case,
            counts.n_exposed_control,
            counts.n_unexposed_case,
            counts.n_unexposed_control,
        ) == tabulate_cohort(f, p0, rr, n, seed)

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_single_subject_lands_in_one_cell(self, seed):
        counts = simulate_cohort(make_spec(0.5, 0.5, 1.0, 1, seed))
        cells = [
            counts.n_exposed_case,
            counts.n_exposed_control,
            counts.n_unexposed_case,
            counts.n_unexposed_control,
        ]
        assert sum(cells) == 1
        assert sorted(cells) == [0, 0, 0, 1]


_CHILD_PRELUDE = """
import os, sys, threading
from binaryrisk import PopulationParams, SimulationSpec, simulate_cohort

def draw(n, seed):
    spec = SimulationSpec(params=PopulationParams(f=0.2, p0=0.1, rr=1.5), n_subjects=n, seed=seed)
    c = simulate_cohort(spec)
    return (c.n_exposed_case, c.n_exposed_control, c.n_unexposed_case, c.n_unexposed_control)
"""


def _run_child(body, timeout=60):
    """Run ``body`` after ``_CHILD_PRELUDE`` in a fresh interpreter.

    The body prints one Python literal, which is returned. Each child has
    its own cohort helper, so no test sees another's.
    """
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_PRELUDE + textwrap.dedent(body)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert completed.returncode == 0, completed.stderr
    return ast.literal_eval(completed.stdout)


class TestSplitDraw:
    """The helper thread behind cohorts of 2**16 or more subjects."""

    def test_a_failed_call_leaves_nothing_for_the_next(self):
        script = """
        from binaryrisk import cohort
        draw(200_000, 1)
        # the caller's half fails while the helper draws: the helper's late
        # reply must not reach a later call
        tabulate = cohort._tabulate
        def failing(seed, n, start, *rest):
            if not start:
                raise MemoryError("caller half")
            return tabulate(seed, n, start, *rest)
        cohort._tabulate = failing
        try:
            draw(200_000, 1)
        except MemoryError:
            pass
        else:
            sys.exit("no MemoryError")
        # the helper's half fails: its error reaches the caller, and only it
        def failing(seed, n, start, *rest):
            if start:
                raise ArithmeticError("helper half")
            return tabulate(seed, n, start, *rest)
        cohort._tabulate = failing
        try:
            draw(200_000, 2)
        except ArithmeticError:
            pass
        else:
            sys.exit("the helper's error was lost")
        cohort._tabulate = tabulate
        print([draw(200_000, 2), draw(200_000, 3)])
        """
        assert _run_child(script) == [
            tabulate_cohort(0.2, 0.1, 1.5, 200_000, seed) for seed in (2, 3)
        ]

    def test_threads_drawing_at_once(self):
        # more drawing threads than cores, switching as often as the
        # interpreter allows: each must get its own cohort's counts
        script = """
        sys.setswitchinterval(1e-6)
        barrier = threading.Barrier(4)
        results = {}
        def worker(first_seed):
            barrier.wait()
            results[first_seed] = [draw(200_000, seed) for seed in range(first_seed, first_seed + 6)]
        threads = [threading.Thread(target=worker, args=(s,)) for s in (10, 20, 30, 40)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        print([results, any(t.is_alive() for t in threads)])
        """
        assert _run_child(script) == [
            {
                first: [tabulate_cohort(0.2, 0.1, 1.5, 200_000, s) for s in range(first, first + 6)]
                for first in (10, 20, 30, 40)
            },
            False,
        ]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_without_the_parents_helper(self):
        script = """
        import warnings
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        draw(200_000, 1)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.write(write, repr(draw(200_000, 5)).encode())
            os._exit(0)
        os.close(write)
        child = os.read(read, 4096).decode()
        os.waitpid(pid, 0)
        print(child)
        """
        assert _run_child(script, timeout=30) == tabulate_cohort(0.2, 0.1, 1.5, 200_000, 5)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_one_cpu_draws_inline(self):
        script = """
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
        print([draw(200_000, 4), threading.active_count()])
        """
        assert _run_child(script) == [tabulate_cohort(0.2, 0.1, 1.5, 200_000, 4), 1]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_one_cpu_draws_many_chunks_inline(self):
        # 15 chunks of 2**16 subjects and one of 16 963, all on this thread
        script = """
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
        print([draw(1_000_003, 6), threading.active_count()])
        """
        assert _run_child(script) == [tabulate_cohort(0.2, 0.1, 1.5, 1_000_003, 6), 1]

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_thread_starts_at_the_split_size(self):
        script = """
        draw(2**16 - 1, 1)
        before = threading.active_count()
        draw(2**16, 1)
        print([before, threading.active_count()])
        """
        assert _run_child(script) == [1, 2]

    def test_traced_peak_per_subject(self):
        # bounded by the chunk, not by n: the 1 MiB uniform buffer and two
        # reused 64 KiB masks per thread, 1.25 MiB in all
        script = """
        import tracemalloc
        draw(200_000, 1)
        peaks = []
        for n in (1_000_000, 10_000_000):
            tracemalloc.start()
            draw(n, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        print(peaks)
        """
        assert max(_run_child(script)) <= 1.4 * 2**20

    def test_no_buffer_held_between_draws(self):
        # the helper lets go of its half's view once it has replied, so the
        # 1 MiB buffer is freed with the draw, not kept until the next job
        script = """
        import time, tracemalloc
        draw(200_000, 1)
        tracemalloc.start()
        draw(200_000, 1)
        deadline = time.monotonic() + 5
        while tracemalloc.get_traced_memory()[0] > 2**16 and time.monotonic() < deadline:
            time.sleep(0.01)
        print(tracemalloc.get_traced_memory()[0])
        """
        assert _run_child(script) <= 2**16


class TestEmpiricalC:
    def test_single_concordant_pair(self):
        assert empirical_c(CohortCounts(1, 0, 0, 1)) == 1.0

    def test_balanced_table_is_half(self):
        assert empirical_c(CohortCounts(1, 1, 1, 1)) == 0.5

    def test_enumerated_example(self):
        # (3*8*1 + 3*2*0.5 + 1*8*0.5 + 1*2*0) / 40 = 31/40
        counts = CohortCounts(3, 2, 1, 8)
        assert empirical_c(counts) == 31 / 40
        assert empirical_c(counts) == pairwise_c_enumerated(counts)

    def test_no_cases_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            empirical_c(CohortCounts(0, 5, 0, 5))

    def test_no_controls_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            empirical_c(CohortCounts(5, 0, 5, 0))

    def test_matches_enumeration_on_random_tables(self):
        rng = np.random.Generator(np.random.PCG64(4242))
        checked = 0
        while checked < 100:
            cells = [int(x) for x in rng.integers(0, 13, size=4)]
            counts_sum = sum(cells)
            if counts_sum == 0 or counts_sum > 50:
                continue
            if cells[0] + cells[2] == 0 or cells[1] + cells[3] == 0:
                continue
            counts = CohortCounts(*cells)
            assert empirical_c(counts) == pairwise_c_enumerated(counts)
            checked += 1

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_plug_in_identity(self, nec, nectrl, nuc, nuctrl):
        cases = nec + nuc
        controls = nectrl + nuctrl
        if cases == 0 or controls == 0:
            return
        counts = CohortCounts(nec, nectrl, nuc, nuctrl)
        f_cases_hat = nec / cases
        f_controls_hat = nectrl / controls
        assert abs(
            empirical_c(counts) - c_index_closed(f_cases_hat, f_controls_hat)
        ) <= 1e-12


class TestPluginRates:
    def test_rates(self):
        assert plugin_rates(CohortCounts(3, 17, 8, 72)) == (0.2, 0.1, 0.15)

    def test_missing_exposure_group_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            plugin_rates(CohortCounts(0, 0, 5, 5))


class TestEmpiricalMeasures:
    def test_exact_frequency_table(self):
        measures = empirical_measures(CohortCounts(3, 17, 8, 72))
        assert measures.p1 == pytest.approx(0.15, abs=1e-12)
        assert measures.f_cases == pytest.approx(3 / 11, abs=1e-12)
        assert measures.f_controls == pytest.approx(17 / 89, abs=1e-12)
        assert measures.c_index == pytest.approx(C_INDEX_02, abs=1e-12)

    def test_balanced_table(self):
        measures = empirical_measures(CohortCounts(1, 1, 1, 1))
        assert measures.p1 == 0.5
        assert measures.par == 0.0
        assert measures.c_index == 0.5

    def test_protective_direction_record(self):
        # p1_hat = 0 with p0_hat = 0.5: implied rr_hat = 0, negative par
        measures = empirical_measures(CohortCounts(0, 5, 5, 5))
        assert measures.p1 == 0.0
        assert measures.f_cases == 0.0
        assert measures.f_controls == pytest.approx(0.5, abs=1e-12)
        assert measures.par == pytest.approx(-0.5, abs=1e-12)
        assert measures.c_index == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "counts",
        [
            CohortCounts(3, 17, 8, 72),
            CohortCounts(120, 380, 40, 460),
            CohortCounts(0, 50, 7, 43),  # no exposed case: rr_hat = 0
            CohortCounts(10, 0, 5, 5),  # no exposed control: p1_hat = 1
        ],
    )
    def test_equals_public_helpers_on_plugin_rates(self, counts):
        f_hat, p0_hat, p1_hat = plugin_rates(counts)
        f_cases = prevalence_in_cases(f_hat, p0_hat, p1_hat)
        f_controls = prevalence_in_controls(f_hat, p0_hat, p1_hat)
        assert empirical_measures(counts) == DerivedMeasures(
            p1=p1_hat,
            f_cases=f_cases,
            f_controls=f_controls,
            par=par(f_hat, p1_hat / p0_hat),
            c_index=c_index_closed(f_cases, f_controls),
        )

    def test_no_unexposed_cases_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            empirical_measures(CohortCounts(5, 5, 0, 5))

    def test_missing_margin_degenerate(self):
        with pytest.raises(DegenerateScenarioError):
            empirical_measures(CohortCounts(0, 0, 5, 5))

    def test_no_cases_degenerate(self):
        with pytest.raises(DegenerateScenarioError, match="the cohort has 0 cases and 10 controls"):
            empirical_measures(CohortCounts(0, 5, 0, 5))

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    def test_c_index_field_equals_pairwise_statistic(self, nec, nectrl, nuc, nuctrl):
        counts = CohortCounts(nec, nectrl, nuc, nuctrl)
        assert abs(empirical_measures(counts).c_index - empirical_c(counts)) <= 1e-12


class TestOracleAgreement:
    def test_large_cohort_close_to_closed_form(self):
        counts = simulate_cohort(make_spec(0.2, 0.1, 1.5, 200000, 7))
        assert abs(empirical_c(counts) - C_INDEX_02) < 0.01

    def test_spread_of_scenarios(self):
        rng = np.random.Generator(np.random.PCG64(57))
        for _ in range(10):
            f = float(rng.uniform(0.1, 0.9))
            p0 = float(rng.uniform(0.05, 0.4))
            rr = float(rng.uniform(1.0, min(2.0, 1.0 / p0)))
            seed = int(rng.integers(0, 2**63))
            counts = simulate_cohort(make_spec(f, p0, rr, 200000, seed))
            closed = derive_measures(PopulationParams(f=f, p0=p0, rr=rr)).c_index
            assert abs(empirical_c(counts) - closed) < 0.02
