"""Seeded cohort simulation and the empirical pairwise concordance statistic.

The simulator is a finite-sample oracle for the closed-form measures: draw
n independent subjects, each exposed with probability f and then diseased
with probability p1 if exposed and p0 otherwise, and tabulate the result
as a 2x2 exposure-by-disease table. The pairwise c statistic computed from
that table is what the closed form must reproduce, and the test suite
compares the two both exactly (on plug-in frequencies) and stochastically
(over large simulated cohorts).

Determinism contract, in stream positions: subject i (0 <= i < n) is
exposed when output i of numpy's ``PCG64(seed)`` stream, read as a
``Generator.random`` double, falls below f, and is a case when output
n + i falls below the threshold of its exposure group (p1 if exposed,
p0 otherwise). That holds whichever thread reads the output. Identical
specs therefore produce identical counts on every platform, which is
what lets the test suite pin exact golden counts.

A cohort is drawn whole, through one generator on the calling thread,
when it has fewer than 2**16 subjects, when the process's CPU affinity
holds one CPU, or when the helper thread is busy with another thread's
draw. Otherwise the calling thread draws [0, n // 2) while the helper,
started by the first such draw (a forked child starts without it), draws
[n // 2, n), each half by its own generator advanced to the half's two
stream positions. Each thread walks its share in chunks of at most 2**16
subjects through its part of one buffer, stepping its generator between
the exposure and disease positions of each chunk. So a draw of any size
holds one buffer of at most 2**17 floats (1 MiB) and two boolean masks
of one chunk per thread, and every subject still reads the two stream
outputs above; the counts do not depend on how the cohort was drawn.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from queue import SimpleQueue

import numpy as np

from .errors import DegenerateScenarioError, InvalidParamsError
from .measures import (
    DerivedMeasures, PopulationParams, _measure_kernel, _require_count, _require_type
)

__all__ = [
    "CohortCounts",
    "SimulationSpec",
    "simulate_cohort",
    "empirical_c",
    "plugin_rates",
    "empirical_measures",
]

_SEED_MAX = 2**64 - 1
# The largest cohort a spec accepts. A draw takes about 3 ns per subject
# on two cores, so a cohort this size takes about an hour; a larger n
# would draw for days rather than fail.
_MAX_SUBJECTS = 2**40


@dataclass(frozen=True)
class CohortCounts:
    """2x2 exposure-by-disease table of a finite cohort."""

    n_exposed_case: int
    n_exposed_control: int
    n_unexposed_case: int
    n_unexposed_control: int

    def __post_init__(self) -> None:
        for item in fields(self):
            object.__setattr__(self, item.name, _require_count(getattr(self, item.name), item.name))
        if self.total == 0:
            raise InvalidParamsError("the cohort is empty; at least one subject is required")

    @property
    def total(self) -> int:
        return (
            self.n_exposed_case
            + self.n_exposed_control
            + self.n_unexposed_case
            + self.n_unexposed_control
        )

    @property
    def n_cases(self) -> int:
        return self.n_exposed_case + self.n_unexposed_case

    @property
    def n_controls(self) -> int:
        return self.n_exposed_control + self.n_unexposed_control

    @property
    def n_exposed(self) -> int:
        return self.n_exposed_case + self.n_exposed_control

    @property
    def n_unexposed(self) -> int:
        return self.n_unexposed_case + self.n_unexposed_control


@dataclass(frozen=True)
class SimulationSpec:
    """What to simulate: the scenario, the cohort size, and the RNG seed.

    ``n_subjects`` runs from 1 to 2**40. The draw's memory does not grow
    with it; its time does, linearly. Whatever the size, the cohort is
    drawn whole or in two halves as the module docstring says, with the
    same counts either way.
    """

    params: PopulationParams
    n_subjects: int
    seed: int

    def __post_init__(self) -> None:
        _require_type(self.params, PopulationParams, "params")
        n_subjects = _require_count(
            self.n_subjects, "n_subjects", minimum=1, maximum=_MAX_SUBJECTS
        )
        object.__setattr__(self, "n_subjects", n_subjects)
        object.__setattr__(self, "seed", _require_count(self.seed, "seed", maximum=_SEED_MAX))


# The smallest cohort drawn as two halves. Timed inside a stream of CLI
# requests, where the idle helper must be woken for each draw, splits of
# 32 768-65 535 subjects ran 0.91-1.05x as fast as one thread and splits
# of 65 536-99 999 subjects 1.02-1.22x (2-vCPU Xeon, numpy 2.4.6).
_SPLIT_AT = 2**16
# The most subjects a thread draws through its buffer at once.
_CHUNK = 2**16

# Held by the thread whose draw in halves the helper serves.
_busy = threading.Lock()
# The helper's job queue, None until the first draw in halves starts it.
_jobs = None


def _forget_helper() -> None:
    # a forked child has no helper thread, and no other thread to free _busy
    global _busy, _jobs
    _busy = threading.Lock()
    _jobs = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _serve(jobs: SimpleQueue) -> None:
    """The helper thread's loop: answer each job as it comes."""
    while True:
        reply, half = jobs.get()
        # Any exception goes to the caller, which raises it; caught here, it
        # cannot end the helper and leave the caller waiting.
        try:
            reply.put(_tabulate(*half))
        except BaseException as exc:
            reply.put(exc)
        # the half's view of the buffer is not held until the next job
        del reply, half


def _tabulate(seed, n, start, stop, draw, f, p0, p1) -> tuple[int, int, int]:
    """(exposed, exposed cases, unexposed cases) of subjects [start, stop).

    [start, stop) is the whole cohort [0, n), or one of its two halves.
    The share is walked in chunks of at most ``_CHUNK`` subjects through
    ``draw``, a buffer of at least ``min(stop - start, _CHUNK)`` floats.
    A chunk [lo, lo + m) reads its exposure uniforms from stream outputs
    lo .. lo + m - 1, then advances to its disease uniforms at n + lo ..;
    both blocks go through the buffer, the exposure block compared into
    the exposure mask before the disease block overwrites it. Before the
    next chunk the generator advances by 2**128 - n, one full period less
    n, back to lo + m. A subject is a case when its disease uniform falls
    below the threshold of its exposure group. The exposure mask and one
    scratch mask are allocated once per call and filled in place.
    """
    bits = np.random.PCG64(seed)
    if start:
        bits.advance(start)
    rng = np.random.Generator(bits)
    size = min(stop - start, _CHUNK)
    exposed_buffer = np.empty(size, dtype=bool)
    scratch_buffer = np.empty(size, dtype=bool)
    n_exposed = n_exposed_case = n_unexposed_case = 0
    for lo in range(start, stop, _CHUNK):
        m = min(_CHUNK, stop - lo)
        chunk = draw[:m]
        exposed = exposed_buffer[:m]
        scratch = scratch_buffer[:m]
        np.less(rng.random(m, out=chunk), f, out=exposed)
        if m < n:
            bits.advance(n - m)
        rng.random(m, out=chunk)
        n_exposed += int(np.count_nonzero(exposed))
        np.less(chunk, p1, out=scratch)
        n_exposed_case += int(np.count_nonzero(np.logical_and(exposed, scratch, out=scratch)))
        np.less(chunk, p0, out=scratch)
        n_unexposed_case += int(np.count_nonzero(scratch)) - int(
            np.count_nonzero(np.logical_and(exposed, scratch, out=scratch))
        )
        if lo + m < stop:
            bits.advance(2**128 - n)
    return n_exposed, n_exposed_case, n_unexposed_case


def _draw(seed, n, f, p0, p1) -> tuple[int, int, int]:
    """``_tabulate`` of the whole cohort, as two halves on two threads if it can."""
    global _jobs
    # One buffer for both threads, made before the hand-off: two arrays
    # of half the size would set glibc's trim threshold so low that their
    # pages went back to the kernel, and faulted in again, every draw.
    draw = np.empty(min(n, 2 * _CHUNK))
    if n < _SPLIT_AT or _cpus() == 1 or not _busy.acquire(blocking=False):
        return _tabulate(seed, n, 0, n, draw, f, p0, p1)
    h = n // 2
    mid = draw.size // 2
    try:
        if _jobs is None:
            jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="binaryrisk-cohort", daemon=True).start()
            _jobs = jobs
        reply = SimpleQueue()
        _jobs.put((reply, (seed, n, h, n, draw[mid:], f, p0, p1)))
        mine = _tabulate(seed, n, 0, h, draw[:mid], f, p0, p1)
        theirs = reply.get()
    finally:
        _busy.release()
    if isinstance(theirs, BaseException):
        raise theirs
    return tuple(a + b for a, b in zip(mine, theirs))


def simulate_cohort(spec: SimulationSpec) -> CohortCounts:
    """Draw the cohort described by ``spec`` and tabulate its 2x2 counts.

    Deterministic: the same spec always yields the same counts, read from
    the stream positions of the module docstring's contract.
    """
    _require_type(spec, SimulationSpec, "spec")
    n = spec.n_subjects
    p = spec.params
    n_exposed, n_exposed_case, n_unexposed_case = _draw(spec.seed, n, p.f, p.p0, p.p1)
    return CohortCounts(
        n_exposed_case=n_exposed_case,
        n_exposed_control=n_exposed - n_exposed_case,
        n_unexposed_case=n_unexposed_case,
        n_unexposed_control=n - n_exposed - n_unexposed_case,
    )


def empirical_c(counts: CohortCounts) -> float:
    """Pairwise concordance of the exposure rule over all case-control pairs.

    A pair scores 1 when the case is exposed and the control is not, 0.5
    when the two members tie on exposure, and 0 when the exposure order is
    reversed. The average over all n_cases * n_controls pairs collapses to
    a closed expression in the four counts; the result is identical to the
    explicit O(n^2) enumeration over the expanded cohort.
    """
    cases = counts.n_cases
    controls = counts.n_controls
    if cases == 0 or controls == 0:
        raise DegenerateScenarioError(
            f"the pairwise c statistic needs at least one case and one control; "
            f"the cohort has {cases} cases and {controls} controls"
        )
    score = (
        1.0 * (counts.n_exposed_case * counts.n_unexposed_control)
        + 0.5 * (counts.n_exposed_case * counts.n_exposed_control)
        + 0.5 * (counts.n_unexposed_case * counts.n_unexposed_control)
    )
    return score / (cases * controls)


def plugin_rates(counts: CohortCounts) -> tuple[float, float, float]:
    """Plug-in rates (f_hat, p0_hat, p1_hat) from the table margins."""
    if counts.n_exposed == 0 or counts.n_unexposed == 0:
        raise DegenerateScenarioError(
            f"plug-in rates need both exposure groups; the cohort has "
            f"{counts.n_exposed} exposed and {counts.n_unexposed} unexposed subjects"
        )
    f_hat = counts.n_exposed / counts.total
    p1_hat = counts.n_exposed_case / counts.n_exposed
    p0_hat = counts.n_unexposed_case / counts.n_unexposed
    return f_hat, p0_hat, p1_hat


def empirical_measures(counts: CohortCounts) -> DerivedMeasures:
    """Population formulas evaluated at the cohort's empirical frequencies.

    The ``c_index`` field agrees with :func:`empirical_c` on the same
    counts to within float rounding: the two routes are algebraically
    identical on plug-in frequencies. Cohorts with no exposed cases yield
    a protective-direction record (rr_hat = 0, negative par). The checks
    below stand in for :class:`PopulationParams`; the values then come from
    the same measure kernel as :func:`derive_measures`.
    """
    f_hat, p0_hat, p1_hat = plugin_rates(counts)
    if counts.n_cases == 0 or counts.n_controls == 0:
        raise DegenerateScenarioError(
            f"plug-in measures need at least one case and one control; the cohort "
            f"has {counts.n_cases} cases and {counts.n_controls} controls"
        )
    if p0_hat == 0.0:
        raise DegenerateScenarioError(
            "no unexposed subject became a case, so the plug-in relative risk "
            "p1_hat / p0_hat is undefined"
        )
    return DerivedMeasures(*_measure_kernel(f_hat, p0_hat, p1_hat, p1_hat / p0_hat))
