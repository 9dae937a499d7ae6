"""Seeded cohort simulation and the empirical pairwise concordance statistic.

The simulator is a finite-sample oracle for the closed-form measures: draw
n independent subjects, each exposed with probability f and then diseased
with probability p1 if exposed and p0 otherwise, and tabulate the result
as a 2x2 exposure-by-disease table. The pairwise c statistic computed from
that table is what the closed form must reproduce, and the test suite
compares the two both exactly (on plug-in frequencies) and stochastically
(over large simulated cohorts).

Determinism contract: the generator is numpy's PCG64, seeded directly with
the spec's seed, consuming one block of n uniforms for exposure followed
by one block of n uniforms for disease status. Identical specs therefore
produce identical counts on every platform, which is what lets the test
suite pin exact golden counts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

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
    """What to simulate: the scenario, the cohort size, and the RNG seed."""

    params: PopulationParams
    n_subjects: int
    seed: int

    def __post_init__(self) -> None:
        _require_type(self.params, PopulationParams, "params")
        n_subjects = _require_count(self.n_subjects, "n_subjects", minimum=1)
        if n_subjects > sys.maxsize:
            # the largest array length numpy can even be asked for
            raise InvalidParamsError(
                f"n_subjects must be at most {sys.maxsize}, got {n_subjects}"
            )
        object.__setattr__(self, "n_subjects", n_subjects)
        seed = _require_count(self.seed, "seed")
        if seed > _SEED_MAX:
            raise InvalidParamsError(f"seed must fit in 64 bits, got {seed}")
        object.__setattr__(self, "seed", seed)


def simulate_cohort(spec: SimulationSpec) -> CohortCounts:
    """Draw the cohort described by ``spec`` and tabulate its 2x2 counts.

    Deterministic: the same spec always yields the same counts (PCG64,
    exposure uniforms first, disease uniforms second).
    """
    _require_type(spec, SimulationSpec, "spec")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = spec.n_subjects
    params = spec.params
    # both blocks go through one buffer: the exposure block is compared
    # before the disease block overwrites it. A subject is a case when its
    # disease uniform falls below the threshold of its exposure group.
    draw = np.empty(n)
    exposed = rng.random(n, out=draw) < params.f
    rng.random(n, out=draw)
    n_exposed = int(np.count_nonzero(exposed))
    n_exposed_case = int(np.count_nonzero(exposed & (draw < params.p1)))
    below_p0 = draw < params.p0
    n_unexposed_case = int(np.count_nonzero(below_p0)) - int(
        np.count_nonzero(exposed & below_p0)
    )
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
