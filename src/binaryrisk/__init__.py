"""Epidemiologic algebra for a single binary risk factor.

Links the scenario triple (risk factor prevalence, incidence among the
unexposed, relative risk) to the population-attributable risk and the
concordance index of the exposure rule, solves the inverse problems,
validates the closed forms against a seeded cohort simulation, and sweeps
(p0, rr) grids into contour figures.

Only ``cohort`` and ``sweep`` use numpy; they, and the names taken from
them, are imported on first access, so the closed forms load without it.
"""

from .errors import (
    BinaryRiskError,
    DegenerateScenarioError,
    InvalidParamsError,
    RenderError,
    TargetUnreachableError,
)
from .measures import (
    DerivedMeasures,
    PopulationParams,
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
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BinaryRiskError",
    "InvalidParamsError",
    "DegenerateScenarioError",
    "TargetUnreachableError",
    "RenderError",
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
    "CohortCounts",
    "SimulationSpec",
    "simulate_cohort",
    "empirical_c",
    "plugin_rates",
    "empirical_measures",
    "GridSpec",
    "MeasureGrid",
    "ContourSet",
    "evaluate_grid",
    "extract_contours",
    "render_svg",
    "grids_to_csv",
    "grids_to_json",
]

# The numpy-backed public names, by the submodule that defines them.
_LAZY = {
    **dict.fromkeys(
        ("CohortCounts", "SimulationSpec", "simulate_cohort", "empirical_c",
         "plugin_rates", "empirical_measures"),
        "cohort",
    ),
    **dict.fromkeys(
        ("GridSpec", "MeasureGrid", "ContourSet", "evaluate_grid", "extract_contours",
         "render_svg", "grids_to_csv", "grids_to_json"),
        "sweep",
    ),
}


def __getattr__(name: str):
    from importlib import import_module

    if name in ("cohort", "sweep"):
        # importing a submodule also binds it as an attribute of this package
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, "cohort", "sweep"})
