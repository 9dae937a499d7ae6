"""Epidemiologic algebra for a single binary risk factor.

Links the scenario triple (risk factor prevalence, incidence among the
unexposed, relative risk) to the population-attributable risk and the
concordance index of the exposure rule, solves the inverse problems,
validates the closed forms against a seeded cohort simulation, and sweeps
(p0, rr) grids into contour figures.
"""

from .cohort import (
    CohortCounts,
    SimulationSpec,
    empirical_c,
    empirical_measures,
    plugin_rates,
    simulate_cohort,
)
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
from .sweep import (
    ContourSet,
    GridSpec,
    MeasureGrid,
    evaluate_grid,
    extract_contours,
    grids_to_csv,
    grids_to_json,
    render_svg,
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
