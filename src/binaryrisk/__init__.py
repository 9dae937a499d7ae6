"""Epidemiologic algebra for a single binary risk factor.

Links the scenario triple (risk factor prevalence, incidence among the
unexposed, relative risk) to the population-attributable risk and the
concordance index of the exposure rule, solves the inverse problems,
validates the closed forms against a seeded cohort simulation, and sweeps
(p0, rr) grids into contour figures.

Only ``cohort`` and ``sweep`` use numpy; they, and the names taken from
them, are imported on first access, so the closed forms load without it.
Each public name is listed once, in its module's ``__all__``; ``_LAZY``
is the one table of the numpy-backed names, read here and by ``cli``.
"""

from . import errors, measures
from .errors import *  # noqa: F403
from .measures import *  # noqa: F403

__version__ = "0.1.0"

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

__all__ = ["__version__", *errors.__all__, *measures.__all__, *_LAZY]


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
