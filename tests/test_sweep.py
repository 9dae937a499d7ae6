import bisect
import csv
import dataclasses
import functools
import io
import json
import math
import struct
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from binaryrisk import (
    ContourSet,
    DegenerateScenarioError,
    GridSpec,
    InvalidParamsError,
    MeasureGrid,
    PopulationParams,
    derive_measures,
    evaluate_grid,
    extract_contours,
    grids_to_csv,
    grids_to_json,
    par,
    render_svg,
)
from binaryrisk.sweep import _BLOCK, _contour_polylines, _format2, _format12, _json_float

from _oracles import bilinear_c, derive_exact

C_INDEX_02 = 0.5408580183861083  # closed form at (f=0.2, p0=0.1, rr=1.5)
PAR_02 = 0.09090909090909091  # 1/11

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def default_spec():
    return GridSpec()


@pytest.fixture(scope="module")
def default_grids(default_spec):
    return [evaluate_grid(default_spec, f) for f in default_spec.prevalences]


@pytest.fixture(scope="module")
def wide_spec():
    # reaches into the infeasible corner rr * p0 > 1 so masking is exercised
    return GridSpec(
        prevalences=(0.2,),
        p0_min=0.05,
        p0_max=0.9,
        rr_min=1.0,
        rr_max=3.0,
        resolution=61,
        contour_levels=(0.55, 0.6, 0.7),
    )


@pytest.fixture(scope="module")
def wide_grid(wide_spec):
    return evaluate_grid(wide_spec, 0.2)


class TestGridSpec:
    def test_defaults(self, default_spec):
        assert default_spec.prevalences == (0.5, 0.2, 0.1)
        assert default_spec.p0_min == 0.001
        assert default_spec.p0_max == 0.10
        assert default_spec.rr_min == 1.0
        assert default_spec.rr_max == 3.0
        assert default_spec.resolution == 201
        assert default_spec.contour_levels == tuple(
            round(0.51 + 0.01 * k, 2) for k in range(10)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 1},
            {"resolution": 2.5},
            {"p0_min": 0.2, "p0_max": 0.1},
            {"rr_min": 3.0, "rr_max": 1.0},
            {"rr_min": 0.0},
            {"prevalences": ()},
            {"prevalences": (0.5, 1.5)},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidParamsError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("field", ["prevalences", "contour_levels"])
    @pytest.mark.parametrize(
        "value",
        [0.5, "0.5", b"0.5", None, np.float64(0.5), np.array(0.5)],
        ids=["float", "str", "bytes", "None", "numpy-float", "0-d-array"],
    )
    def test_list_field_must_be_iterable(self, field, value):
        # a string would be read character by character
        with pytest.raises(InvalidParamsError) as excinfo:
            GridSpec(**{field: value})
        assert str(excinfo.value) == f"{field} must be an iterable of numbers, got {value!r}"

    @pytest.mark.parametrize(
        "prevalences, levels",
        [([0.5, 0.2], [0.55, 0.6]), (np.array([0.5, 0.2]), np.array([0.55, 0.6]))],
    )
    def test_list_fields_take_any_iterable(self, prevalences, levels):
        spec = GridSpec(prevalences=prevalences, contour_levels=(v for v in levels))
        assert (spec.prevalences, spec.contour_levels) == ((0.5, 0.2), (0.55, 0.6))

    def test_numpy_integer_resolution_is_stored_as_int(self):
        resolution = GridSpec(resolution=np.int64(5)).resolution
        assert resolution == 5
        assert type(resolution) is int

    @pytest.mark.parametrize(
        "resolution, message",
        [
            (True, "resolution must be an integer, got True"),
            (2.0, "resolution must be an integer, got 2.0"),
            (1, "resolution must be at least 2, got 1"),
            # on a 64-bit build: its square, in float64 bytes, fits an intp
            (2**30, "resolution must be at most 1073741823, got 1073741824"),
        ],
    )
    def test_resolution_messages(self, resolution, message):
        with pytest.raises(InvalidParamsError) as excinfo:
            GridSpec(resolution=resolution)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"p0_min": 0.2, "p0_max": 0.1}, "p0_min must lie below p0_max, got [0.2, 0.1]"),
            ({"rr_min": 3.0, "rr_max": 1.0}, "rr_min must lie below rr_max, got [3, 1]"),
            ({"p0_max": 0.001}, "p0_min must lie below p0_max, got [0.001, 0.001]"),
            # the p0 window is checked before the rr window, each end in turn
            ({"p0_min": 0.2, "p0_max": 0.1, "rr_min": -1.0}, "p0_min must lie below p0_max"),
            ({"p0_max": math.nan, "rr_min": math.nan}, "p0_max must be finite, got nan"),
            ({"p0_min": -0.5, "p0_max": 2.0}, "p0_min must lie in [0, 1], got -0.5"),
            ({"rr_min": 2.0, "rr_max": math.inf}, "rr_max must be finite, got inf"),
        ],
    )
    def test_window_messages(self, kwargs, message):
        with pytest.raises(InvalidParamsError) as excinfo:
            GridSpec(**kwargs)
        assert str(excinfo.value).startswith(message)

    def test_window_end_at_one_is_degenerate(self):
        with pytest.raises(DegenerateScenarioError, match="^p0_max = 1 makes the scenario"):
            GridSpec(p0_max=1.0)

    def test_negative_rr_min_is_named(self):
        with pytest.raises(InvalidParamsError, match="^rr_min must be positive, got -1.0$"):
            GridSpec(rr_min=-1.0)


def _per_cell_reference(spec, prevalence):
    """The grid as a loop of validated scenarios, one per unmasked cell."""
    p0_values = [float(x) for x in np.linspace(spec.p0_min, spec.p0_max, spec.resolution)]
    rr_values = [float(x) for x in np.linspace(spec.rr_min, spec.rr_max, spec.resolution)]
    c_values = np.full((spec.resolution, spec.resolution), np.nan)
    mask = np.zeros((spec.resolution, spec.resolution), dtype=bool)
    for i, rr in enumerate(rr_values):
        for j, p0 in enumerate(p0_values):
            if rr * p0 > 1.0:
                mask[i, j] = True
            else:
                params = PopulationParams(f=prevalence, p0=p0, rr=rr)
                c_values[i, j] = derive_measures(params).c_index
    return c_values, mask


class TestEvaluateGrid:
    def test_cell_nearest_reference_scenario(self, default_spec, default_grids):
        grid = default_grids[1]  # prevalence 0.2
        i = int(np.argmin(np.abs(grid.rr_axis - 1.5)))
        j = int(np.argmin(np.abs(grid.p0_axis - 0.10)))
        assert grid.c_values[i, j] == pytest.approx(C_INDEX_02, abs=1e-12)

    def test_null_effect_row_exactly_half(self, default_grids):
        for grid in default_grids:
            assert grid.rr_axis[0] == 1.0
            assert np.all(grid.c_values[0] == 0.5)

    def test_par_axis_entry(self, default_grids):
        grid = default_grids[1]
        i = int(np.argmin(np.abs(grid.rr_axis - 1.5)))
        assert grid.par_axis[i] == pytest.approx(PAR_02, abs=1e-12)

    def test_par_axis_matches_formula(self, default_grids):
        for grid in default_grids:
            for i in range(0, grid.rr_axis.size, 25):
                assert grid.par_axis[i] == par(grid.prevalence, float(grid.rr_axis[i]))

    def test_axes_cover_spec_window(self, default_spec, default_grids):
        grid = default_grids[0]
        assert grid.p0_axis[0] == default_spec.p0_min
        assert grid.p0_axis[-1] == default_spec.p0_max
        assert grid.rr_axis[0] == default_spec.rr_min
        assert grid.rr_axis[-1] == default_spec.rr_max
        assert grid.p0_axis.size == grid.rr_axis.size == default_spec.resolution

    def test_matches_direct_evaluation_on_sample(self, default_grids):
        rng = np.random.Generator(np.random.PCG64(99))
        for grid in default_grids:
            for _ in range(50):
                i = int(rng.integers(0, grid.rr_axis.size))
                j = int(rng.integers(0, grid.p0_axis.size))
                direct = derive_measures(
                    PopulationParams(
                        f=grid.prevalence,
                        p0=float(grid.p0_axis[j]),
                        rr=float(grid.rr_axis[i]),
                    )
                ).c_index
                assert abs(grid.c_values[i, j] - direct) <= 1e-12

    def test_bitwise_equal_to_per_cell_loop(
        self, default_spec, default_grids, wide_spec, wide_grid
    ):
        for spec, grids in ((default_spec, default_grids), (wide_spec, [wide_grid])):
            for grid in grids:
                ref_c, ref_mask = _per_cell_reference(spec, grid.prevalence)
                assert np.array_equal(grid.mask, ref_mask)
                assert np.array_equal(grid.c_values, ref_c, equal_nan=True)
        assert wide_grid.mask.any()

    def test_monotone_structure(self, default_grids):
        for grid in default_grids:
            assert np.all(np.diff(grid.c_values, axis=0) > 0.0)
            assert np.all(np.diff(grid.c_values[1:], axis=1) > 0.0)

    def test_infeasible_cells_masked_not_errored(self, wide_grid):
        products = np.outer(wide_grid.rr_axis, wide_grid.p0_axis)
        assert wide_grid.mask.any()
        assert np.array_equal(wide_grid.mask, products > 1.0)
        assert np.all(np.isnan(wide_grid.c_values[wide_grid.mask]))
        unmasked = wide_grid.c_values[~wide_grid.mask]
        assert np.all(unmasked >= 0.5)
        assert np.all(unmasked < 1.0)

    # at f = 1e-320 every cell's overall incidence lies below the float floor
    SUBNORMAL = dict(
        prevalences=(1e-320,), p0_max=2e-308, rr_min=1e308, rr_max=1.5e308, resolution=3
    )

    def test_fully_masked_subnormal_panel_does_not_raise(self):
        # rr * p0 >= 1.5 in every cell: no column keeps a cell, so none of
        # the discarded ones may raise
        grid = evaluate_grid(GridSpec(p0_min=1.5e-308, **self.SUBNORMAL), 1e-320)
        assert np.all(grid.mask)
        assert np.all(np.isnan(grid.c_values))
        for i, rr in enumerate(grid.rr_axis.tolist()):
            assert grid.par_axis[i] == par(1e-320, rr)

    def test_kept_corner_below_the_float_floor_raises(self):
        # rr_min * p0_min = 1 keeps the corner
        with pytest.raises(DegenerateScenarioError, match="below the float floor"):
            evaluate_grid(GridSpec(p0_min=1e-308, **self.SUBNORMAL), 1e-320)

    def test_prevalence_must_be_a_panel(self, default_spec):
        with pytest.raises(InvalidParamsError):
            evaluate_grid(default_spec, 0.3)

    def test_argument_types_checked(self, default_spec, default_grids):
        # every entry point words a wrong type the same way
        with pytest.raises(InvalidParamsError, match="^spec must be a GridSpec, got dict$"):
            evaluate_grid({}, 0.5)
        with pytest.raises(InvalidParamsError, match="^grid must be a MeasureGrid, got list$"):
            extract_contours([], 0.55)
        with pytest.raises(InvalidParamsError, match="^spec must be a GridSpec, got dict$"):
            render_svg(default_grids, {})
        with pytest.raises(InvalidParamsError, match="^grid must be a MeasureGrid, got dict$"):
            render_svg([{}, {}, {}], default_spec)
        with pytest.raises(InvalidParamsError, match="^grid must be a MeasureGrid, got int$"):
            grids_to_csv([1])
        with pytest.raises(InvalidParamsError, match="^grid must be a MeasureGrid, got int$"):
            grids_to_json([1], default_spec)
        with pytest.raises(InvalidParamsError, match="^spec must be a GridSpec, got str$"):
            grids_to_json(default_grids, "x")


class TestMeasureGridValidation:
    @pytest.mark.parametrize("name", ["c_values", "mask"])
    def test_dimension_mismatch_rejected(self, name):
        arrays = {"c_values": np.zeros((4, 5)), "mask": np.zeros((4, 5), dtype=bool)}
        arrays[name] = arrays[name][:, :3]
        with pytest.raises(
            InvalidParamsError,
            match=rf"^{name} shape \(4, 3\) does not match the axes \(4, 5\)$",
        ):
            MeasureGrid(
                prevalence=0.2,
                p0_axis=np.linspace(0.01, 0.1, 5),
                rr_axis=np.linspace(1.0, 2.0, 4),
                par_axis=np.zeros(4),
                **arrays,
            )

    @pytest.mark.parametrize("axis", ["p0_axis", "rr_axis", "par_axis"])
    @pytest.mark.parametrize("reshape", [(1, -1), (-1, 1)])
    def test_axis_must_be_one_dimensional(self, axis, reshape):
        # a 2-D axis of the right size would pass the shape checks, then
        # break the exporters and the contours
        axes = {"p0_axis": np.linspace(0.01, 0.1, 3), "rr_axis": np.linspace(1.0, 2.0, 3)}
        axes["par_axis"] = np.zeros(3)
        axes[axis] = axes[axis].reshape(reshape)
        with pytest.raises(InvalidParamsError) as excinfo:
            MeasureGrid(0.2, c_values=np.zeros((3, 3)), mask=np.zeros((3, 3), bool), **axes)
        assert str(excinfo.value) == f"{axis} must be one-dimensional, got shape {axes[axis].shape}"

    def test_par_axis_length_checked(self):
        with pytest.raises(InvalidParamsError):
            MeasureGrid(
                prevalence=0.2,
                p0_axis=np.linspace(0.01, 0.1, 5),
                rr_axis=np.linspace(1.0, 2.0, 4),
                c_values=np.zeros((4, 5)),
                par_axis=np.zeros(5),
                mask=np.zeros((4, 5), dtype=bool),
            )

    @pytest.mark.parametrize("axis", ["p0_axis", "rr_axis"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_axis_rejected(self, axis, bad):
        # a contour vertex on such an axis would be written as "inf" or "nan"
        axes = {"p0_axis": np.linspace(0.01, 0.1, 5), "rr_axis": np.linspace(1.0, 2.0, 4)}
        axes[axis][-1] = bad
        with pytest.raises(InvalidParamsError, match=f"{axis} must be finite"):
            MeasureGrid(
                prevalence=0.2,
                c_values=np.zeros((4, 5)),
                par_axis=np.zeros(4),
                mask=np.zeros((4, 5), dtype=bool),
                **axes,
            )


_TOP = 2.0**1021  # the largest unmasked c-value a MeasureGrid accepts


class TestGridBounds:
    """``MeasureGrid`` is the one check on a grid's numbers: a grid that
    passes it keeps every contour sum, difference and vertex finite, and
    no write through the grid can undo the check."""

    @staticmethod
    def _grid(p0_axis, c_values):
        return MeasureGrid(0.2, p0_axis, [1.0, 2.0], c_values, [0.0, 0.1], np.zeros((2, 2), bool))

    @pytest.mark.parametrize(
        "p0_axis, c_values, message",
        [
            # a crossing's difference would overflow: NaN vertices
            ([0.1, 0.2], [[-1.5e308, 1.5e308]] * 2, "c_values must be finite outside the mask"),
            # the saddle test's centre sum would overflow
            ([0.1, 0.2], [[1e308, 1e308], [1e308, 1.5e308]], "c_values must be finite outside"),
            # the interpolation along p0 would overflow: infinite vertices
            ([-1.5e308, 1.5e308], [[0.0, 1.0]] * 2, "p0_axis must have a finite spread"),
        ],
    )
    def test_overflowing_grid_rejected(self, p0_axis, c_values, message):
        with pytest.raises(InvalidParamsError, match=message):
            self._grid(p0_axis, c_values)

    @pytest.mark.parametrize(
        "c_values, level",
        [
            # a saddle whose edges span 2**1022
            ([[_TOP, -_TOP], [-_TOP, _TOP]], -(2.0**1020)),
            ([[_TOP, -_TOP], [-_TOP, _TOP]], 0.0),
            # corners that sum to nearly 2**1023
            ([[_TOP, _TOP], [_TOP, 0.75 * _TOP]], 0.875 * _TOP),
        ],
    )
    def test_grid_at_the_bounds_draws_finite_vertices(self, c_values, level):
        # the largest magnitudes and p0 spread that pass
        half = sys.float_info.max / 2
        vertices = _vertices(extract_contours(self._grid([-half, half], c_values), level))
        assert vertices and all(math.isfinite(v) for point in vertices for v in point)

    @pytest.mark.parametrize("name", ["p0_axis", "rr_axis", "par_axis", "c_values", "mask"])
    def test_arrays_are_read_only(self, name):
        spec = GridSpec(prevalences=(0.2,), resolution=3)
        grid = evaluate_grid(spec, 0.2)
        before = grids_to_json([grid], spec)
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[1] = math.nan if name == "c_values" else math.inf
        assert grids_to_json([grid], spec) == before

    def test_arrays_passed_in_are_not_copied(self):
        values = np.zeros((2, 2))
        grid = self._grid([0.1, 0.2], values)
        assert np.shares_memory(grid.c_values, values)
        values[0, 0] = 1.0
        assert values.flags.writeable and grid.c_values[0, 0] == 1.0


def _vertices(contour_set):
    return [point for polyline in contour_set.polylines for point in polyline]


def _per_level(grid, levels):
    """``_contour_polylines`` as one ``(x, y, bounds)`` per level, in order,
    each level's bounds counted from its own first vertex."""
    x, y, bounds = _contour_polylines(grid, levels)
    return [(x[a[0] : a[-1]], y[a[0] : a[-1]], [k - a[0] for k in a]) for a in bounds]


class TestExtractContours:
    def test_level_below_field_is_empty_or_boundary(self, default_grids):
        contour = extract_contours(default_grids[1], 0.5)
        for x, y in _vertices(contour):
            assert abs(y - 1.0) <= 1e-12  # degenerate set on the rr = 1 edge

    def test_level_crossing_reference_scenario(self, default_grids):
        contour = extract_contours(default_grids[1], 0.54)
        assert contour.polylines
        closest = min(
            math.hypot(x - 0.10, y - 1.5) for x, y in _vertices(contour)
        )
        # c(0.10, 1.5) = 0.5409 > 0.54 > 0.5332 = c(0.10, 1.4): the contour
        # must cross between those points
        assert closest < 0.05

    def test_level_never_crossed_is_empty(self, default_grids):
        contour = extract_contours(default_grids[1], 0.99)
        assert contour.polylines == ()
        assert isinstance(contour, ContourSet)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "fully-masked"])
    def test_levels_never_crossed_stitch_to_nothing(self, default_grids, masked):
        # no segment at any of several levels: the stitch gets an empty input
        grid = default_grids[1]
        if masked:
            grid = dataclasses.replace(grid, mask=np.ones_like(grid.mask))
        levels = (0.99, 0.3, -1.0, 0.55) if masked else (0.99, 0.3, -1.0)
        result = _per_level(grid, levels)
        assert len(result) == len(levels)
        for x, y, bounds in result:
            assert x.size == 0 and y.size == 0
            assert bounds == [0]

    def test_vertices_stay_inside_bounding_box(self, default_spec, default_grids):
        for grid in default_grids:
            for level in default_spec.contour_levels:
                for x, y in _vertices(extract_contours(grid, level)):
                    assert default_spec.p0_min <= x <= default_spec.p0_max
                    assert default_spec.rr_min <= y <= default_spec.rr_max

    def test_bilinear_fidelity(self, default_spec, default_grids):
        for grid in default_grids:
            for level in default_spec.contour_levels:
                for x, y in _vertices(extract_contours(grid, level)):
                    assert abs(bilinear_c(grid, x, y) - level) <= 1e-9

    def test_contours_avoid_masked_cells(self, wide_spec, wide_grid):
        for level in wide_spec.contour_levels:
            for x, y in _vertices(extract_contours(wide_grid, level)):
                value = bilinear_c(wide_grid, x, y)
                assert not math.isnan(value)
                assert abs(value - level) <= 1e-9

    def test_deterministic(self, default_grids):
        first = extract_contours(default_grids[0], 0.55)
        second = extract_contours(default_grids[0], 0.55)
        assert first == second

    def test_polylines_are_chained(self, default_grids):
        # one strictly monotone field, one level: a single open polyline
        contour = extract_contours(default_grids[1], 0.54)
        assert len(contour.polylines) == 1
        assert len(contour.polylines[0]) > 10

    def test_vertices_sit_on_edges_bracketing_the_level_exactly(self, default_spec, default_grids):
        # A vertex is interpolated along one lattice edge, so it shares its rr
        # with a row (a horizontal edge) or its p0 with a column (a vertical
        # one). The exact c-indices at the two ends of that edge, read at the
        # float axis values, must bracket the level.
        for grid in default_grids:
            p0_axis, rr_axis = grid.p0_axis.tolist(), grid.rr_axis.tolist()
            rows = {v: i for i, v in enumerate(rr_axis)}
            cols = {v: j for j, v in enumerate(p0_axis)}

            @functools.cache
            def exact_c(i, j, prevalence=grid.prevalence):
                return derive_exact(prevalence, p0_axis[j], rr_axis[i])["c_index"]

            for level in default_spec.contour_levels:
                target = Fraction(level)
                for x, y in _vertices(extract_contours(grid, level)):
                    edges = []
                    if y in rows:
                        edges += [((rows[y], j), (rows[y], j + 1)) for j in _spans(p0_axis, x)]
                    if x in cols:
                        edges += [((i, cols[x]), (i + 1, cols[x])) for i in _spans(rr_axis, y)]
                    ends = [sorted((exact_c(*a), exact_c(*b))) for a, b in edges]
                    bracketed = any(lo <= target <= hi for lo, hi in ends)
                    assert bracketed, (grid.prevalence, level, x, y)


def _spans(axis, v):
    """The k with axis[k] <= v <= axis[k + 1], for an ascending list ``axis``."""
    lo = max(bisect.bisect_left(axis, v) - 1, 0)
    return range(lo, min(bisect.bisect_right(axis, v), len(axis) - 1))


def _synthetic_grid(values, mask=None):
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    return MeasureGrid(
        prevalence=0.2,
        p0_axis=np.linspace(0.1, 0.2, cols),
        rr_axis=np.linspace(1.0, 2.0, rows),
        c_values=values,
        par_axis=np.zeros(rows),
        mask=np.zeros((rows, cols), dtype=bool) if mask is None else mask,
    )


class TestSaddleCells:
    def test_saddle_with_high_centre_splits_towards_diagonal(self):
        grid = _synthetic_grid([[1.0, 0.0], [0.0, 1.0]])
        contour = extract_contours(grid, 0.4)  # centre mean 0.5 > level
        assert sum(len(p) - 1 for p in contour.polylines) == 2

    def test_saddle_with_low_centre_splits_other_way(self):
        grid = _synthetic_grid([[1.0, 0.0], [0.0, 1.0]])
        contour = extract_contours(grid, 0.6)  # centre mean 0.5 < level
        assert sum(len(p) - 1 for p in contour.polylines) == 2

    def test_opposite_saddle_orientation(self):
        grid = _synthetic_grid([[0.0, 1.0], [1.0, 0.0]])
        for level in (0.4, 0.6):
            contour = extract_contours(grid, level)
            assert sum(len(p) - 1 for p in contour.polylines) == 2
            for x, y in _vertices(contour):
                assert abs(bilinear_c(grid, x, y) - level) <= 1e-12


# The per-cell marching squares that extract_contours replaced, kept as the
# reference its output must equal bit for bit on finite grids.
_REF_B, _REF_R, _REF_T, _REF_L = 0, 1, 2, 3

_REFERENCE_SEGMENT_TABLE = {
    0: [],
    1: [(_REF_L, _REF_B)],
    2: [(_REF_B, _REF_R)],
    3: [(_REF_L, _REF_R)],
    4: [(_REF_R, _REF_T)],
    6: [(_REF_B, _REF_T)],
    7: [(_REF_L, _REF_T)],
    8: [(_REF_L, _REF_T)],
    9: [(_REF_B, _REF_T)],
    11: [(_REF_R, _REF_T)],
    12: [(_REF_L, _REF_R)],
    13: [(_REF_B, _REF_R)],
    14: [(_REF_L, _REF_B)],
    15: [],
}


def _reference_edge_point(level, i, j, edge, p0_axis, rr_axis, values):
    if edge == _REF_B:
        (ia, ja), (ib, jb) = (i, j), (i, j + 1)
    elif edge == _REF_T:
        (ia, ja), (ib, jb) = (i + 1, j), (i + 1, j + 1)
    elif edge == _REF_L:
        (ia, ja), (ib, jb) = (i, j), (i + 1, j)
    else:
        (ia, ja), (ib, jb) = (i, j + 1), (i + 1, j + 1)
    va = float(values[ia, ja])
    vb = float(values[ib, jb])
    t = (level - va) / (vb - va)
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    x = float(p0_axis[ja]) + t * (float(p0_axis[jb]) - float(p0_axis[ja]))
    y = float(rr_axis[ia]) + t * (float(rr_axis[ib]) - float(rr_axis[ia]))
    return (x, y)


def _reference_stitch(segments):
    adjacency = {}
    for k, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append((k, b))
        adjacency.setdefault(b, []).append((k, a))
    used = [False] * len(segments)

    def walk(start):
        path = [start]
        current = start
        while True:
            step = None
            for k, other in adjacency[current]:
                if not used[k]:
                    used[k] = True
                    step = other
                    break
            if step is None:
                return path
            path.append(step)
            current = step

    polylines = []
    odd = sorted(pt for pt, nb in adjacency.items() if len(nb) % 2 == 1)
    for start in odd:
        while any(not used[k] for k, _ in adjacency[start]):
            polylines.append(walk(start))
    for start in sorted(adjacency):
        while any(not used[k] for k, _ in adjacency[start]):
            polylines.append(walk(start))
    return polylines


def _reference_extract_contours(grid, level):
    level = float(level)
    values = grid.c_values
    valid = ~grid.mask
    above = np.zeros(values.shape, dtype=bool)
    above[valid] = values[valid] > level

    cell_ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    index = (
        above[:-1, :-1].astype(np.uint8)
        | (above[:-1, 1:].astype(np.uint8) << 1)
        | (above[1:, 1:].astype(np.uint8) << 2)
        | (above[1:, :-1].astype(np.uint8) << 3)
    )
    crossing = cell_ok & (index != 0) & (index != 15)

    segments = []
    for i, j in np.argwhere(crossing):
        i, j = int(i), int(j)
        case = int(index[i, j])
        if case in (5, 10):
            centre = 0.25 * (
                float(values[i, j])
                + float(values[i, j + 1])
                + float(values[i + 1, j + 1])
                + float(values[i + 1, j])
            )
            if case == 5:
                pairs = (
                    [(_REF_B, _REF_R), (_REF_T, _REF_L)]
                    if centre > level
                    else [(_REF_L, _REF_B), (_REF_R, _REF_T)]
                )
            else:
                pairs = (
                    [(_REF_L, _REF_B), (_REF_R, _REF_T)]
                    if centre > level
                    else [(_REF_B, _REF_R), (_REF_T, _REF_L)]
                )
        else:
            pairs = _REFERENCE_SEGMENT_TABLE[case]
        for edge_a, edge_b in pairs:
            point_a = _reference_edge_point(level, i, j, edge_a, grid.p0_axis, grid.rr_axis, values)
            point_b = _reference_edge_point(level, i, j, edge_b, grid.p0_axis, grid.rr_axis, values)
            if point_a != point_b:
                segments.append((point_a, point_b))

    polylines = tuple(tuple(path) for path in _reference_stitch(segments))
    return ContourSet(level=level, polylines=polylines)


def _packed(contour_set):
    """The level and every polyline's coordinates as raw IEEE-754 bytes."""
    return struct.pack("<d", contour_set.level), [
        struct.pack(f"<{2 * len(p)}d", *(v for point in p for v in point))
        for p in contour_set.polylines
    ]


def _level_contour(level, vertices):
    """One level's polylines as a ContourSet.

    ``vertices`` is ``(x, y, bounds)``: polyline ``k`` pairs
    ``x[bounds[k]:bounds[k + 1]]`` with the same stretch of ``y``.
    """
    x, y, bounds = vertices
    points = list(zip(x.tolist(), y.tolist()))
    return ContourSet(
        level=level, polylines=tuple(tuple(points[a:b]) for a, b in zip(bounds, bounds[1:]))
    )


def _assert_same_contours(grid, level):
    contour = extract_contours(grid, level)
    assert _packed(contour) == _packed(_reference_extract_contours(grid, level))
    return contour


def _node_degrees(contour_set):
    """How often each vertex occurs as a segment end across all polylines."""
    degree = {}
    for polyline in contour_set.polylines:
        for k, point in enumerate(polyline):
            ends = (k > 0) + (k < len(polyline) - 1)
            degree[point] = degree.get(point, 0) + ends
    return degree


@st.composite
def _small_grids(draw, elements=st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)), max_side=5):
    """Values drawn cell by cell from ``elements``, by default a short list
    that holds the level 0.5, and a mask."""
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=max_side))
    values = draw(arrays(np.float64, shape, elements=elements, fill=st.nothing()))
    return values, draw(arrays(np.bool_, shape))


@st.composite
def _level_lists(draw, values):
    """Unsorted levels with repeats: grid values, 0.0 and -0.0, and floats
    inside and outside the field's range; possibly none."""
    finite = values[np.isfinite(values)]
    lo, hi = float(finite.min()), float(finite.max())
    level = st.one_of(
        st.sampled_from(finite.tolist()),
        st.sampled_from([0.0, -0.0]),
        st.floats(lo - 0.1, hi + 0.1),
    )
    levels = draw(st.lists(level, max_size=6))
    if levels:
        levels += draw(st.lists(st.sampled_from(levels), max_size=3))
    return draw(st.permutations(levels))


class TestContourByteIdentity:
    def test_default_spec_levels(self, default_spec, default_grids):
        for grid in default_grids:
            for level in default_spec.contour_levels:
                _assert_same_contours(grid, level)

    def test_masked_cells(self, wide_spec, wide_grid):
        assert wide_grid.mask.any()
        for level in wide_spec.contour_levels:
            assert _assert_same_contours(wide_grid, level).polylines

    def test_levels_equal_to_grid_values(self, default_grids, wide_grid):
        rng = np.random.Generator(np.random.PCG64(4))
        for grid in (*default_grids, wide_grid):
            finite = grid.c_values[~grid.mask]
            for level in rng.choice(finite, size=10):
                _assert_same_contours(grid, level)

    def test_merged_nodes_of_degree_above_two(self):
        # At level 0.5 the centre node equals the level and its upper and
        # lower neighbours lie above it: all four cells cross on the centre
        # (t = 1 below it, t = 0 above) and their segments meet there.
        grid = _synthetic_grid([[0.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 1.0, 0.0]])
        for level in (0.0, 0.25, 0.75):
            _assert_same_contours(grid, level)
        contour = _assert_same_contours(grid, 0.5)
        assert max(_node_degrees(contour).values()) == 4

    @pytest.mark.parametrize(
        "middle, degrees, vertices",
        [
            pytest.param([0.0, 1.0, 0.5, 1.0, 0.0], [2] * 6 + [4], 9, id="two-islands"),
            pytest.param(
                [0.0, 1.0, 0.5, 1.0, 0.5, 1.0, 0.0], [2] * 8 + [4, 4], 13, id="three-islands"
            ),
        ],
    )
    def test_figure_eight_starts_inside_a_strand(self, middle, degrees, vertices):
        # Islands above 0.5 in a row touch at nodes equal to the level: their
        # loops meet there in nodes of degree 4. The smallest node, the
        # left loop's leftmost, has degree 2, so the walk starts inside the
        # strand that leaves a degree-4 node and comes back to it. With three
        # islands, strands also join the two degree-4 nodes.
        zeros = [0.0] * len(middle)
        contour = _assert_same_contours(_synthetic_grid([zeros, middle, zeros]), 0.5)
        degree = _node_degrees(contour)
        assert sorted(degree.values()) == degrees
        assert degree[min(degree)] == 2
        assert [len(polyline) for polyline in contour.polylines] == [vertices]

    def test_closed_loop_direction_follows_the_smallest_nodes_first_endpoint(self):
        # A diamond of four degree-2 nodes around one island. The leftmost
        # node's first endpoint, in segment order, is on the lower-left
        # cell's segment, so the loop runs from there down, not up.
        grid = _synthetic_grid([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        contour = _assert_same_contours(grid, 0.5)
        (loop,) = contour.polylines
        assert len(loop) == 5 and loop[0] == loop[-1] == min(loop)
        assert loop[1][1] < loop[0][1] < loop[3][1]

    # values from {0, 0.5, 1}: at levels 0.5, 0.0 and 1.0 many crossings
    # land on lattice nodes and merge there
    @given(_small_grids(st.sampled_from((0.0, 0.5, 1.0)), max_side=12))
    def test_tied_grids_property(self, drawn):
        values, mask = drawn
        levels = (0.5, 0.0, 1.0)
        for grid in (_synthetic_grid(values), _synthetic_grid(values, mask)):
            for level, vertices in zip(levels, _per_level(grid, levels)):
                expected = _reference_extract_contours(grid, level)
                assert _packed(_level_contour(level, vertices)) == _packed(expected)
                assert _packed(extract_contours(grid, level)) == _packed(expected)

    # Continuous fields that rise and fall from cell to cell: their level
    # sets hold loops with several inner nodes below both of their
    # neighbours, and strands whose smallest inner node sits next to a
    # smaller end.
    @settings(max_examples=100, deadline=None)
    @given(_small_grids(st.floats(0.0, 1.0), max_side=20), st.data())
    def test_continuous_grids_property(self, drawn, data):
        values, mask = drawn
        for grid in (_synthetic_grid(values), _synthetic_grid(values, mask)):
            levels = data.draw(_level_lists(values))
            for level, vertices in zip(levels, _per_level(grid, levels)):
                expected = _reference_extract_contours(grid, level)
                assert _packed(_level_contour(level, vertices)) == _packed(expected)
                assert _packed(extract_contours(grid, level)) == _packed(expected)

    @pytest.mark.parametrize("corners", [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    @pytest.mark.parametrize("level", [0.4, 0.5, 0.6])
    def test_saddle_orientations(self, corners, level):
        # at level 0.5 the centre mean equals the level and is not above it
        assert len(_assert_same_contours(_synthetic_grid(corners), level).polylines) == 2

    @given(_small_grids())
    def test_small_grids_property(self, drawn):
        values, mask = drawn
        _assert_same_contours(_synthetic_grid(values), 0.5)
        # finite values under the mask: only the mask keeps those cells out
        _assert_same_contours(_synthetic_grid(values, mask), 0.5)

    @pytest.mark.parametrize("case", ["default", "wide", "non_finite"])
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_all_levels_pass_equals_reference(self, case, default_grids, wide_grid, data):
        grid = {"default": default_grids[1], "wide": wide_grid}.get(case)
        if grid is None:
            # non-finite cells exist only under the mask
            values = default_grids[2].c_values.copy()
            values[40, 60], values[100, 10], values[150, 150] = math.nan, math.inf, -math.inf
            with pytest.raises(InvalidParamsError, match="c_values must be finite"):
                dataclasses.replace(default_grids[2], c_values=values)
            mask = default_grids[2].mask | ~np.isfinite(values)
            grid = dataclasses.replace(default_grids[2], c_values=values, mask=mask)
        levels = data.draw(_level_lists(grid.c_values))
        polylines = _per_level(grid, levels)
        assert len(polylines) == len(levels)
        for level, vertices in zip(levels, polylines):
            contour = _level_contour(level, vertices)
            assert _packed(contour) == _packed(_reference_extract_contours(grid, level))

    # unsorted, repeated and signed-zero levels share one vertex array
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        _small_grids(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0), max_side=10),
        st.data(),
    )
    def test_levels_laid_out_in_the_given_order(self, drawn, data):
        values, mask = drawn
        grid = _synthetic_grid(values, mask)
        levels = data.draw(_level_lists(values))
        x, y, bounds = _contour_polylines(grid, levels)
        assert len(bounds) == len(levels)
        end = 0
        for level, offsets in zip(levels, bounds):
            # each level's stretch opens where the previous level's closed
            assert offsets[0] == end
            end = offsets[-1]
            contour = _level_contour(level, (x, y, offsets))
            assert _packed(contour) == _packed(extract_contours(grid, level))
        assert end == x.size == y.size

    @pytest.mark.parametrize("levels", [[0.0, -0.0], [-0.0, 0.0]])
    def test_signed_zero_levels_keep_their_own_sign(self, levels):
        # vertices at a -0.0 axis origin carry the sign of the level's zero
        grid = MeasureGrid(
            prevalence=0.2,
            p0_axis=[-0.0, 1.0],
            rr_axis=[-0.0, 1.0],
            c_values=[[0.0, 1.0], [-1.0, 1.0]],
            par_axis=[0.0, 0.0],
            mask=np.zeros((2, 2), dtype=bool),
        )
        for level, vertices in zip(levels, _per_level(grid, levels)):
            contour = _level_contour(level, vertices)
            assert _packed(contour) == _packed(_reference_extract_contours(grid, level))


class TestNonFiniteCorners:
    """A non-finite cell is rejected unless masked; masked, it is skipped."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cell_with_non_finite_corner_is_skipped(self, bad):
        values = np.add.outer(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4))
        values[1, 2] = bad
        with pytest.raises(InvalidParamsError, match="c_values must be finite outside the mask"):
            _synthetic_grid(values)
        contour = extract_contours(_synthetic_grid(values, ~np.isfinite(values)), 1.0)
        assert contour.polylines
        assert all(math.isfinite(v) for point in _vertices(contour) for v in point)

    def test_svg_has_no_nan(self):
        values = np.add.outer(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4))
        values[1, 2] = math.nan
        with pytest.raises(InvalidParamsError, match="c_values must be finite outside the mask"):
            _synthetic_grid(values)
        spec = GridSpec(
            prevalences=(0.2,),
            p0_min=0.1,
            p0_max=0.2,
            rr_min=1.0,
            rr_max=2.0,
            resolution=4,
            contour_levels=(0.5, 1.0, 1.5),
        )
        svg = render_svg([_synthetic_grid(values, np.isnan(values))], spec)
        assert 'class="contour"' in svg
        assert "nan" not in svg


def _reference_contour_lines(grid, spec):
    """The contour lines of a one-panel figure, written level by level.

    Each level the field crosses is a group: one ``<path>`` per polyline of
    ``extract_contours``, its points mapped onto the panel and written
    with ``"%.2f"``, then a label 2 px right of and above the middle point
    of the first longest polyline.
    """

    def to_px(p0, rr):
        x = 66.0 + (p0 - spec.p0_min) / (spec.p0_max - spec.p0_min) * 300.0
        y = 46.0 + 240.0 - (rr - spec.rr_min) / (spec.rr_max - spec.rr_min) * 240.0
        return x, y

    lines = []
    for level in spec.contour_levels:
        contour = extract_contours(grid, level)
        polylines = [[to_px(*point) for point in p] for p in contour.polylines]
        if not polylines:
            continue
        label = "%.4g" % level
        lines.append(f'<g class="level" data-level="{label}">')
        for polyline in polylines:
            points = " L ".join("%.2f %.2f" % point for point in polyline)
            lines.append(f'<path class="contour" d="M {points}"/>')
        longest = max(polylines, key=len)
        x, y = longest[len(longest) // 2]
        lines.append(
            f'<text class="contour-label" x="{"%.2f" % (x + 2)}" '
            f'y="{"%.2f" % (y - 2)}">{label}</text>'
        )
        lines.append("</g>")
    return lines


class TestRenderSvg:
    # Windows that hold the lattice, part of it (coordinates from 1e4 up) or
    # none of it (negative coordinates): the last two reach Python's "%.2f".
    @settings(max_examples=60, deadline=None)
    @given(
        _small_grids(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 1.0), max_side=8),
        st.sampled_from([(0.1, 0.2, 1.0, 2.0), (0.15, 0.1500001, 1.5, 1.6), (0.3, 0.4, 0.2, 0.5)]),
        st.data(),
    )
    def test_contour_lines_equal_reference_writer(self, drawn, window, data):
        values, mask = drawn
        p0_min, p0_max, rr_min, rr_max = window
        levels = tuple(data.draw(_level_lists(values)))
        spec = GridSpec(
            prevalences=(0.2,), p0_min=p0_min, p0_max=p0_max, rr_min=rr_min, rr_max=rr_max,
            contour_levels=levels,
        )
        for grid in (_synthetic_grid(values), _synthetic_grid(values, mask)):
            lines = render_svg([grid], spec).splitlines()
            start = lines.index('<g class="contours">') + 1
            assert lines[start:-3] == _reference_contour_lines(grid, spec)
            assert lines[-3:] == ["</g>", "</g>", "</svg>"]

    def test_three_panels_with_dual_axes(self, default_spec, default_grids):
        root = ET.fromstring(render_svg(default_grids, default_spec))
        panels = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "panel"]
        par_axes = [
            e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "axis axis-par"
        ]
        rr_axes = [
            e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "axis axis-rr"
        ]
        assert len(panels) == 3
        assert len(par_axes) == 3
        assert len(rr_axes) == 3

    def test_contour_paths_present_for_defaults(self, default_spec, default_grids):
        root = ET.fromstring(render_svg(default_grids, default_spec))
        paths = [e for e in root.iter(f"{SVG_NS}path") if e.get("class") == "contour"]
        assert paths

    def test_no_paths_when_level_never_crossed(self):
        spec = GridSpec(prevalences=(0.2,), resolution=21, contour_levels=(0.99,))
        grids = [evaluate_grid(spec, 0.2)]
        svg = render_svg(grids, spec)
        root = ET.fromstring(svg)
        paths = [e for e in root.iter(f"{SVG_NS}path") if e.get("class") == "contour"]
        assert paths == []
        panels = [e for e in root.iter(f"{SVG_NS}g") if e.get("class") == "panel"]
        assert len(panels) == 1

    def test_byte_identical_across_runs(self, default_spec, default_grids):
        assert render_svg(default_grids, default_spec) == render_svg(
            default_grids, default_spec
        )

    def test_self_contained(self, default_spec, default_grids):
        svg = render_svg(default_grids, default_spec)
        assert "http://www.w3.org/2000/svg" in svg
        assert "<script" not in svg
        assert "@import" not in svg
        assert "url(" not in svg

    def test_empty_grid_list_rejected(self, default_spec):
        with pytest.raises(InvalidParamsError, match=r"prevalence panel \(3\), got 0$"):
            render_svg([], default_spec)

    def test_panel_count_mismatch_rejected(self, default_spec, default_grids):
        with pytest.raises(InvalidParamsError):
            render_svg(default_grids[:2], default_spec)

    def test_panel_order_mismatch_rejected(self, default_spec, default_grids):
        with pytest.raises(InvalidParamsError, match="expected prevalence 0.5, got 0.1"):
            render_svg(default_grids[::-1], default_spec)


class TestExports:
    def test_csv_shape_and_header(self, default_grids):
        text = grids_to_csv(default_grids)
        lines = text.splitlines()
        assert lines[0] == "f,p0,rr,par,c_index,masked"
        assert len(lines) == 1 + 3 * 201 * 201

    def test_csv_field_values(self, default_grids):
        line = grids_to_csv([default_grids[1]]).splitlines()[1]
        f, p0, rr, par_text, c, masked = line.split(",")
        assert f == "0.2"
        assert p0 == "0.001"
        assert rr == "1"
        assert par_text == "0"
        assert c == "0.5"
        assert masked == "false"

    def test_csv_12_significant_digits(self, default_grids):
        grid = default_grids[1]
        i = int(np.argmin(np.abs(grid.rr_axis - 1.5)))
        j = int(np.argmin(np.abs(grid.p0_axis - 0.10)))
        text = grids_to_csv([grid])
        row = text.splitlines()[1 + i * grid.p0_axis.size + j]
        assert row.split(",")[4] == "0.540858018386"

    def test_csv_masked_rows(self, wide_grid):
        lines = grids_to_csv([wide_grid]).splitlines()[1:]
        masked_lines = [line for line in lines if line.endswith(",true")]
        assert len(masked_lines) == int(wide_grid.mask.sum())
        for line in masked_lines[:5]:
            assert line.split(",")[4] == ""

    def test_json_round_trips(self, default_spec, default_grids):
        document = json.loads(grids_to_json(default_grids, default_spec))
        assert document["spec"]["resolution"] == 201
        assert document["spec"]["prevalences"] == [0.5, 0.2, 0.1]
        assert len(document["grids"]) == 3
        grid_doc = document["grids"][1]
        assert grid_doc["prevalence"] == 0.2
        assert len(grid_doc["c_values"]) == 201
        assert len(grid_doc["c_values"][0]) == 201
        assert grid_doc["c_values"][0][0] == 0.5

    def test_json_masks_are_null(self, wide_spec, wide_grid):
        document = json.loads(grids_to_json([wide_grid], wide_spec))
        grid_doc = document["grids"][0]
        i, j = np.argwhere(wide_grid.mask)[0]
        assert grid_doc["mask"][int(i)][int(j)] is True
        assert grid_doc["c_values"][int(i)][int(j)] is None


def _round12(x):
    return float(format(float(x), ".12g"))


def _reference_grids_to_json(grids, spec):
    """The JSON export as a document handed to ``json.dumps``."""
    document = {
        "spec": {
            "prevalences": [_round12(v) for v in spec.prevalences],
            "p0_min": _round12(spec.p0_min),
            "p0_max": _round12(spec.p0_max),
            "rr_min": _round12(spec.rr_min),
            "rr_max": _round12(spec.rr_max),
            "resolution": spec.resolution,
            "contour_levels": [_round12(v) for v in spec.contour_levels],
        },
        "grids": [
            {
                "prevalence": _round12(grid.prevalence),
                "p0_axis": [_round12(v) for v in grid.p0_axis],
                "rr_axis": [_round12(v) for v in grid.rr_axis],
                "par_axis": [_round12(v) for v in grid.par_axis],
                "c_values": [
                    [
                        None if grid.mask[i, j] else _round12(grid.c_values[i, j])
                        for j in range(grid.p0_axis.size)
                    ]
                    for i in range(grid.rr_axis.size)
                ],
                "mask": [[bool(x) for x in row] for row in grid.mask],
            }
            for grid in grids
        ],
    }
    return json.dumps(document, indent=2) + "\n"


def _reference_grids_to_csv(grids):
    """The CSV export as rows handed to ``csv.writer``, one cell at a time."""

    def sig12(x):
        return format(float(x), ".12g")

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["f", "p0", "rr", "par", "c_index", "masked"])
    for grid in grids:
        for i in range(grid.rr_axis.size):
            for j in range(grid.p0_axis.size):
                masked = bool(grid.mask[i, j])
                writer.writerow(
                    [
                        sig12(grid.prevalence),
                        sig12(grid.p0_axis[j]),
                        sig12(grid.rr_axis[i]),
                        sig12(grid.par_axis[i]),
                        "" if masked else sig12(grid.c_values[i, j]),
                        "true" if masked else "false",
                    ]
                )
    return buffer.getvalue()


def _fix_up_grid():
    """Every fix-up and masking branch of the exporters.

    Row 0 holds values whose ``.12g`` text is integral or has an exponent,
    row 1 a -0.0; row 2 is fully masked, row 3 has a masked prefix, and
    row 4 a masked interior cell and texts that all have a point but one
    an exponent. The rr axis is integral throughout.
    """
    nan = math.nan
    values = [
        [1.0, 1e-05, 123456789012345.0, 0.5],
        [-0.0, 0.5, 0.25, 0.125],
        [nan, nan, nan, nan],
        [nan, nan, 0.6, 1.0],
        [0.7, nan, 1.5e-07, 0.8],
    ]
    mask = np.isnan(values)
    return MeasureGrid(
        prevalence=0.3,
        p0_axis=[0.1, 0.2, 0.3, 0.4],
        rr_axis=[1.0, 2.0, 3.0, 4.0, 5.0],
        c_values=values,
        par_axis=[0.0, 0.5, 1e-07, 0.25, -0.0],
        mask=mask,
    )


def _near_ties(rng, size):
    """13-digit decimals in [0.1, 1) that end in 5: their products with 1e12
    round to half-integers, which ``_format12`` leaves to ``%``, or lie
    within a few floats of one."""
    return (10 * rng.integers(10**11, 10**12, size) + 5) / 1e13


def _block_grids():
    """Two lattices over several exporter blocks.

    The first has rows wider than a block, each a block of its own; the
    second has blocks of several rows. Each holds near-tie values, values
    off the kernel's fast path (c < 0.1, c = 1, one that rounds to 1), and
    masked cells that are no row prefix: a run across cell ``_BLOCK`` of
    the first lattice or the second's first block boundary, interior
    cells, and masked cells holding finite values.
    """
    rng = np.random.default_rng(19)
    grids = []
    # boundary: cell _BLOCK of a row, or the first cell of the second block
    for rows, cols, boundary in ((3, _BLOCK + 904, _BLOCK), (9, 1000, (_BLOCK // 1000) * 1000)):
        values = rng.uniform(0.5, 1.0, rows * cols)
        values[::3] = _near_ties(rng, values[::3].size)
        values[5::101] = 0.0625
        values[7::103] = 1.0
        values[9::107] = 0.9999999999996
        values[11::109] = 1e-5
        mask = np.zeros(rows * cols, dtype=bool)
        mask[boundary - 6 : boundary + 6] = True
        mask[2 * cols + 13 :: 17] = True
        values[mask & (np.arange(mask.size) % 2 == 0)] = np.nan
        grids.append(
            MeasureGrid(
                prevalence=0.3,
                p0_axis=np.linspace(0.01, 0.2, cols),
                rr_axis=np.linspace(1.0, 2.0, rows),
                c_values=values.reshape(rows, cols),
                par_axis=np.linspace(0.0, 0.2, rows),
                mask=mask.reshape(rows, cols),
            )
        )
    return grids


@pytest.fixture(
    params=[
        "default", "wide", "resolution_2", "empty", "generator", "exponent_levels", "fix_ups",
        "blocks", "no_cells",
    ]
)
def export_case(request, default_spec, default_grids, wide_spec, wide_grid):
    """(spec, grids, what the exporter under test is given)."""
    case = request.param
    if case == "wide":
        return wide_spec, [wide_grid], [wide_grid]
    if case == "fix_ups":
        grids = [_fix_up_grid()]
        return GridSpec(prevalences=(0.3,)), grids, grids
    if case == "blocks":
        grids = _block_grids()
        return GridSpec(prevalences=(0.3,)), grids, grids
    if case == "no_cells":
        # lattices with rows of no cells, and with no rows
        grids = [
            MeasureGrid(0.3, [], [1.0, 2.0], np.empty((2, 0)), [0.0, 0.2], np.empty((2, 0))),
            MeasureGrid(0.3, [0.1], [], np.empty((0, 1)), [], np.empty((0, 1))),
        ]
        return GridSpec(prevalences=(0.3,)), grids, grids
    if case == "empty":
        return default_spec, [], []
    if case == "generator":
        return default_spec, default_grids, (grid for grid in default_grids)
    if case in ("resolution_2", "exponent_levels"):
        # levels where .12g and repr lay out the same number differently
        spec = (
            GridSpec(resolution=2)
            if case == "resolution_2"
            else GridSpec(resolution=11, contour_levels=(1e-7, -2.0, 123456789012345.0))
        )
        grids = [evaluate_grid(spec, f) for f in spec.prevalences]
        return spec, grids, grids
    return default_spec, default_grids, default_grids


_NON_FINITE = (math.nan, math.inf, -math.inf)


class TestExportByteIdentity:
    def test_json_equals_json_dumps(self, export_case):
        spec, grids, exported = export_case
        assert grids_to_json(exported, spec) == _reference_grids_to_json(grids, spec)

    def test_csv_equals_csv_writer(self, export_case):
        _, grids, exported = export_case
        assert grids_to_csv(exported) == _reference_grids_to_csv(grids)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1e-7)
    @example(-2.0)
    @example(123456789012345.0)
    @example(1e12)
    @example(-0.0)
    @example(5e-324)
    def test_json_float_equals_json_dumps(self, x):
        assert _json_float(x) == json.dumps(float(format(x, ".12g")))

    @pytest.mark.parametrize(
        "where, bad",
        [(where, bad) for where in ("cell", "par_axis") for bad in _NON_FINITE],
        ids=[str(bad) for bad in _NON_FINITE] + [f"par_axis-{bad}" for bad in _NON_FINITE],
    )
    def test_json_rejects_unmasked_non_finite_cell(self, where, bad):
        # no grid holds a value that JSON cannot write: building one fails
        values = np.full((3, 3), 0.6)
        par_axis = np.zeros(3)
        (values[1] if where == "cell" else par_axis)[2] = bad
        name = "c_values" if where == "cell" else "par_axis"
        with pytest.raises(InvalidParamsError, match=f"^{name} must be finite"):
            dataclasses.replace(_synthetic_grid(values), par_axis=par_axis)
        # under the mask a non-finite cell is written as null
        if where == "cell":
            masked = _synthetic_grid(values, ~np.isfinite(values))
            document = json.loads(grids_to_json([masked], GridSpec(prevalences=(0.2,))))
            assert document["grids"][0]["c_values"][1] == [0.6, 0.6, None]


def _format12_mismatches(values):
    """The values whose ``_format12`` fast flag or text disagrees with ``"%.12g" %``.

    The fast path is meant to cover exactly the values in [0.1, 1) whose
    12-digit rounding stays below 1 and whose product with 1e12 rounds to
    no half-integer.
    """
    values = np.asarray(values, dtype=float)
    fast, texts = _format12(values)
    wrong = []
    for v, is_fast, text in zip(values.tolist(), fast.tolist(), texts.tolist()):
        expected = "%.12g" % v
        if is_fast != (0.1 <= v < 1.0 and expected != "1" and v * 1e12 % 1 != 0.5) or (
            is_fast and text.decode("ascii") != expected
        ):
            wrong.append((v, is_fast, text, expected))
    return wrong


def _format12_sample():
    """A seeded sample of about 220 000 values around every edge of the fast path."""
    rng = np.random.default_rng(12)
    ties = (2 * np.arange(4096) + 1) / 8192  # v * 1e12 is exactly a half-integer
    edges = [0.1, 0.9999999999995, 1.0, 0.0, -0.0, 5e-324, 1e-310, np.nan, np.inf, -np.inf]
    # 12 digits with a zero middle group before a non-zero last one, a zero
    # last group, both zero, and a 1 only in the last digit
    groups = [0.12340000567, 0.123456780000, 0.1234, 0.5, 0.1, 0.100000000001]
    values = np.concatenate((
        rng.uniform(0.0, 1.1, 30_000),
        _near_ties(rng, 30_000),
        10.0 ** rng.uniform(-320, 308, 5_000) * rng.choice((-1.0, 1.0), 5_000),
        ties,
        -ties,
        edges,
        groups,
    ))
    # and every value's two float neighbours
    return np.concatenate((values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)))


class TestFormat12:
    def test_sample_matches_percent_format(self):
        values = _format12_sample()
        assert values.size >= 200_000
        assert _format12_mismatches(values)[:5] == []

    @given(st.lists(st.floats() | st.floats(0.1, 1.0, exclude_max=True), max_size=40))
    @example([0.1729344876985, 0.8733808289625, 0.6105256040495])
    @example([0.0999999999999999, 0.9999999999995, 0.9999999999994999, 1.0, -0.0, math.nan])
    def test_any_floats_match_percent_format(self, values):
        assert _format12_mismatches(values) == []


def _format2_mismatches(values):
    """The values whose ``_format2`` text, NUL bytes dropped, differs from ``"%.2f" %``."""
    values = np.asarray(values, dtype=float)
    texts = _format2(values).tolist()
    return [
        (v, text) for v, text in zip(values.tolist(), texts)
        if text.replace(b"\0", b"").decode("ascii") != "%.2f" % v
    ]


def _format2_sample():
    """A seeded sample of about 320 000 values around every edge of the kernel."""
    rng = np.random.default_rng(21)
    # exact ties: v * 100 is a half-integer
    ties = np.concatenate((np.arange(8 * 1400) / 8, np.arange(10_000) + 0.125))
    # decimals that end in 5 at the third place: fl(v * 100) is often a half-integer
    decimal = np.arange(1, 2 * 140_000, 14) / 200
    edges = [0.0, -0.0, 9999.995, 1e4, 5e-324, 1e-310, -5e-324, -0.005, -1.0, -1234.5678,
             12345.678, 1e300, np.nan, np.inf, -np.inf]
    near = np.concatenate((ties, decimal, edges))
    neighbours = (np.nextafter(near, -np.inf), np.nextafter(near, np.inf))
    return np.concatenate((rng.uniform(0.0, 1400.0, 200_000), near, *neighbours))


class TestFormat2:
    def test_sample_matches_percent_format(self):
        values = _format2_sample()
        assert values.size >= 200_000
        assert _format2_mismatches(values)[:5] == []

    @settings(derandomize=True)
    @given(st.lists(st.floats() | st.floats(0.0, 1e4), max_size=40))
    @example([0.005, 1.005, 0.125, 9999.995, 9999.994999999999, -0.0, math.nan])
    def test_any_floats_match_percent_format(self, values):
        assert _format2_mismatches(values) == []
