import csv
import dataclasses
import io
import json
import math
import struct
import xml.etree.ElementTree as ET

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
    RenderError,
    derive_measures,
    evaluate_grid,
    extract_contours,
    grids_to_csv,
    grids_to_json,
    par,
    render_svg,
)
from binaryrisk.sweep import _contour_polylines, _json_float

from _oracles import bilinear_c

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


def _vertices(contour_set):
    return [point for polyline in contour_set.polylines for point in polyline]


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
        result = _contour_polylines(grid, levels)
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
    """One level of ``_contour_polylines`` as a ContourSet.

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
def _small_grids(draw, elements=(0.0, 0.25, 0.5, 0.75, 1.0), max_side=5):
    """Values from a short list that holds the level 0.5, and a mask."""
    shape = draw(array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=max_side))
    values = draw(arrays(np.float64, shape, elements=st.sampled_from(elements)))
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
    @given(_small_grids((0.0, 0.5, 1.0), max_side=12))
    def test_tied_grids_property(self, drawn):
        values, mask = drawn
        levels = (0.5, 0.0, 1.0)
        for grid in (_synthetic_grid(values), _synthetic_grid(values, mask)):
            for level, vertices in zip(levels, _contour_polylines(grid, levels)):
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
            values = default_grids[2].c_values.copy()
            values[40, 60], values[100, 10], values[150, 150] = math.nan, math.inf, -math.inf
            grid = dataclasses.replace(default_grids[2], c_values=values)
        # the reference keeps out only masked cells
        reference_grid = dataclasses.replace(grid, mask=grid.mask | ~np.isfinite(grid.c_values))
        levels = data.draw(_level_lists(grid.c_values))
        polylines = _contour_polylines(grid, levels)
        assert len(polylines) == len(levels)
        for level, vertices in zip(levels, polylines):
            contour = _level_contour(level, vertices)
            assert _packed(contour) == _packed(_reference_extract_contours(reference_grid, level))

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
        for level, vertices in zip(levels, _contour_polylines(grid, levels)):
            contour = _level_contour(level, vertices)
            assert _packed(contour) == _packed(_reference_extract_contours(grid, level))


class TestNonFiniteCorners:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cell_with_non_finite_corner_is_skipped(self, bad):
        values = np.add.outer(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4))
        values[1, 2] = bad
        contour = extract_contours(_synthetic_grid(values), 1.0)
        assert contour.polylines
        assert all(math.isfinite(v) for point in _vertices(contour) for v in point)
        assert contour == extract_contours(_synthetic_grid(values, ~np.isfinite(values)), 1.0)

    def test_svg_has_no_nan(self):
        values = np.add.outer(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4))
        values[1, 2] = math.nan
        spec = GridSpec(
            prevalences=(0.2,),
            p0_min=0.1,
            p0_max=0.2,
            rr_min=1.0,
            rr_max=2.0,
            resolution=4,
            contour_levels=(0.5, 1.0, 1.5),
        )
        svg = render_svg([_synthetic_grid(values)], spec)
        assert 'class="contour"' in svg
        assert "nan" not in svg


class TestRenderSvg:
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
        with pytest.raises(RenderError):
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
    """Every fix-up and masking branch of the exporters' row path.

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


@pytest.fixture(
    params=["default", "wide", "resolution_2", "empty", "generator", "exponent_levels", "fix_ups"]
)
def export_case(request, default_spec, default_grids, wide_spec, wide_grid):
    """(spec, grids, what the exporter under test is given)."""
    case = request.param
    if case == "wide":
        return wide_spec, [wide_grid], [wide_grid]
    if case == "fix_ups":
        grids = [_fix_up_grid()]
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_unmasked_non_finite_cell(self, bad):
        values = np.full((3, 3), 0.6)
        values[1, 2] = bad
        grid = _synthetic_grid(values)
        with pytest.raises(RenderError):
            grids_to_json([grid], GridSpec(prevalences=(0.2,)))
