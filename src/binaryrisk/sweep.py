"""Grid sweeps of the c-index over (p0, rr), contour extraction, and figures.

A :class:`MeasureGrid` fixes the risk factor prevalence and evaluates the
c-index on a (p0, rr) lattice. Cells where rr * p0 would exceed 1 are
masked rather than errored so that sweeps degrade gracefully at
infeasible corners. Because the attributable risk is a bijection of rr at
fixed prevalence, each rr row also carries its PAR value; the figure uses
that as the alternative labeling of the rr axis.

Contours come from marching squares with linear interpolation along cell
edges. The field is strictly monotone in both directions wherever rr > 1,
so the only ambiguity, the two saddle cases, is settled by the sign of
the cell-centre mean. Cells touching a masked corner emit nothing, and
MeasureGrid's bounds on unmasked values and axis spreads keep every
vertex finite. All levels of a grid come from one span-space pass: one
``searchsorted`` ranks every lattice value against the sorted levels,
and the lowest and highest corner ranks of each valid cell bound the
levels it crosses, so the work grows with the crossings rather than with
levels times cells. Segments are chained into polylines a run at a time:
away from ties every node joins two segments, so list ranking over all
levels of a panel at once lays out the walk's runs. The Python walk
halts only at nodes of degree other than 2 and at the inner nodes below
both of their neighbours, and every run, one step of the walk, goes from
a halt to the next. It lays out a panel's levels in the order given, in
one vertex array that the figure writes with one numpy ``"%.2f"`` kernel,
built like the exporters' below; negative or non-finite values, those
from 1e4 up and the rare ones whose product with 100 rounds to a
half-integer go through Python's ``%``.

The JSON and CSV exporters write the cells in blocks of whole rows,
about 4 096 cells or one row each. One numpy kernel turns a block's
c-values into their ``"%.12g"`` texts, the digits as three 4-digit
groups; values outside [0.1, 1), and the rare ones whose product with
1e12 rounds to a half-integer, go through Python's ``%``. Each cell
becomes a fixed-width record of NUL-padded fields (its separator, the
text, and in CSV the axis columns), filled in place in a ``bytearray``,
and one ``translate`` drops the padding of the whole block. JSON mask
blocks with equal flags share one text.

The SVG writer is deliberately small and fully deterministic: the same
grids produce the same bytes, with no timestamps, random ids, or external
resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import InvalidParamsError
from .measures import (
    _measure_kernel, _par, _require_count, _require_finite, _require_iterable, _require_positive,
    _require_prob, _require_type, _shown,
)

__all__ = [
    "GridSpec",
    "MeasureGrid",
    "ContourSet",
    "evaluate_grid",
    "extract_contours",
    "render_svg",
    "grids_to_csv",
    "grids_to_json",
]

# The most lattice cells a sweep evaluates over all its panels. A CSV sweep
# peaks at about 132 B per cell, so about 2.2 GB at this budget.
_MAX_CELLS = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Sweep definition: prevalence panels, axis windows, lattice density.

    ``resolution`` is the number of samples per axis. The default window
    covers incidences up to 10% and relative risks up to 3, with contour
    levels every 0.01 from 0.51 to 0.60. A sweep holds at most 2**24
    cells over all its panels: ``len(prevalences) * resolution**2``.
    """

    prevalences: tuple[float, ...] = (0.5, 0.2, 0.1)
    p0_min: float = 0.001
    p0_max: float = 0.10
    rr_min: float = 1.0
    rr_max: float = 3.0
    resolution: int = 201
    contour_levels: tuple[float, ...] = (0.51, 0.52, 0.53, 0.54, 0.55, 0.56, 0.57, 0.58, 0.59, 0.60)

    def __post_init__(self) -> None:
        prevalences = tuple(
            _require_prob(v, "prevalence", open_interval=True)
            for v in _require_iterable(self.prevalences, "prevalences")
        )
        if not prevalences:
            raise InvalidParamsError("at least one prevalence panel is required")
        object.__setattr__(self, "prevalences", prevalences)
        for low, high, check in (
            ("p0_min", "p0_max", partial(_require_prob, open_interval=True)),
            ("rr_min", "rr_max", _require_positive),
        ):
            lo, hi = check(getattr(self, low), low), check(getattr(self, high), high)
            if not lo < hi:
                raise InvalidParamsError(f"{low} must lie below {high}, got [{lo:g}, {hi:g}]")
            object.__setattr__(self, low, lo)
            object.__setattr__(self, high, hi)
        resolution = _require_count(self.resolution, "resolution", minimum=2)
        cells = len(prevalences) * resolution**2
        if cells > _MAX_CELLS:
            raise InvalidParamsError(
                f"prevalences x resolution**2 must be at most {_MAX_CELLS} cells, "
                f"got {len(prevalences)} x {_shown(resolution)}**2"
            )
        object.__setattr__(self, "resolution", resolution)
        levels = tuple(
            _require_finite(v, "contour_level")
            for v in _require_iterable(self.contour_levels, "contour_levels")
        )
        object.__setattr__(self, "contour_levels", levels)


def _typed_array(value, dtype: type, name: str) -> np.ndarray:
    """``np.asarray(value, dtype)``, or :class:`InvalidParamsError` naming ``name``.

    Where an entry cannot become a float, the first such entry raises as
    :func:`_require_finite` raises for one number: out of float range, or
    not a real number. Any other failure, such as a ragged nesting, is
    typed with numpy's reason.
    """
    try:
        return np.asarray(value, dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        if dtype is float:
            for item in np.asarray(value, object).flat:
                try:
                    np.asarray(item, float)
                except (TypeError, ValueError, OverflowError):
                    _require_finite(item, name)
        raise InvalidParamsError(f"{name} must be an array of {dtype.__name__}s: {exc}") from exc


@dataclass(frozen=True, eq=False)
class MeasureGrid:
    """Evaluated c-index lattice at one prevalence.

    ``c_values`` is indexed [rr, p0]; masked cells (rr * p0 > 1) hold NaN.
    ``par_axis`` pairs each rr with its attributable risk at this
    prevalence. The axes must be one-dimensional with finite entries, the
    p0 and rr axes of finite spread, and unmasked cells at most 2**1021 in
    magnitude, so that every number a grid exports, draws or sums is
    finite. The arrays are held as read-only views: a write through the
    grid raises ValueError. An array passed in is not copied.
    """

    prevalence: float
    p0_axis: np.ndarray
    rr_axis: np.ndarray
    c_values: np.ndarray
    par_axis: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "prevalence", _require_prob(self.prevalence, "prevalence", open_interval=True))
        for name in ("p0_axis", "rr_axis", "par_axis", "c_values", "mask"):
            array = _typed_array(getattr(self, name), bool if name == "mask" else float, name).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        for name in ("p0_axis", "rr_axis", "par_axis"):
            axis = getattr(self, name)
            if axis.ndim != 1:
                raise InvalidParamsError(f"{name} must be one-dimensional, got shape {axis.shape}")
            bad = axis[~np.isfinite(axis)]
            if bad.size:
                raise InvalidParamsError(f"{name} must be finite, got {bad[0]}")
            # on Python floats an overflow gives inf, with no numpy warning
            spread = float(axis.max()) - float(axis.min()) if axis.size else 0.0
            if name != "par_axis" and not math.isfinite(spread):
                raise InvalidParamsError(
                    f"{name} must have a finite spread, got {axis.min()} to {axis.max()}"
                )
        shape = (self.rr_axis.size, self.p0_axis.size)
        for name in ("c_values", "mask"):
            if getattr(self, name).shape != shape:
                raise InvalidParamsError(
                    f"{name} shape {getattr(self, name).shape} does not match the axes {shape}"
                )
        if self.par_axis.shape != (self.rr_axis.size,):
            raise InvalidParamsError(
                f"par_axis must pair one value with each rr entry "
                f"({self.rr_axis.size}), got shape {self.par_axis.shape}"
            )
        kept = np.abs(self.c_values) <= 2.0**1021
        kept |= self.mask
        if not kept.all():
            raise InvalidParamsError(
                f"c_values must be finite outside the mask and at most 2**1021 in "
                f"magnitude, got {self.c_values[~kept][0]}"
            )


@dataclass(frozen=True)
class ContourSet:
    """Iso-level polylines of one c-index level, vertices in (p0, rr)."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]


def evaluate_grid(spec: GridSpec, prevalence: float) -> MeasureGrid:
    """Evaluate the c-index lattice for one prevalence panel of ``spec``.

    Every cell goes through the shared measure kernel in one array call,
    the same code that :func:`derive_measures` runs on one scenario, so grid
    values equal direct scenario evaluation bit for bit. The kernel takes
    the p0 axis broadcast against the (rr, p0) lattice of p1; masked cells
    are evaluated at a feasible stand-in, then overwritten with NaN.
    """
    _require_type(spec, GridSpec, "spec")
    if prevalence not in spec.prevalences:
        raise InvalidParamsError(
            f"prevalence {_shown(prevalence)} is not one of the spec's panels {spec.prevalences}"
        )
    p0_axis = np.linspace(spec.p0_min, spec.p0_max, spec.resolution)
    rr_axis = np.linspace(spec.rr_min, spec.rr_max, spec.resolution)
    rr_column = rr_axis[:, None]
    p1 = rr_column * p0_axis
    mask = p1 > 1.0
    # A masked cell is taken at p1 = 1: its cases denominator is at least that
    # of every kept cell of its column, so it fails the float floor only where
    # one of them does. A column with no kept cell (row 0 holds the smallest
    # products) is taken at p0 = 1/2. The controls denominator (1-f)*(1-p0) is
    # positive, and the upscaled branch p1 = 1 takes is an exact scaling: no
    # discarded cell can raise or change a kept bit.
    p1[mask] = 1.0
    p0_row = np.where(mask[0], 0.5, p0_axis)
    *_, par_column, c_values = _measure_kernel(prevalence, p0_row, p1, rr_column)
    c_values[mask] = np.nan
    return MeasureGrid(
        prevalence=float(prevalence),
        p0_axis=p0_axis,
        rr_axis=rr_axis,
        c_values=c_values,
        par_axis=par_column.ravel(),
        mask=mask,
    )


# Marching squares. Corner bits: 1 = bottom-left above the level,
# 2 = bottom-right, 4 = top-right, 8 = top-left ("above" means strictly
# greater). Edges are oriented left-to-right / bottom-to-top so that the
# two cells sharing an edge compute bitwise-identical crossing points.
_EDGE_B, _EDGE_R, _EDGE_T, _EDGE_L = 0, 1, 2, 3

# (row, column) offsets of each edge's two ends from the cell's
# bottom-left corner: (row_a, col_a, row_b, col_b).
_EDGE_ENDS = np.array(
    [
        (0, 0, 0, 1),  # bottom
        (0, 1, 1, 1),  # right
        (1, 0, 1, 1),  # top
        (0, 0, 1, 0),  # left
    ],
    dtype=np.intp,
)

# Segments (edge_a, edge_b) per cell, indexed by case + 16 * split, where
# split marks a saddle (case 5 or 10) whose centre mean lies above the
# level. Unused slots hold -1.
_SEGMENT_TABLE: dict[int, list[tuple[int, int]]] = {
    1: [(_EDGE_L, _EDGE_B)],
    2: [(_EDGE_B, _EDGE_R)],
    3: [(_EDGE_L, _EDGE_R)],
    4: [(_EDGE_R, _EDGE_T)],
    5: [(_EDGE_L, _EDGE_B), (_EDGE_R, _EDGE_T)],
    6: [(_EDGE_B, _EDGE_T)],
    7: [(_EDGE_L, _EDGE_T)],
    8: [(_EDGE_L, _EDGE_T)],
    9: [(_EDGE_B, _EDGE_T)],
    10: [(_EDGE_B, _EDGE_R), (_EDGE_T, _EDGE_L)],
    11: [(_EDGE_R, _EDGE_T)],
    12: [(_EDGE_L, _EDGE_R)],
    13: [(_EDGE_B, _EDGE_R)],
    14: [(_EDGE_L, _EDGE_B)],
    16 + 5: [(_EDGE_B, _EDGE_R), (_EDGE_T, _EDGE_L)],
    16 + 10: [(_EDGE_L, _EDGE_B), (_EDGE_R, _EDGE_T)],
}
_SEGMENTS = np.full((32, 2, 2), -1, dtype=np.intp)
for _key, _pairs in _SEGMENT_TABLE.items():
    _SEGMENTS[_key, : len(_pairs)] = _pairs
del _key, _pairs


def _contour_polylines(
    grid: MeasureGrid, levels
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """The polylines of every level in ``levels``, as one ``(x, y, bounds)``.

    ``x`` and ``y`` hold every vertex, the levels in the order given, and
    ``bounds`` per level the offsets at which its polylines start, closed
    by its end: a level's offsets open where the previous level's close,
    the first at 0. Polyline ``k`` of a level pairs
    ``x[offsets[k]:offsets[k + 1]]`` with the same stretch of ``y``.

    A cell crosses a level exactly when its lowest corner lies at or below
    the level and its highest corner above it. A value's rank, the number
    of sorted levels below it, is monotone in the value, so a valid cell
    crosses the ranks from its lowest corner rank up to its highest,
    exclusive (span-space search, Livnat, Shen & Johnson 1996). Work then
    grows with the crossings, not with levels times cells. Crossings are
    grouped by level, row-major within each, so every level's segments
    come in row-major cell order, and in table order within a cell;
    segments whose two endpoints coincide are dropped. Each entry of
    ``levels`` has its own slot in the sorted ladder: a repeated level is
    stitched once per copy, and 0.0 and -0.0 cross the same cells but each
    interpolates with its own sign.
    """
    values = grid.c_values
    valid = ~grid.mask
    cell_ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    corners = (values[:-1, :-1], values[:-1, 1:], values[1:, 1:], values[1:, :-1])

    levels = np.asarray(levels, dtype=float).reshape(-1)
    by_value = np.argsort(levels, kind="stable")
    ladder = levels[by_value]
    # small integers: their stable sort below is a radix sort
    rank_type = np.min_scalar_type(ladder.size)
    ranks = np.searchsorted(ladder, values).astype(rank_type)
    r00, r01, r11, r10 = ranks[:-1, :-1], ranks[:-1, 1:], ranks[1:, 1:], ranks[1:, :-1]
    first = np.minimum(np.minimum(r00, r01), np.minimum(r11, r10))
    count = (np.maximum(np.maximum(r00, r01), np.maximum(r11, r10)) - first) * cell_ok
    # the ranks first .. first + count - 1 of each crossed cell
    crossed = np.flatnonzero(count)
    count = count.ravel()[crossed].astype(np.intp)
    crossing = np.repeat(crossed, count)
    within = np.arange(crossing.size) - np.repeat(np.cumsum(count) - count, count)
    rank = (np.repeat(first.ravel()[crossed], count) + within).astype(rank_type)
    # a stable sort keeps the cells of each level in row-major order
    by_rank = np.argsort(rank, kind="stable")
    rank = rank[by_rank]
    rows, cols = np.unravel_index(crossing[by_rank], cell_ok.shape)
    level = ladder[rank]
    v00, v01, v11, v10 = (corner[rows, cols] for corner in corners)
    case = (
        (v00 > level).view(np.uint8)
        | ((v01 > level).view(np.uint8) << 1)
        | ((v11 > level).view(np.uint8) << 2)
        | ((v10 > level).view(np.uint8) << 3)
    )
    centre = 0.25 * (v00 + v01 + v11 + v10)
    split = ((case == 5) | (case == 10)) & (centre > level)
    pairs = _SEGMENTS[case + 16 * split]
    cell, slot = np.nonzero(pairs[:, :, 0] >= 0)
    ends = _EDGE_ENDS[pairs[cell, slot]]
    row = rows[cell, None]
    col = cols[cell, None]
    ia, ja = row + ends[:, :, 0], col + ends[:, :, 1]
    ib, jb = row + ends[:, :, 2], col + ends[:, :, 3]
    # an edge crossed has one end above the level, one at or below: 0 <= t <= 1
    va = values[ia, ja]
    t = (level[cell, None] - va) / (values[ib, jb] - va)
    p0_axis, rr_axis = grid.p0_axis, grid.rr_axis
    x = p0_axis[ja] + t * (p0_axis[jb] - p0_axis[ja])
    y = rr_axis[ia] + t * (rr_axis[ib] - rr_axis[ia])
    distinct = (x[:, 0] != x[:, 1]) | (y[:, 0] != y[:, 1])
    x, y = x[distinct], y[distinct]
    return _stitch(x, y, by_value.astype(rank_type)[rank[cell[distinct]]], levels.size)


def _list_rank(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element: the last element of its list, and how many steps away it is.

    ``succ[d]`` is the element after ``d``, or -1 where a list ends; it has
    no cycles. Pointer jumping (Wyllie 1979) doubles every element's reach
    per pass, so lists of length L take about log2(L) vector passes.
    """
    n = succ.size
    last = np.where(succ < 0, np.arange(n), succ)
    dist = (succ >= 0).astype(np.intp)
    for _ in range(n.bit_length()):
        hop = last[last]
        if np.array_equal(hop, last):
            break
        dist += dist[last]
        last = hop
    return last, dist


def _stitch(x, y, segment_level, levels) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Join each level's segments sharing endpoints into polylines, deterministically.

    Row ``k`` of ``x`` and ``y`` is one segment, of level ``segment_level[k]``:
    a small unsigned integer, the level's index among the ``levels`` levels
    as given. Endpoint ``e`` of segment ``e // 2`` sits at
    ``(x.flat[e], y.flat[e])``. Within a level, equal coordinates make one
    node; nodes are numbered in ascending (level, x, y) order: a stable
    sort of the points x + iy, then one of their levels. Chains start at
    odd-degree nodes first, then at any node with a segment left, each in
    ascending order, and every step takes the current node's first unused
    segment.

    A node of degree 2 lets the walk go on one way only, so the route
    through it is fixed beforehand. The walk below halts at the nodes of
    degree other than 2 and at each inner node below both of its
    neighbours; every loop of inner nodes has one, so list ranking lays
    out, in a few vector passes, runs that each go from a halt to the next,
    and the walk steps a run at a time. No chain starts at an inner node
    that is no halt: its smaller neighbour's chains, taken first, have used
    both of its segments.

    Returns ``(x, y, offsets)``: the vertices of every polyline, level by
    level in index order, and per level the offsets at which its
    polylines start, closed by its end.
    """
    xs, ys = x.ravel(), y.ravel()
    n = xs.size
    # small integers: their stable sort is a radix sort
    level_of = np.repeat(segment_level, 2)
    # numpy orders complex numbers by real part, then imaginary part, with
    # 0.0 == -0.0; stable sorts keep each node's endpoints in segment order
    point = np.empty(n, dtype=complex)
    point.real, point.imag = xs, ys
    order = np.argsort(point, kind="stable")
    order = order[np.argsort(level_of[order], kind="stable")]
    sp, sl = point[order], level_of[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (sp[1:] != sp[:-1]) | (sl[1:] != sl[:-1])
    node_at = np.cumsum(first) - 1
    node_of = np.empty(n, dtype=np.intp)
    node_of[order] = node_at
    starts = np.flatnonzero(first)
    degree = np.diff(starts, append=n)
    halt = degree != 2
    pair = starts[~halt]
    d0, d1 = order[pair], order[pair + 1]
    inner = node_at[pair]
    low = (inner < node_of[d0 ^ 1]) & (inner < node_of[d1 ^ 1])
    halt[inner[low]] = True
    # The walk leaves a node by an endpoint d and reaches the far end of its
    # segment, endpoint d ^ 1. At an inner node that is no halt it goes on
    # by the node's other endpoint: succ[d] is that endpoint, or -1.
    partner = np.full(n, -1, dtype=np.intp)
    partner[d0[~low]] = d1[~low]
    partner[d1[~low]] = d0[~low]
    succ = partner[np.arange(n) ^ 1]
    last, dist = _list_rank(succ)
    # each run's endpoints side by side, in walk order, from a halt to a halt
    length = np.bincount(last, minlength=n)
    head = np.cumsum(length) - length
    pos = head[last] + length[last] - 1 - dist
    seq = np.empty(n, dtype=np.intp)
    seq[pos] = np.arange(n)

    # halts are numbered 0, 1, ... in node order, and their endpoints are
    # listed in node order
    halts = np.flatnonzero(halt)
    halt_id = np.cumsum(halt) - 1
    at = np.flatnonzero(halt[node_at])
    endpoint = order[at]
    first_at = np.searchsorted(at, starts[halts])
    halt_bounds = np.searchsorted(halts, np.searchsorted(sl[starts], np.arange(levels + 1)))
    odd = halt_id[np.flatnonzero(degree % 2 == 1)]
    odd_cut = np.searchsorted(odd, halt_bounds).tolist()
    # per endpoint: the first and last positions of its run, the run's last
    # segment, and the halt it reaches
    tail = last[endpoint]
    step = list(
        zip(
            pos[endpoint].tolist(),
            pos[tail].tolist(),
            (tail >> 1).tolist(),
            halt_id[node_of[tail ^ 1]].tolist(),
        )
    )

    odd = odd.tolist()
    halt_bounds = halt_bounds.tolist()
    cursor = first_at.tolist()
    halt_stops = (first_at + degree[halts]).tolist()
    segment = (endpoint >> 1).tolist()
    opening = (n + order[starts[halts]]).tolist()
    used = bytearray(n // 2)

    def next_endpoint(node: int) -> int:
        """Where the node's first endpoint on an unused segment is listed, or -1."""
        k, stop = cursor[node], halt_stops[node]
        while k < stop and used[segment[k]]:
            k += 1
        cursor[node] = k
        return k if k < stop else -1

    # Vertices are read from ``source``: the endpoints each strand reaches,
    # in layout order, then every endpoint, for the one each chain opens with
    # (equal points can differ in the sign of a zero).
    lo, width, count = [], [], 0
    level_offsets = []
    for level in range(levels):
        offsets = [count]
        # open chains first, anchored at odd-degree nodes, then cycles
        anchors = odd[odd_cut[level] : odd_cut[level + 1]]
        for start in anchors + list(range(halt_bounds[level], halt_bounds[level + 1])):
            k_at = next_endpoint(start)
            while k_at >= 0:
                lo.append(opening[start])
                width.append(1)
                count += 1
                while k_at >= 0:
                    a, b, final, node = step[k_at]
                    used[segment[k_at]] = 1
                    used[final] = 1
                    lo.append(a)
                    width.append(b + 1 - a)
                    count += b + 1 - a
                    k_at = next_endpoint(node)
                offsets.append(count)
                k_at = next_endpoint(start)
        level_offsets.append(offsets)
    source = np.concatenate((seq ^ 1, np.arange(n)))
    lo = np.array(lo, dtype=np.intp)
    width = np.array(width, dtype=np.intp)
    vertex = source[np.arange(count) + np.repeat(lo - (np.cumsum(width) - width), width)]
    return xs[vertex], ys[vertex], level_offsets


def extract_contours(grid: MeasureGrid, level) -> ContourSet:
    """Polylines where the c-index field crosses ``level``.

    Masked cells are treated as outside every level: a cell with any
    masked corner contributes no segments. MeasureGrid's bounds keep every
    vertex finite. A level the field never crosses yields an empty
    polyline list, not an error.
    """
    _require_type(grid, MeasureGrid, "grid")
    level = _require_finite(level, "level")
    x, y, (bounds,) = _contour_polylines(grid, (level,))
    points = list(zip(x.tolist(), y.tolist()))
    polylines = tuple(tuple(points[a:b]) for a, b in zip(bounds, bounds[1:]))
    return ContourSet(level=level, polylines=polylines)


# Figure geometry in CSS pixels. Fixed constants plus fixed two-decimal
# coordinate formatting keep the output byte-stable run to run.
_PANEL_WIDTH = 300.0
_PANEL_HEIGHT = 240.0
_MARGIN_LEFT = 66.0
_MARGIN_RIGHT = 66.0
_MARGIN_TOP = 46.0
_MARGIN_BOTTOM = 58.0
_AXIS_TICKS = 5


def _px(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(x: float) -> str:
    return f"{x:.4g}"


def _axis_svg(name: str, ticks, layout, title_position: str, title: str) -> list[str]:
    """One axis group: a tick mark and a label per tick, then the axis title.

    ``ticks`` holds ``(x, y, label)`` with (x, y) on the frame; ``layout``
    holds the tick mark's two end offsets from that point, the label's
    offset and its text-anchor.
    """
    dx1, dy1, dx2, dy2, text_dx, text_dy, anchor = layout
    parts = [f'<g class="axis axis-{name}">']
    for x, y, label in ticks:
        parts.append(
            f'<line class="tick" x1="{_px(x + dx1)}" y1="{_px(y + dy1)}" '
            f'x2="{_px(x + dx2)}" y2="{_px(y + dy2)}"/>'
        )
        parts.append(
            f'<text x="{_px(x + text_dx)}" y="{_px(y + text_dy)}" '
            f'text-anchor="{anchor}">{label}</text>'
        )
    parts.append(
        f'<text class="axis-label" {title_position} text-anchor="middle">{title}</text>'
    )
    parts.append("</g>")
    return parts


def _panel_svg(grid: MeasureGrid, spec: GridSpec, offset_x: float) -> list[str]:
    x0 = offset_x + _MARGIN_LEFT
    y0 = _MARGIN_TOP
    p0_span = spec.p0_max - spec.p0_min
    rr_span = spec.rr_max - spec.rr_min

    # plain arithmetic: each takes a float or an array of them
    def to_x(p0_value):
        return x0 + (p0_value - spec.p0_min) / p0_span * _PANEL_WIDTH

    def to_y(rr_value):
        return y0 + _PANEL_HEIGHT - (rr_value - spec.rr_min) / rr_span * _PANEL_HEIGHT

    bottom = y0 + _PANEL_HEIGHT
    right = x0 + _PANEL_WIDTH
    parts = [f'<g class="panel" data-prevalence="{_tick_label(grid.prevalence)}">']
    title = f"risk factor prevalence {_tick_label(100.0 * grid.prevalence)}%"
    parts.append(
        f'<text class="title" x="{_px(x0 + _PANEL_WIDTH / 2)}" y="{_px(y0 - 16)}" '
        f'text-anchor="middle">{title}</text>'
    )
    parts.append(
        f'<rect class="frame" x="{_px(x0)}" y="{_px(y0)}" '
        f'width="{_px(_PANEL_WIDTH)}" height="{_px(_PANEL_HEIGHT)}"/>'
    )

    p0_ticks = [spec.p0_min + p0_span * k / (_AXIS_TICKS - 1) for k in range(_AXIS_TICKS)]
    rr_ticks = [spec.rr_min + rr_span * k / (_AXIS_TICKS - 1) for k in range(_AXIS_TICKS)]
    parts += _axis_svg(
        "p0",
        [(to_x(v), bottom, _tick_label(v)) for v in p0_ticks],
        (0.0, 0.0, 0.0, 4.0, 0.0, 16.0, "middle"),
        f'x="{_px(x0 + _PANEL_WIDTH / 2)}" y="{_px(bottom + 34)}"',
        "incidence among unexposed (p0)",
    )
    parts += _axis_svg(
        "rr",
        [(x0, to_y(v), _tick_label(v)) for v in rr_ticks],
        (-4.0, 0.0, 0.0, 0.0, -7.0, 3.0, "end"),
        f'transform="translate({_px(x0 - 44)},{_px(y0 + _PANEL_HEIGHT / 2)}) rotate(-90)"',
        "relative risk (RR)",
    )
    # The attributable risk is a bijection of rr at fixed prevalence, so the
    # right axis relabels the rr ticks with their PAR values.
    parts += _axis_svg(
        "par",
        [(right, to_y(v), _tick_label(_par(grid.prevalence, v))) for v in rr_ticks],
        (0.0, 0.0, 4.0, 0.0, 7.0, 3.0, "start"),
        f'transform="translate({_px(right + 48)},{_px(y0 + _PANEL_HEIGHT / 2)}) rotate(90)"',
        "population-attributable risk (PAR)",
    )

    parts.append('<g class="contours">')
    parts += _contours_svg(grid, spec.contour_levels, to_x, to_y)
    parts.append("</g>")
    parts.append("</g>")
    return parts


_PATH_OPEN = '<path class="contour" d="M '
_PATH_BREAK = '"/>\n' + _PATH_OPEN
_SPACE = np.array(b" ")


def _contours_svg(grid: MeasureGrid, levels, to_x, to_y) -> list[str]:
    r"""A panel's contour groups: one per level the field crosses, in order.

    Every vertex of the panel becomes ``"x y"`` and a separator: ``" L "``
    inside a polyline, ``"\n"`` after its last vertex and ``"\t"`` after
    the level's last. Split at the tabs, each level's lines become its
    ``<path>`` elements by one ``str.replace``.
    """
    x, y, bounds = _contour_polylines(grid, levels)
    drawn = [(level, offsets) for level, offsets in zip(levels, bounds) if len(offsets) > 1]
    x, y = to_x(x), to_y(y)
    separators = np.full(x.size, b" L ")
    separators[[k - 1 for offsets in bounds for k in offsets[1:]]] = b"\n"
    separators[[offsets[-1] - 1 for _, offsets in drawn]] = b"\t"
    texts = _format2(np.concatenate((x, y)))
    lines = _joined(_NO_OPEN, texts[None, : x.size], _SPACE, texts[None, x.size :], separators)
    parts = []
    for (level, offsets), paths in zip(drawn, lines.split("\t")):
        lengths = [b - a for a, b in zip(offsets, offsets[1:])]
        longest = lengths.index(max(lengths))
        middle = offsets[longest] + lengths[longest] // 2
        label = _tick_label(level)
        parts += (
            f'<g class="level" data-level="{label}">',
            _PATH_OPEN + paths.replace("\n", _PATH_BREAK) + '"/>',
            f'<text class="contour-label" x="{_px(x[middle] + 2)}" '
            f'y="{_px(y[middle] - 2)}">{label}</text>',
            "</g>",
        )
    return parts


def render_svg(grids, spec: GridSpec) -> str:
    """Self-contained SVG: one panel per prevalence, dual RR/PAR axes.

    Deterministic by construction; rendering the same grids twice gives
    byte-identical documents.
    """
    grids = list(grids)
    _require_type(spec, GridSpec, "spec")
    if len(grids) != len(spec.prevalences):
        raise InvalidParamsError(
            f"expected one grid per prevalence panel "
            f"({len(spec.prevalences)}), got {len(grids)}"
        )
    for grid, prevalence in zip(grids, spec.prevalences):
        _require_type(grid, MeasureGrid, "grid")
        if grid.prevalence != prevalence:
            raise InvalidParamsError(
                f"grid order must match spec.prevalences; expected prevalence "
                f"{prevalence:g}, got {grid.prevalence:g}"
            )

    block = _MARGIN_LEFT + _PANEL_WIDTH + _MARGIN_RIGHT
    width = block * len(grids)
    height = _MARGIN_TOP + _PANEL_HEIGHT + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_px(width)}" '
        f'height="{_px(height)}" viewBox="0 0 {_px(width)} {_px(height)}">',
        "<style>"
        "text{font-family:sans-serif;font-size:10px;fill:#222222;}"
        ".title{font-size:12px;}"
        ".axis-label{font-size:11px;}"
        ".contour-label{font-size:8px;fill:#1f77b4;}"
        ".frame{fill:none;stroke:#333333;stroke-width:1;}"
        ".tick{stroke:#333333;stroke-width:1;}"
        ".contour{fill:none;stroke:#1f77b4;stroke-width:1;}"
        "</style>",
        f'<rect x="0" y="0" width="{_px(width)}" height="{_px(height)}" fill="#ffffff"/>',
    ]
    for k, grid in enumerate(grids):
        parts.extend(_panel_svg(grid, spec, k * block))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _json_float(x) -> str:
    """``x``, a finite float, as ``json.dumps(float(format(x, ".12g")))``.

    A ``.12g`` text with a point and no exponent is already the shortest
    repr of the rounded value. The other texts (integral values, ``-0``,
    and the exponent forms, where ``.12g`` and repr lay out digits
    differently) are written by repr.
    """
    text = "%.12g" % x
    if "." in text and "e" not in text:
        return text
    return repr(float(text))


def _json_array(texts: list[str], indent: int) -> str:
    """A JSON array of formatted items, laid out as by ``json.dumps(indent=2)``."""
    if not texts:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(texts) + "\n" + " " * indent + "]"


# The exporters' "%.12g" kernel. On an rr >= 1 lattice every c-value lies in
# [0.1, 1), where "%.12g" % v is "0." and the 12 digits of q = round(v * 1e12)
# with its trailing zeros dropped. Two scalar floor divisions, faster than
# np.divmod, cut q into three 4-digit groups, each one little-endian word of
# ASCII digits from a table whose second half has trailing zeros as NUL bytes.
_DIGITS = np.dtype([("point", "S2"), ("a", "<u4"), ("b", "<u4"), ("c", "<u4")])


@cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The words of 00 .. 99, and of 0000 .. 9999 then repeated stripped.

    Built on first use, so importing the module costs no numpy work.
    """
    k = np.arange(100, dtype=np.uint32)
    tens, ones = k // 10 + ord("0"), k % 10 + ord("0")
    pairs = tens | ones << 8
    stripped = np.where(k % 10, pairs, np.where(k, tens, 0))
    high = pairs[:, None]
    quads = (high | pairs << 16, np.where(k == 0, stripped[:, None], high | stripped << 16))
    return pairs.astype("<u2"), np.concatenate([words.ravel() for words in quads]).astype("<u4")


def _nearest(
    values: np.ndarray, fast: np.ndarray, scale: float, limit: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(n, fast)``: ``fast`` kept where q = rint(fl(v * scale)) is below ``limit``
    and is the integer nearest v * scale, and n = q there as int64, else 0.

    Values outside ``fast`` are set to 0 before any arithmetic, so NaN and
    infinities raise no warning. For 0 <= v * scale < 2**52 every
    half-integer is a float and rounding is monotone, so fl(v * scale) lies
    on the same side of each half-integer as the exact product, or on it.
    Unless it is itself a half-integer, its nearest integer is therefore
    that of the exact product.
    """
    p = np.where(fast, values, 0.0) * scale
    q = np.rint(p)
    fast = fast & (q < limit) & (np.abs(p - q) != 0.5)
    return np.where(fast, q, 0.0).astype(np.int64), fast


def _format12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(fast, texts)``: where ``fast``, ``texts`` holds ``"%.12g" % v`` as NUL-padded ``S14``.

    ``fast`` marks the values in [0.1, 1) whose 12-digit rounding stays
    below 1 and whose product p = fl(v * 1e12) is no half-integer (see
    :func:`_nearest`), as for all but about one cell in 10 000 of a
    lattice; elsewhere ``texts`` is meaningless.
    """
    values = values.ravel()
    n, fast = _nearest(values, (values >= 0.1) & (values < 1.0), 1e12, 1e12)
    a = n // 10**8
    low = n - a * 10**8
    b = low // 10**4
    c = low - b * 10**4
    quads = _digit_words()[1]
    texts = np.empty(n.size, _DIGITS)
    texts["point"] = b"0."
    # a group takes its stripped word when every digit after it is 0
    texts["a"] = quads[a + 10000 * (low == 0)]
    texts["b"] = quads[b + 10000 * (c == 0)]
    texts["c"] = quads[c + 10000]
    return fast, texts.view("S14")


# The figure's "%.2f" kernel: below 1e4, "%.2f" % v is the integer part of
# q = round(v * 100) without leading zeros, a point and q's last two digits.
_FIXED2 = np.dtype([("whole", "<u4"), ("point", "S1"), ("cents", "<u2")])


@cache
def _whole_words() -> np.ndarray:
    """The words of 0 .. 9999, each four ASCII digits with leading zeros as NUL bytes."""
    k = np.arange(10_000)
    digits = [(k // 10**e % 10 + ord("0")) * ((k >= 10**e) | (e == 0)) for e in (3, 2, 1, 0)]
    return (digits[0] | digits[1] << 8 | digits[2] << 16 | digits[3] << 24).astype("<u4")


def _format2(values: np.ndarray) -> np.ndarray:
    """``"%.2f" % v`` of every value, as a NUL-padded ``S`` array.

    Non-negative values below 1e4 whose product p = fl(v * 100) is no
    half-integer (see :func:`_nearest`) take the kernel. The rest, negative
    zero, exact ties such as k/8, and values that are large or not finite,
    go through Python's ``%``.
    """
    values = values.ravel()
    n, fast = _nearest(values, ~np.signbit(values) & (values < 1e4), 100.0, 1e6)
    whole, cents = np.divmod(n, 100)
    texts = np.empty(values.size, _FIXED2)
    texts["whole"] = _whole_words()[whole]
    texts["point"] = b"."
    texts["cents"] = _digit_words()[0][cents]
    return _with_slow(texts.view("S7"), values, np.flatnonzero(~fast), "%.2f".__mod__)


def _with_slow(texts: np.ndarray, values: np.ndarray, slow: np.ndarray, slow_text) -> np.ndarray:
    """``texts``, widened as needed, with ``slow_text(v)`` at the indices ``slow``."""
    if not slow.size:
        return texts
    slow_texts = np.array([slow_text(v) for v in values[slow].tolist()], dtype="S")
    texts = texts.astype(np.promote_types(texts.dtype, slow_texts.dtype))
    texts[slow] = slow_texts
    return texts


_BLOCK = 4096  # cells per block of the exporters


def _blocks(grid: MeasureGrid, masked_text: bytes, slow_text):
    """Row-major blocks of whole rows, about ``_BLOCK`` cells or one row each,
    so what the exporters hold stays bounded: per block its row slice, its
    mask and its cells' texts, an ``S`` array of its shape. A masked cell
    reads ``masked_text``, any other ``"%.12g" % v`` from :func:`_format12`,
    or ``slow_text(v)`` outside its fast path."""
    rows, cols = grid.c_values.shape
    step = max(1, _BLOCK // max(1, cols))
    for start in range(0, rows, step):
        block = slice(start, start + step)
        values, masked = grid.c_values[block], grid.mask[block]
        fast, texts = _format12(values)
        slow = np.flatnonzero(~(fast | masked.ravel()))
        texts = _with_slow(texts, values.ravel(), slow, slow_text).reshape(values.shape)
        texts[masked] = masked_text
        yield block, masked, texts


def _joined(opens, *fields) -> str:
    """A block's text: per row ``opens[row]``, then per cell its ``fields`` side by side.

    ``opens`` is an ``S`` array broadcast to the block's rows, each field
    one broadcast to its (rows, cols) cells. Each row becomes one
    fixed-width record, laid out in place in a ``bytearray``, and the NUL
    padding of every field is dropped from all of them at once.
    """
    rows, cols = np.broadcast(*fields).shape
    cell = np.dtype([("", field.dtype) for field in fields])
    record = np.dtype([("open", opens.dtype), ("cells", cell, (cols,))])
    buffer = bytearray(rows * record.itemsize)
    records = np.frombuffer(buffer, record)
    records["open"] = opens
    cells = records["cells"]
    for name, field in zip(cell.names, fields):
        cells[name] = field
    return buffer.translate(None, b"\0").decode("ascii")


_NO_OPEN = np.array(b"")


def grids_to_csv(grids) -> str:
    """CSV export, one row per cell: f, p0, rr, par, c_index, masked.

    Floats carry 12 significant digits; masked cells leave c_index empty.
    No field ever needs quoting: each is a number, empty, or true/false.
    """
    parts = ["f,p0,rr,par,c_index,masked\n"]
    for grid in grids:
        _require_type(grid, MeasureGrid, "grid")
        f_text = format(grid.prevalence, ".12g")
        heads = np.array([f"{f_text},{p0:.12g}," for p0 in grid.p0_axis.tolist()], dtype="S")
        axes = zip(grid.rr_axis.tolist(), grid.par_axis.tolist())
        middles = np.array([f"{rr:.12g},{par_value:.12g}," for rr, par_value in axes], dtype="S")
        for rows, masked, texts in _blocks(grid, b"", "%.12g".__mod__):
            tails = np.where(masked, b",true\n", b",false\n")
            parts.append(_joined(_NO_OPEN, heads, middles[rows, None], texts, tails))
    return "".join(parts)


# The JSON c_values and mask arrays open with _JSON_FIRST, each further row
# opens with _JSON_ROW, and every cell but a row's first follows _JSON_NEXT.
_JSON_FIRST = b"[\n" + b" " * 8 + b"[\n" + b" " * 10
_JSON_ROW = b"\n" + b" " * 8 + b"],\n" + b" " * 8 + b"[\n" + b" " * 10
_JSON_NEXT = b",\n" + b" " * 10
_JSON_CLOSE = "\n" + " " * 8 + "]\n" + " " * 6 + "]"


def _grid_json_parts(grid: MeasureGrid, mask_texts: dict) -> list[str]:
    """A panel's JSON object as parts; ``mask_texts`` keeps the text of each
    distinct mask block, so panels and blocks with equal flags share it."""
    parts = [f'{{\n      "prevalence": {_json_float(grid.prevalence)}']
    for name in ("p0_axis", "rr_axis", "par_axis"):
        text = _json_array([_json_float(v) for v in getattr(grid, name).tolist()], 6)
        parts.append(f',\n      "{name}": {text}')
    if not grid.c_values.size:
        empty = _json_array(["[]"] * grid.rr_axis.size, 6)
        return parts + [f',\n      "c_values": {empty},\n      "mask": {empty}\n    }}']
    leads = np.full(grid.p0_axis.size, _JSON_NEXT)
    leads[0] = b""
    c_parts, mask_parts = [',\n      "c_values": '], [',\n      "mask": ']
    for rows, masked, texts in _blocks(grid, b"null", _json_float):
        opens = np.full(masked.shape[0], _JSON_ROW)
        if rows.start == 0:
            opens[0] = _JSON_FIRST
        c_parts.append(_joined(opens, leads, texts))
        key = (rows.start == 0, masked.shape, np.packbits(masked).tobytes())
        if key not in mask_texts:
            mask_texts[key] = _joined(opens, leads, np.where(masked, b"true", b"false"))
        mask_parts.append(mask_texts[key])
    return parts + c_parts + [_JSON_CLOSE] + mask_parts + [_JSON_CLOSE, "\n    }"]


def grids_to_json(grids, spec: GridSpec) -> str:
    """Nested JSON export: spec echo plus per-panel axis and value arrays.

    Floats are rounded to 12 significant digits; masked cells are null.
    The layout is that of ``json.dumps(document, indent=2)``. ``GridSpec``
    and ``MeasureGrid`` hold no non-finite value that is written, so the
    text is valid JSON.
    """
    _require_type(spec, GridSpec, "spec")
    prevalences = _json_array([_json_float(v) for v in spec.prevalences], 4)
    levels = _json_array([_json_float(v) for v in spec.contour_levels], 4)
    parts = [
        f'{{\n  "spec": {{\n    "prevalences": {prevalences}'
        f',\n    "p0_min": {_json_float(spec.p0_min)}'
        f',\n    "p0_max": {_json_float(spec.p0_max)}'
        f',\n    "rr_min": {_json_float(spec.rr_min)}'
        f',\n    "rr_max": {_json_float(spec.rr_max)}'
        f',\n    "resolution": {spec.resolution}'
        f',\n    "contour_levels": {levels}\n  }},\n  "grids": '
    ]
    mask_texts, lead, close = {}, "[\n    ", "[]\n}\n"
    for grid in grids:
        _require_type(grid, MeasureGrid, "grid")
        parts.append(lead)
        parts += _grid_json_parts(grid, mask_texts)
        lead, close = ",\n    ", "\n  ]\n}\n"
    parts.append(close)
    return "".join(parts)
