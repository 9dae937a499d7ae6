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
the cell-centre mean. Cells touching a masked or non-finite corner emit
nothing: such regions sit outside every level, so no vertex is NaN or
infinite. All levels of a grid come from one span-space pass: each valid
cell's corner minimum and maximum are taken once, and a ``searchsorted``
of the sorted levels against them yields every (cell, level) crossing,
so the work grows with the crossings rather than with levels times
cells. Segments are chained into polylines a run at a time: away from
ties every node joins two segments, so list ranking over all levels of a
panel at once lays out each strand of such nodes in walk order. The
Python walk halts only at nodes of degree other than 2 and at each
strand's smallest inner node, and every run, one step of the walk along
a strand, ends at the first halt it reaches. The figure writes each
level's paths with one ``%`` operation over its vertices.

The JSON and CSV exporters write each lattice row with one ``%``
operation over its unmasked values, through a template that already
holds the masked cells' text.

The SVG writer is deliberately small and fully deterministic: the same
grids produce the same bytes, with no timestamps, random ids, or external
resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby, repeat

import numpy as np

from .errors import InvalidParamsError, RenderError
from .measures import (
    _measure_kernel, _par, _require_count, _require_finite, _require_positive, _require_prob,
    _require_type,
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


@dataclass(frozen=True)
class GridSpec:
    """Sweep definition: prevalence panels, axis windows, lattice density.

    ``resolution`` is the number of samples per axis. The default window
    covers incidences up to 10% and relative risks up to 3, with contour
    levels every 0.01 from 0.51 to 0.60.
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
            _require_prob(v, "prevalence", open_interval=True) for v in self.prevalences
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
        object.__setattr__(
            self, "resolution", _require_count(self.resolution, "resolution", minimum=2)
        )
        levels = tuple(_require_finite(v, "contour_level") for v in self.contour_levels)
        object.__setattr__(self, "contour_levels", levels)


@dataclass(frozen=True, eq=False)
class MeasureGrid:
    """Evaluated c-index lattice at one prevalence.

    ``c_values`` is indexed [rr, p0]; masked cells (rr * p0 > 1) hold NaN.
    ``par_axis`` pairs each rr with its attributable risk at this
    prevalence.
    """

    prevalence: float
    p0_axis: np.ndarray
    rr_axis: np.ndarray
    c_values: np.ndarray
    par_axis: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "prevalence", _require_prob(self.prevalence, "prevalence", open_interval=True))
        for name in ("p0_axis", "rr_axis"):
            axis = np.asarray(getattr(self, name), dtype=float)
            bad = axis[~np.isfinite(axis)]
            if bad.size:
                raise InvalidParamsError(f"{name} must be finite, got {bad[0]}")
            object.__setattr__(self, name, axis)
        object.__setattr__(self, "c_values", np.asarray(self.c_values, dtype=float))
        object.__setattr__(self, "par_axis", np.asarray(self.par_axis, dtype=float))
        object.__setattr__(self, "mask", np.asarray(self.mask, dtype=bool))
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


@dataclass(frozen=True)
class ContourSet:
    """Iso-level polylines of one c-index level, vertices in (p0, rr)."""

    level: float
    polylines: tuple[tuple[tuple[float, float], ...], ...]


def evaluate_grid(spec: GridSpec, prevalence: float) -> MeasureGrid:
    """Evaluate the c-index lattice for one prevalence panel of ``spec``.

    All unmasked cells go through the shared measure kernel in one array
    call, the same code that :func:`derive_measures` runs on one scenario,
    so grid values equal direct scenario evaluation bit for bit.
    """
    _require_type(spec, GridSpec, "spec")
    if prevalence not in spec.prevalences:
        raise InvalidParamsError(
            f"prevalence {prevalence!r} is not one of the spec's panels {spec.prevalences}"
        )
    p0_axis = np.linspace(spec.p0_min, spec.p0_max, spec.resolution)
    rr_axis = np.linspace(spec.rr_min, spec.rr_max, spec.resolution)
    rr_cells, p0_cells = np.meshgrid(rr_axis, p0_axis, indexing="ij")
    p1 = rr_cells * p0_cells
    mask = p1 > 1.0
    ok = ~mask
    c_values = np.full(p1.shape, np.nan)
    c_values[ok] = _measure_kernel(prevalence, p0_cells[ok], p1[ok], rr_cells[ok])[4]
    par_axis = _par(prevalence, rr_axis)
    return MeasureGrid(
        prevalence=float(prevalence),
        p0_axis=p0_axis,
        rr_axis=rr_axis,
        c_values=c_values,
        par_axis=par_axis,
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
) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """The polylines of every level in ``levels``, one entry per level, in order.

    Each entry is ``(x, y, bounds)``: the level's vertices in walk order,
    and the offsets at which its polylines start, closed by ``x.size``;
    polyline ``k`` is ``x[bounds[k]:bounds[k + 1]]`` paired with the same
    stretch of ``y``.

    A cell crosses a level exactly when its lowest corner lies at or below
    the level and its highest corner above it, so a ``searchsorted`` of each
    valid cell's corner range against the sorted levels yields every
    (cell, level) crossing in one pass (span-space search, Livnat, Shen &
    Johnson 1996). Work then grows with the crossings, not with levels
    times cells. Crossings are grouped by level, row-major within each, so
    every level's segments come in row-major cell order, and in table order
    within a cell; segments whose two endpoints coincide are dropped.
    Each entry of ``levels`` has its own slot in the sorted ladder: a
    repeated level is stitched once per copy, and 0.0 and -0.0 cross the
    same cells but each interpolates with its own sign.
    """
    values = grid.c_values
    valid = ~grid.mask & np.isfinite(values)
    cell_ok = valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, 1:] & valid[1:, :-1]
    corners = (values[:-1, :-1], values[:-1, 1:], values[1:, 1:], values[1:, :-1])
    low = np.minimum(np.minimum(corners[0], corners[1]), np.minimum(corners[2], corners[3]))
    high = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))

    levels = np.asarray(levels, dtype=float).reshape(-1)
    by_value = np.argsort(levels, kind="stable")
    ladder = levels[by_value]
    # the levels in [low, high) of each valid cell, as ranks into the ladder
    first = np.searchsorted(ladder, low.ravel())
    count = (np.searchsorted(ladder, high.ravel()) - first) * cell_ok.ravel()
    crossing = np.repeat(np.arange(count.size), count)
    rank = first[crossing] + np.arange(crossing.size) - np.repeat(np.cumsum(count) - count, count)
    # a stable sort keeps the cells of each level in row-major order
    by_rank = np.argsort(rank, kind="stable")
    rank = rank[by_rank]
    rows, cols = np.unravel_index(crossing[by_rank], low.shape)
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
    va = values[ia, ja]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (level[cell, None] - va) / (values[ib, jb] - va)
    # np.clip could turn a -0.0 into 0.0; the comparisons keep it.
    t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
    p0_axis, rr_axis = grid.p0_axis, grid.rr_axis
    x = p0_axis[ja] + t * (p0_axis[jb] - p0_axis[ja])
    y = rr_axis[ia] + t * (rr_axis[ib] - rr_axis[ia])
    distinct = (x[:, 0] != x[:, 1]) | (y[:, 0] != y[:, 1])
    x, y = x[distinct], y[distinct]
    bounds = np.searchsorted(rank[cell[distinct]], np.arange(ladder.size + 1))
    polylines = [None] * ladder.size
    for level_slot, vertices in zip(by_value.tolist(), _stitch(x, y, bounds)):
        polylines[level_slot] = vertices
    return polylines


def _list_rank(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element: the last element of its list, and how many steps away it is.

    ``succ[d]`` is the element after ``d``, or -1 where a list ends. Pointer
    jumping (Wyllie 1979) doubles every element's reach per pass, so lists
    of length L take about log2(L) vector passes. An element on a cycle
    never reaches an end: the element returned for it still has a successor.
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


def _stitch(x, y, bounds) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
    """Join each level's segments sharing endpoints into polylines, deterministically.

    Rows ``bounds[k]:bounds[k + 1]`` of ``x`` and ``y``, one segment each,
    belong to level ``k``; endpoint ``e`` of segment ``e // 2`` sits at
    ``(x.flat[e], y.flat[e])``. Within a level, equal coordinates make one
    node; nodes are numbered in ascending (level, x, y) order. Chains start
    at odd-degree nodes first, then at any node with a segment left, each in
    ascending order, and every step takes the current node's first unused
    segment.

    A node of degree 2 lets the walk go on one way only, so its route along
    a strand, a string of segments joined at such nodes, is fixed beforehand:
    list ranking lays out every strand's endpoints in walk order in a few
    vector passes, and the walk below steps a run at a time. It halts at
    the nodes of degree other than 2 and at the smallest inner node of each
    strand, the one inner node where a chain can start, and every run ends
    at the first halt it reaches. A strand without ends, a loop of degree-2
    nodes, is cut at that smallest node.

    Returns, per level, ``(x, y, offsets)``: the vertices of its polylines
    in walk order, and the offsets at which they start, closed by the end.
    """
    xs, ys = x.ravel(), y.ravel()
    n = xs.size
    levels = len(bounds) - 1
    # small integers: their stable sort is a radix sort
    level_of = np.repeat(np.arange(levels, dtype=np.min_scalar_type(levels)), 2 * np.diff(bounds))
    # a stable sort: each node's endpoints stay in segment order
    order = np.lexsort((ys, xs, level_of))
    sx, sy, sl = xs[order], ys[order], level_of[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1]) | (sl[1:] != sl[:-1])
    node_at = np.cumsum(first) - 1
    node_of = np.empty(n, dtype=np.intp)
    node_of[order] = node_at
    starts = np.flatnonzero(first)
    nodes = starts.size
    degree = np.diff(starts, append=n)
    inner = degree == 2
    # The walk leaves a node by an endpoint d and reaches the far end of its
    # segment, endpoint d ^ 1. At a node of degree 2 it goes on by the
    # node's other endpoint: succ[d] is that endpoint, or -1.
    partner = np.full(n, -1, dtype=np.intp)
    pair = starts[inner]
    partner[order[pair]] = order[pair + 1]
    partner[order[pair + 1]] = order[pair]
    succ = partner[np.arange(n) ^ 1]
    last, dist = _list_rank(succ)
    cyclic = succ[last] >= 0
    if cyclic.any():
        # Cut each loop at its smallest node, before both of the endpoints
        # there; its chain leaves by the one first in node order.
        label = np.empty(n, dtype=np.intp)
        label[order] = np.arange(n)
        low = np.where(cyclic, label, n)
        hop = np.where(cyclic, succ, np.arange(n))
        for _ in range(n.bit_length()):
            low = np.minimum(low, low[hop])
            hop = hop[hop]
        succ[partner[cyclic & (low == label)] ^ 1] = -1
        last, dist = _list_rank(succ)
    # each strand's endpoints side by side, in walk order
    length = np.bincount(last, minlength=n)
    head = np.cumsum(length) - length
    pos = head[last] + length[last] - 1 - dist
    seq = np.empty(n, dtype=np.intp)
    seq[pos] = np.arange(n)

    # The walk halts at the nodes of degree other than 2 and at the smallest
    # inner node of each strand; below they are numbered 0, 1, ... in node
    # order, and their endpoints are listed in node order.
    inside = node_of[seq]
    inside[~inner[inside]] = nodes
    lowest = np.minimum.reduceat(inside, head[length > 0])
    halt = ~inner
    halt[lowest[lowest < nodes]] = True
    halts = np.flatnonzero(halt)
    halt_id = np.cumsum(halt) - 1
    at = np.flatnonzero(halt[node_at])
    endpoint = order[at]
    first_at = np.searchsorted(at, starts[halts])
    halt_bounds = np.searchsorted(halts, np.searchsorted(sl[starts], np.arange(levels + 1)))
    odd = halt_id[np.flatnonzero(degree % 2 == 1)]
    odd_cut = np.searchsorted(odd, halt_bounds).tolist()
    # per endpoint: the first and last positions of its run, up to the
    # first halt the strand reaches, the run's last segment, and that halt
    arrive = np.flatnonzero(halt[node_of[seq ^ 1]])
    stop = arrive[np.searchsorted(arrive, pos[endpoint])]
    step = list(
        zip(
            pos[endpoint].tolist(),
            stop.tolist(),
            (seq[stop] >> 1).tolist(),
            halt_id[node_of[seq[stop] ^ 1]].tolist(),
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
    xs, ys = xs[vertex], ys[vertex]
    return [
        (xs[a[0] : a[-1]], ys[a[0] : a[-1]], [k - a[0] for k in a]) for a in level_offsets
    ]


def extract_contours(grid: MeasureGrid, level) -> ContourSet:
    """Polylines where the c-index field crosses ``level``.

    Masked cells are treated as outside every level: a cell with any
    masked or non-finite corner contributes no segments, so every vertex
    is finite. A level the field never crosses yields an empty polyline
    list, not an error.
    """
    _require_type(grid, MeasureGrid, "grid")
    level = _require_finite(level, "level")
    x, y, bounds = _contour_polylines(grid, (level,))[0]
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
    levels = spec.contour_levels
    for level, (x, y, bounds) in zip(levels, _contour_polylines(grid, levels)):
        if not x.size:
            continue
        parts.append(f'<g class="level" data-level="{_tick_label(level)}">')
        # every vertex of the level at once, interleaved
        xy = np.empty(2 * x.size)
        xy[0::2] = to_x(x)
        xy[1::2] = to_y(y)
        sizes = [b - a for a, b in zip(bounds, bounds[1:])]
        # one "%" writes every path of the level; "%.2f" % v == f"{v:.2f}"
        template = "\n".join(
            '<path class="contour" d="M %.2f %.2f' + " L %.2f %.2f" * (m - 1) + '"/>'
            for m in sizes
        )
        parts.append(template % tuple(xy.tolist()))
        longest = sizes.index(max(sizes))
        middle = bounds[longest] + sizes[longest] // 2
        parts.append(
            f'<text class="contour-label" x="{_px(xy[2 * middle] + 2)}" '
            f'y="{_px(xy[2 * middle + 1] - 2)}">{_tick_label(level)}</text>'
        )
        parts.append("</g>")
    parts.append("</g>")
    parts.append("</g>")
    return parts


def render_svg(grids, spec: GridSpec) -> str:
    """Self-contained SVG: one panel per prevalence, dual RR/PAR axes.

    Deterministic by construction; rendering the same grids twice gives
    byte-identical documents.
    """
    grids = list(grids)
    if not grids:
        raise RenderError("no grids to render")
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
    return _json_floats("%.12g", (x,))


def _json_array(texts: list[str], indent: int) -> str:
    """A JSON array of formatted items, laid out as by ``json.dumps(indent=2)``."""
    if not texts:
        return "[]"
    inner = "\n" + " " * (indent + 2)
    return "[" + inner + ("," + inner).join(texts) + "\n" + " " * indent + "]"


def _extend_json_array(parts: list[str], items, indent: int) -> None:
    """Append to ``parts`` a JSON array of large items, each a list of parts.

    Same layout as :func:`_json_array`, but nothing is joined here: one
    join of the whole document keeps a single copy of the text in memory.
    """
    inner = "\n" + " " * (indent + 2)
    empty = True
    for item in items:
        parts.append("[" + inner if empty else "," + inner)
        parts += item
        empty = False
    parts.append("[]" if empty else "\n" + " " * indent + "]")


def _json_floats(template: str, values: tuple) -> str:
    """``template % values``, each ``%.12g`` slot as ``json.dumps(float(format(v, ".12g")))``.

    ``template`` holds no ``.`` or ``e`` outside its slots. A ``.12g`` text
    with a point and no exponent is already the shortest repr of the
    rounded value, so a result with one point per value and no ``e`` took
    one ``%`` operation. Otherwise each of the other texts (integral values,
    ``-0``, and the exponent forms, where ``.12g`` and repr lay out digits
    differently) is written by repr, and a non-finite value raises
    :class:`RenderError`.
    """
    text = template % values
    if text.count(".") == len(values) and "e" not in text:
        return text
    texts = ["%.12g" % v for v in values]
    for k, text in enumerate(texts):
        if "." not in text or "e" in text:
            value = float(text)
            if not math.isfinite(value):
                raise RenderError(f"cannot export the non-finite value {text} as JSON")
            texts[k] = repr(value)
    return template.replace("%.12g", "%s") % tuple(texts)


def _rows(grid: MeasureGrid):
    """Per lattice row: its mask runs and its unmasked c-index values.

    A run is ``(masked, start, stop)`` over a stretch of equal mask flags,
    so a row's format template is built from a few slices of text, and the
    values tuple feeds one ``%`` operation.
    """
    unmasked = ~grid.mask
    values = grid.c_values[unmasked].tolist()
    stops = np.cumsum(unmasked.sum(axis=1)).tolist()
    start = 0
    for mask_row, stop in zip(grid.mask.tolist(), stops):
        runs, column = [], 0
        for masked, run in groupby(mask_row):
            width = len(list(run))
            runs.append((masked, column, column + width))
            column += width
        yield tuple(runs), tuple(values[start:stop])
        start = stop


def grids_to_csv(grids) -> str:
    """CSV export, one row per cell: f, p0, rr, par, c_index, masked.

    Floats carry 12 significant digits; masked cells leave c_index empty.
    No field ever needs quoting: each is a number, empty, or true/false.
    """
    parts = ["f,p0,rr,par,c_index,masked\n"]
    for grid in grids:
        f_text = format(grid.prevalence, ".12g")
        heads = [f"{f_text},{p0:.12g}," for p0 in grid.p0_axis.tolist()]
        axes = zip(grid.rr_axis.tolist(), grid.par_axis.tolist())
        for (rr, par_value), (runs, values) in zip(axes, _rows(grid)):
            middle = f"{rr:.12g},{par_value:.12g},"
            # a masked cell's whole text sits in the template; it takes no value
            tails = (middle + "%.12g,false\n", middle + ",true\n")
            template = "".join(tails[m].join(heads[a:b]) + tails[m] for m, a, b in runs)
            parts.append(template % values)
    return "".join(parts)


def _json_run_array(runs, texts: tuple[str, str]) -> str:
    """A c_values or mask row array: ``texts[masked]`` for each cell of each run."""
    return _json_array(list(chain.from_iterable(repeat(texts[m], b - a) for m, a, b in runs)), 8)


def _grid_json_parts(grid: MeasureGrid) -> list[str]:
    parts = [f'{{\n      "prevalence": {_json_float(grid.prevalence)}']
    for name in ("p0_axis", "rr_axis", "par_axis"):
        values = tuple(getattr(grid, name).tolist())
        text = _json_floats(_json_array(["%.12g"] * len(values), 6), values)
        parts.append(f',\n      "{name}": {text}')
    # (c_values row template, mask row text) per mask pattern: rows without
    # a masked cell share one of each
    templates = {}
    c_rows, mask_rows = [], []
    for runs, values in _rows(grid):
        if runs not in templates:
            templates[runs] = (
                _json_run_array(runs, ("%.12g", "null")),
                _json_run_array(runs, ("false", "true")),
            )
        c_template, mask_text = templates[runs]
        c_rows.append([_json_floats(c_template, values)])
        mask_rows.append([mask_text])
    parts.append(',\n      "c_values": ')
    _extend_json_array(parts, c_rows, 6)
    parts.append(',\n      "mask": ')
    _extend_json_array(parts, mask_rows, 6)
    parts.append("\n    }")
    return parts


def grids_to_json(grids, spec: GridSpec) -> str:
    """Nested JSON export: spec echo plus per-panel axis and value arrays.

    Floats are rounded to 12 significant digits; masked cells are null.
    The layout is that of ``json.dumps(document, indent=2)``, and a
    non-finite value raises :class:`RenderError`, so the text is valid JSON.
    """
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
    _extend_json_array(parts, (_grid_json_parts(grid) for grid in grids), 2)
    parts.append("\n}\n")
    return "".join(parts)
