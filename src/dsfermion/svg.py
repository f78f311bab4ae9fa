"""Minimal self-contained SVG emission for the run outputs.

Hand-rolled rather than delegated to a plotting library so that output files
are byte-stable across runs and machines (no embedded timestamps, font
metrics or generated ids).  Numbers are formatted with fixed precision.

The heatmap uses a fixed five-anchor approximation of the viridis color map,
linearly interpolated in RGB:
    0.00 -> (68, 1, 84)     0.25 -> (59, 82, 139)    0.50 -> (33, 145, 140)
    0.75 -> (94, 201, 98)   1.00 -> (253, 231, 37)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FLAT_RANGE_TOL, FLAT_X_HALF_WIDTH, FLAT_Y_SPAN, TICK_END_TOL

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 48
MARGIN_BOTTOM = 56

LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

# The five viridis anchors of the module docstring: values and RGB colors.
_VIRIDIS_STOPS = np.array((0.00, 0.25, 0.50, 0.75, 1.00))
_VIRIDIS_RGB = np.array(
    ((68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)), dtype=np.float64
)


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_labels(values: list[float]) -> list[str]:
    """Labels of one axis's ``values`` with the fewest significant digits from 4
    up that tell them apart: each reads back nearer its value than to any other."""
    gap = min((abs(b - a) for a, b in zip(values, values[1:])), default=math.inf)
    for digits in range(4, 18):
        labels = [f"{v:.{digits}g}" for v in values]
        if all(abs(float(label) - v) < gap / 2 for label, v in zip(labels, values)):
            break
    return labels


def viridis(values: np.ndarray) -> list[str]:
    """Hex colors of the finite ``values`` from the fixed anchor gradient, in
    row-major order: each value v is clipped to [0, 1], placed between the
    first anchor v1 with v <= v1 and the anchor v0 before it, and each channel
    c0 + f (c1 - c0), f = (v - v0) / (v1 - v0), is rounded half to even."""
    v = np.clip(values, 0.0, 1.0).ravel()
    upper = np.searchsorted(_VIRIDIS_STOPS[1:], v) + 1
    v0, v1 = _VIRIDIS_STOPS[upper - 1], _VIRIDIS_STOPS[upper]
    c0, c1 = _VIRIDIS_RGB[upper - 1], _VIRIDIS_RGB[upper]
    rgb = np.rint(c0 + ((v - v0) / (v1 - v0))[:, None] * (c1 - c0)).astype(np.int64)
    return ["#%06x" % code for code in (rgb @ (1 << 16, 1 << 8, 1)).tolist()]


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round tick values in [lo, hi], for lo < hi.  Each is a
    multiple of the step mult * 10^e, so rounding it to max(12, 1 - e)
    decimals drops the running sum's error and keeps the ticks distinct."""
    raw = (hi - lo) / 5
    exponent = math.floor(math.log10(raw)) if raw > 0 else 0
    mag = 10 ** exponent
    step = next((mult * mag for mult in (1, 2, 2.5, 5, 10) if 0 < raw <= mult * mag), None)
    if step is None:  # raw or 10^e underflows to 0: no round step exists
        return [lo, hi]
    ticks, value = [], math.ceil(lo / step) * step
    while value <= hi + TICK_END_TOL * abs(step):
        ticks.append(round(value, max(12, 1 - exponent)))
        value += step
    return ticks


@dataclass
class Series:
    label: str
    xs: list[float]
    ys: list[float]
    yerr: list[float] | np.ndarray | None = None  # None or empty: no error bars


def _text(x, y, content, size=12, anchor="middle", rotate=False) -> str:
    transform = f' transform="rotate(-90 {_fmt(x)} {_fmt(y)})"' if rotate else ""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}"{transform}>{content}</text>'
    )


def _render(parts: list[str], meta: str | None) -> str:
    """The SVG document of the elements ``parts``, with ``meta`` as a comment."""
    body = "\n".join(parts)
    comment = ""
    if meta:
        # XML comments must not contain "--".
        comment = f"<!-- {meta.replace('--', '=')} -->\n"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f"{comment}"
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _frame(parts: list[str], title: str, xlabel: str, ylabel: str) -> None:
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.extend((
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        _text(WIDTH / 2, MARGIN_TOP - 20, title, size=15),
        _text(WIDTH / 2, HEIGHT - 14, xlabel),
        _text(20, HEIGHT / 2, ylabel, rotate=True),
    ))


def _scales(xlo, xhi, ylo, yhi):
    """Pixel maps of the plot area for the ranges xlo < xhi and ylo < yhi."""

    def sx(x):
        return MARGIN_LEFT + (x - xlo) / (xhi - xlo) * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def sy(y):
        return (HEIGHT - MARGIN_BOTTOM) - (y - ylo) / (yhi - ylo) * (
            HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
        )

    return sx, sy


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf without a warning, as in Python
def line_chart(
    title: str, xlabel: str, ylabel: str, series: list[Series], meta: str | None = None
) -> str:
    """A line chart with optional per-point error bars; axes auto-scale.  Points
    go to pixels by _scales' maps on arrays: a lone point's bits."""
    arrays = []  # per series: xs, the rows ys and error-bar ends, and where a bar is drawn
    for s in series:
        ys = np.array(s.ys)
        err = np.zeros(len(ys)) if s.yerr is None or len(s.yerr) == 0 else np.array(s.yerr)
        arrays.append((np.array(s.xs), np.array([ys, ys - err, ys + err]), err > 0))
    xs_all = np.concatenate([xs for xs, _, _ in arrays])
    ends_all = np.concatenate([ends for _, ends, _ in arrays], axis=1)
    xlo, xhi = float(xs_all.min()), float(xs_all.max())
    if xhi - xlo <= FLAT_RANGE_TOL * max(abs(xlo), abs(xhi)):  # flat: centre the points
        half = max(abs(xlo), 1.0) * FLAT_X_HALF_WIDTH
        xlo, xhi = xlo - half, xhi + half
    ylo, yhi = float(ends_all[1].min()), float(ends_all[2].max())
    span = yhi - ylo
    if span <= FLAT_RANGE_TOL * max(abs(ylo), abs(yhi)):  # flat: ticks need room
        span = max(abs(ylo), 1.0) * FLAT_Y_SPAN
    ylo, yhi = ylo - 0.05 * span, yhi + 0.05 * span

    parts = []
    sx, sy = _scales(xlo, xhi, ylo, yhi)
    xticks, yticks = _nice_ticks(xlo, xhi), _nice_ticks(ylo, yhi)
    for tick, label in zip(xticks, _tick_labels(xticks)):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_BOTTOM}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM + 5}" stroke="black"/>'
        )
        parts.append(_text(px, HEIGHT - MARGIN_BOTTOM + 20, label, size=11))
    for tick, label in zip(yticks, _tick_labels(yticks)):
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(_text(MARGIN_LEFT - 9, py + 4, label, size=11, anchor="end"))

    for idx, (s, (xs, ends, bars)) in enumerate(zip(series, arrays)):
        color = LINE_COLORS[idx % len(LINE_COLORS)]
        px, (py, lo, hi) = sx(xs), sy(ends)
        cells = np.array([px, py, px, lo, px, hi]).T
        points = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(cells[:, :2].ravel().tolist())
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        # Each point's circle, then its error bar where the error is positive.
        circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>'
        bar = f'\n<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="{color}" stroke-width="1"/>'
        drawn = np.array([bars | True] * 2 + [bars] * 4).T
        marks = "\n".join([circle + bar if b else circle for b in bars.tolist()])
        parts += [marks % tuple(cells[drawn].tolist())] if len(xs) else []
        parts.extend((
            _text(WIDTH - MARGIN_RIGHT - 8, MARGIN_TOP + 16 + 16 * idx, s.label, 11, "end"),
            f'<line x1="{WIDTH - MARGIN_RIGHT - 90}" y1="{MARGIN_TOP + 12 + 16 * idx}" '
            f'x2="{WIDTH - MARGIN_RIGHT - 70}" y2="{MARGIN_TOP + 12 + 16 * idx}" '
            f'stroke="{color}" stroke-width="2"/>',
        ))
    _frame(parts, title, xlabel, ylabel)
    return _render(parts, meta)


def heatmap(
    title: str,
    xlabel: str,
    ylabel: str,
    xs: list[float],
    ys: list[float],
    values: list[list[float]],
    meta: str | None = None,
) -> str:
    """Heatmap of values[i][j] at (xs[i], ys[j]); color range auto-scales."""
    grid = np.array(values, dtype=np.float64)
    vlo, vhi = float(grid.min()), float(grid.max())
    if vhi <= vlo:
        vhi = vlo + 1.0

    parts = []
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT - 60  # leave room for the color bar
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cell_w = plot_w / len(xs)
    cell_h = plot_h / len(ys)
    columns = [_fmt(MARGIN_LEFT + i * cell_w) for i in range(len(xs))]
    rows = [_fmt(HEIGHT - MARGIN_BOTTOM - (j + 1) * cell_h) for j in range(len(ys))]
    size = f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}"'
    cells = ((px, py) for px in columns for py in rows)
    parts.extend(
        f'<rect x="{px}" y="{py}" {size} fill="{fill}"/>'
        for (px, py), fill in zip(cells, viridis((grid - vlo) / (vhi - vlo)))
    )
    # Axis labels at cell centers (sparse if many).
    x_stride = max(1, len(xs) // 8)
    for i, label in zip(range(0, len(xs), x_stride), _tick_labels(xs[::x_stride])):
        px = MARGIN_LEFT + (i + 0.5) * cell_w
        parts.append(_text(px, HEIGHT - MARGIN_BOTTOM + 20, label, size=11))
    for j, label in enumerate(_tick_labels(ys)):
        py = HEIGHT - MARGIN_BOTTOM - (j + 0.5) * cell_h
        parts.append(_text(MARGIN_LEFT - 9, py + 4, label, size=11, anchor="end"))

    # Color bar.
    bar_x = MARGIN_LEFT + plot_w + 16
    bar_steps = 32
    bar_size = f'width="16" height="{_fmt(plot_h / bar_steps + 0.5)}"'
    for k, fill in enumerate(viridis(np.arange(bar_steps) / (bar_steps - 1))):
        py = HEIGHT - MARGIN_BOTTOM - (k + 1) * plot_h / bar_steps
        parts.append(f'<rect x="{bar_x}" y="{_fmt(py)}" {bar_size} fill="{fill}"/>')
    low, high = _tick_labels([vlo, vhi])
    parts.extend((
        _text(bar_x + 8, HEIGHT - MARGIN_BOTTOM + 16, low, size=10),
        _text(bar_x + 8, MARGIN_TOP - 6, high, size=10),
        _text(WIDTH / 2, MARGIN_TOP - 20, title, size=15),
        _text(MARGIN_LEFT + plot_w / 2, HEIGHT - 14, xlabel),
        _text(20, HEIGHT / 2, ylabel, rotate=True),
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{_fmt(plot_w)}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ))
    return _render(parts, meta)
