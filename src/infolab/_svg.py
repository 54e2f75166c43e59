"""Minimal hand-rolled SVG line charts.

Just enough to mirror the two reference figures (polylines, reference lines,
point markers, axis ticks); deliberately not a charting library.  Output is
deterministic for fixed input: every coordinate is formatted with a fixed
number of decimals.
"""

from __future__ import annotations

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 44, 56
_TICKS = 5  # per axis, both ends included
_MIDDLE, _END = 'text-anchor="middle" ', 'text-anchor="end" '
_DASHED = 'stroke="gray" stroke-dasharray="6 4"'


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    return f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>'


def _text(x, y, size: int, body, before: str = "", after: str = "") -> str:
    """A text element at preformatted x, y; ``before`` and ``after`` flank its font."""
    font = f'font-family="sans-serif" font-size="{size}"'
    return f'<text x="{x}" y="{y}" {before}{font}{after}>{body}</text>'


def line_chart(
    *,
    title: str,
    x_label: str,
    y_label: str,
    series,
    h_lines=(),
    v_lines=(),
    points=(),
) -> str:
    """Render labelled (label, xs, ys) series as an SVG document string."""
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo = min(float(ys_all.min()), *h_lines, 0.0)
    y_hi = max([float(ys_all.max()), *h_lines])
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    left, right, bottom, top = px(x_lo), px(x_hi), py(y_lo), py(y_hi)
    mid_y = f"{_MARGIN_T + plot_h / 2:.0f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(f"{_WIDTH / 2:.0f}", 24, 16, title, _MIDDLE),
        f'<path d="M {_fmt(left)} {_fmt(bottom)} H {_fmt(right)} M {_fmt(left)} {_fmt(bottom)} '
        f'V {_fmt(top)}" stroke="black" fill="none" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(_line(x, bottom, x, bottom + 5, 'stroke="black"'))
        parts.append(_text(_fmt(x), _fmt(bottom + 20), 11, f"{tick:.3g}", _MIDDLE))
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(_line(left - 5, y, left, y, 'stroke="black"'))
        parts.append(_text(_fmt(left - 9), _fmt(y + 4), 11, f"{tick:.3g}", _END))
    parts.append(_text(f"{_MARGIN_L + plot_w / 2:.0f}", _HEIGHT - 12, 13, x_label, _MIDDLE))
    parts.append(_text(18, mid_y, 13, y_label, _MIDDLE, f' transform="rotate(-90 18 {mid_y})"'))
    parts.extend(_line(left, py(value), right, py(value), _DASHED) for value in h_lines)
    parts.extend(_line(px(value), bottom, px(value), top, _DASHED) for value in v_lines)

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        legend_y = _MARGIN_T + 16 * (idx + 1)
        parts.append(_text(_WIDTH - _MARGIN_R - 8, legend_y, 12, label, _END, f' fill="{color}"'))

    for x, y, label in points:
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.5" fill="black"/>'
        )
        parts.append(_text(_fmt(px(x) + 6), _fmt(py(y) - 6), 11, label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
