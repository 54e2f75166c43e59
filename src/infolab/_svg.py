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


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


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
    y_lo = min(float(ys_all.min()), *(list(h_lines) or [float(ys_all.min())]), 0.0)
    y_hi = max(float(ys_all.max()), *(list(h_lines) or [float(ys_all.max())]))
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    frame = (
        f'M {_fmt(px(x_lo))} {_fmt(py(y_lo))} H {_fmt(px(x_hi))} '
        f'M {_fmt(px(x_lo))} {_fmt(py(y_lo))} V {_fmt(py(y_hi))}'
    )
    parts.append(f'<path d="{frame}" stroke="black" fill="none" stroke-width="1"/>')

    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(py(y_lo))}" x2="{_fmt(x)}" '
            f'y2="{_fmt(py(y_lo) + 5)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(py(y_lo) + 20)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_fmt(px(x_lo) - 5)}" y1="{_fmt(y)}" x2="{_fmt(px(x_lo))}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(x_lo) - 9)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">{y_label}</text>'
    )

    for value in h_lines:
        y = py(value)
        parts.append(
            f'<line x1="{_fmt(px(x_lo))}" y1="{_fmt(y)}" x2="{_fmt(px(x_hi))}" '
            f'y2="{_fmt(y)}" stroke="gray" stroke-dasharray="6 4"/>'
        )
    for value in v_lines:
        x = px(value)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(py(y_lo))}" x2="{_fmt(x)}" '
            f'y2="{_fmt(py(y_hi))}" stroke="gray" stroke-dasharray="6 4"/>'
        )

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(
            f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 8}" y="{_MARGIN_T + 16 * (idx + 1)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{label}</text>'
        )

    for x, y, label in points:
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3.5" fill="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(x) + 6)}" y="{_fmt(py(y) - 6)}" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
