"""Minimal self-contained SVG line charts.

One static file per chart: axes, ticks, labels, legend and one polyline
per series, no scripts, no external fonts or resources. Enough for the
case-study figures without pulling in a plotting stack.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

__all__ = ["render_line_chart"]

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f1932d", "#882e72", "#555555")
_FONT = "font-family=\"sans-serif\""
_WIDTH, _HEIGHT = 760, 480


def _nice_ticks(low: float, high: float, target: int = 6) -> list[float]:
    """Round tick positions covering [low, high] at a 1/2/5 step."""
    if not math.isfinite(low) or not math.isfinite(high):
        return [0.0]
    if high <= low:
        return [low]
    raw = (high - low) / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for factor in (1.0, 2.0, 5.0, 10.0):
        step = factor * magnitude
        if step >= raw:
            break
    first = math.ceil(low / step) * step
    ticks = []
    value = first
    while value <= high + 1e-9 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_line_chart(series, title: str, x_label: str, y_label: str,
                      x_log2: bool = False) -> str:
    """Render `series` (an iterable of (label, xs, ys)) as a complete SVG
    document string. With `x_log2`, the x axis is log-scaled base 2 and
    ticks sit on powers of two."""
    series = [(str(label), [float(x) for x in xs], [float(y) for y in ys])
              for label, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("each series needs equally sized, non-empty xs/ys")

    def x_scale(value: float) -> float:
        return math.log2(value) if x_log2 else value

    all_x = [x_scale(x) for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    left, right, top, bottom = 72, 24, 40, 56
    plot_w, plot_h = _WIDTH - left - right, _HEIGHT - top - bottom

    def px(value: float) -> float:
        return left + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        return top + (y_hi - value) / (y_hi - y_lo) * plot_h

    if x_log2:
        x_ticks = [(2.0 ** k, _fmt(2.0 ** k))
                   for k in range(math.ceil(x_lo - 1e-9),
                                  math.floor(x_hi + 1e-9) + 1)]
        x_positions = [(px(math.log2(v)), label) for v, label in x_ticks]
    else:
        x_positions = [(px(v), _fmt(v)) for v in _nice_ticks(x_lo, x_hi)]
    y_ticks = _nice_ticks(y_lo, y_hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15" {_FONT}>{escape(title)}</text>',
    ]
    # axes
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{top + plot_h}" stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{top + plot_h}" '
                 f'x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>')
    for x_px, label in x_positions:
        parts.append(f'<line x1="{x_px:.1f}" y1="{top + plot_h}" '
                     f'x2="{x_px:.1f}" y2="{top + plot_h + 5}" stroke="black"/>')
        parts.append(f'<text x="{x_px:.1f}" y="{top + plot_h + 19}" '
                     f'text-anchor="middle" font-size="11" {_FONT}>'
                     f'{escape(label)}</text>')
    for tick in y_ticks:
        y_px = py(tick)
        parts.append(f'<line x1="{left - 5}" y1="{y_px:.1f}" x2="{left}" '
                     f'y2="{y_px:.1f}" stroke="black"/>')
        parts.append(f'<line x1="{left}" y1="{y_px:.1f}" '
                     f'x2="{left + plot_w}" y2="{y_px:.1f}" '
                     f'stroke="#dddddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{left - 8}" y="{y_px + 4:.1f}" '
                     f'text-anchor="end" font-size="11" {_FONT}>'
                     f'{escape(_fmt(tick))}</text>')
    parts.append(f'<text x="{left + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
                 f'text-anchor="middle" font-size="12" {_FONT}>'
                 f'{escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-size="12" {_FONT} '
                 f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">'
                 f'{escape(y_label)}</text>')
    # series
    for index, (label, xs, ys) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{px(x_scale(x)):.2f},{py(y):.2f}"
                          for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
    # legend
    legend_x = left + plot_w - 170
    legend_y = top + 10
    parts.append(f'<rect x="{legend_x - 8}" y="{legend_y - 14}" width="178" '
                 f'height="{18 * len(series) + 10}" fill="white" '
                 f'stroke="#999999"/>')
    for index, (label, _, _) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        y_px = legend_y + 18 * index
        parts.append(f'<line x1="{legend_x}" y1="{y_px:.1f}" '
                     f'x2="{legend_x + 24}" y2="{y_px:.1f}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{legend_x + 30}" y="{y_px + 4:.1f}" '
                     f'font-size="11" {_FONT}>{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
