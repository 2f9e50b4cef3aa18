"""Minimal dependency-free SVG line charts.

One polyline per series, linear axes with tick labels, and a legend.  Output
is a complete standalone SVG document; write_svg saves it to disk.
"""

from __future__ import annotations

import math

__all__ = ["line_plot", "write_svg"]

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 46


def escape(text: str) -> str:  # XML entities for &, < and >, & first
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round tick positions covering [lo, hi], lo < hi."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:.4g}"


def line_plot(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render ``series`` — a list of (label, xs, ys) triples — as an SVG chart.

    Every series becomes a single polyline; colors cycle through a fixed
    palette.  Returns the SVG document as a string.
    """
    if not series:
        raise ValueError("need at least one series to plot")
    cleaned = []
    for label, xs, ys in series:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: {len(xs)} xs vs {len(ys)} ys")
        if not xs:
            raise ValueError(f"series {label!r} is empty")
        if any(not math.isfinite(v) for v in xs + ys):
            raise ValueError(f"series {label!r} contains non-finite values")
        cleaned.append((str(label), xs, ys))

    x_lo = min(min(xs) for _, xs, _ in cleaned)
    x_hi = max(max(xs) for _, xs, _ in cleaned)
    y_lo = min(min(ys) for _, _, ys in cleaned)
    y_hi = max(max(ys) for _, _, ys in cleaned)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi, y_lo = y_lo + 0.5, y_lo - 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )
    for tv in _ticks(x_lo, x_hi):
        if not x_lo <= tv <= x_hi:
            continue
        x = px(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{_MT + ph}" x2="{x:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MT + ph + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{escape(_fmt(tv))}</text>')
    for tv in _ticks(y_lo, y_hi):
        if not y_lo <= tv <= y_hi:
            continue
        y = py(tv)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                     'stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{escape(_fmt(tv))}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>')
    if ylabel:
        yc = _MT + ph / 2
        parts.append(f'<text x="16" y="{yc:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {yc:.1f})">{escape(ylabel)}</text>')

    for k, (label, xs, ys) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        ly = _MT + 14 + 16 * k
        lx = _ML + pw - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
