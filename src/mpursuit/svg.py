"""Minimal static SVG line plots (no external renderer).

Deterministic output: identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
import re

__all__ = ["line_plot"]

_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0 ** e for e in range(int(lo_e), int(hi_e) + 1)
                if lo <= 10.0 ** e <= hi] or [lo, hi]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out or [lo, hi]


def _widened(lo: float, hi: float, log: bool):
    """A degenerate range lo == hi widened by 0.5 each side, or on a log
    axis by a factor of 10 each side, which keeps it positive."""
    if lo != hi:
        return lo, hi
    return (lo / 10.0, hi * 10.0) if log else (lo - 0.5, hi + 0.5)


def line_plot(curves, labels, log_log: bool, title: str, header: str) -> str:
    """Render (x, y) polylines to the text of a static SVG file.

    curves: sequence of (x_array, y_array); log_log puts both axes on a log
    scale and drops nonpositive points.  The labels and the title are
    escaped as XML text; the header goes into a comment, which may not
    hold '--', so a space follows each of its '-' that another follows.
    """
    pts = []
    for xs, ys in curves:
        keep = [(float(x), float(y)) for x, y in zip(xs, ys)
                if (not log_log or x > 0 and y > 0)
                and math.isfinite(float(x)) and math.isfinite(float(y))]
        pts.append(keep)
    allx = [p[0] for c in pts for p in c]
    ally = [p[1] for c in pts for p in c]
    if not allx:
        raise ValueError("nothing to plot")
    x0, x1 = min(allx), max(allx)
    y0, y1 = min(ally), max(ally)
    x0, x1 = _widened(x0, x1, log_log)
    y0, y1 = _widened(y0, y1, log_log)

    def sx(x):
        t = ((math.log10(x) - math.log10(x0)) / (math.log10(x1) - math.log10(x0))
             if log_log else (x - x0) / (x1 - x0))
        return _ML + t * (_W - _ML - _MR)

    def sy(y):
        t = ((math.log10(y) - math.log10(y0)) / (math.log10(y1) - math.log10(y0))
             if log_log else (y - y0) / (y1 - y0))
        return _H - _MB - t * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">']
    parts.append(f"<!-- {re.sub('-(?=-)', '- ', header)} -->")
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>')
    for t in _ticks(x0, x1, log_log):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" font-size="11" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y0, y1, log_log):
        py = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                     f'y2="{py:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{t:g}</text>')
    for i, (curve, label) in enumerate(zip(pts, labels)):
        if not curve:
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in curve)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" '
                     f'x2="{_W - _MR - 95}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 90}" y="{ly}" '
                     f'font-size="12">{label.translate(_XML_TEXT)}</text>')
    if title:
        parts.append(f'<text x="{_ML}" y="{_MT - 5}" '
                     f'font-size="13">{title.translate(_XML_TEXT)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
