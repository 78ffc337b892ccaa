"""Minimal SVG chart emission: line, histogram, and box-summary primitives.

Charts are plain standalone SVG with the plotted series embedded as JSON in a
<metadata> element, so every figure can be audited against its data without
re-running anything.  No plotting library is used; output is deterministic.
"""

from __future__ import annotations

import json
import math

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Ticks on [lo, hi] at the smallest round step that crosses the span in
    at most six steps."""
    span = hi - lo
    if span <= 0:
        return [lo]
    mag = 10 ** math.floor(math.log10(span / 6))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * mag
        if span / step <= 6:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks


class _Frame:
    """Data-to-pixel mapping plus axes/labels for one chart."""

    def __init__(self, xlo, xhi, ylo, yhi, title, xlabel, ylabel):
        if xhi <= xlo:
            xhi = xlo + 1.0
        if yhi <= ylo:
            yhi = ylo + 1.0
        pad = 0.05 * (yhi - ylo)
        self.xlo, self.xhi = xlo, xhi
        self.ylo, self.yhi = ylo - pad, yhi + pad
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel

    def px(self, x):
        frac = (x - self.xlo) / (self.xhi - self.xlo)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        frac = (y - self.ylo) / (self.yhi - self.ylo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def chrome(self) -> list[str]:
        parts = [
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
            f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
            f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
            'fill="none" stroke="#333" stroke-width="1"/>',
            f'<text x="{WIDTH / 2}" y="{MARGIN_T - 14}" text-anchor="middle" '
            f'font-size="15">{self.title}</text>',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-size="13">{self.xlabel}</text>',
            f'<text x="18" y="{HEIGHT / 2}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 18 {HEIGHT / 2})">{self.ylabel}</text>',
        ]
        y0 = HEIGHT - MARGIN_B
        for t in _nice_ticks(self.xlo, self.xhi):
            x = self.px(t)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 5}" '
                'stroke="#333"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{y0 + 20}" text-anchor="middle" '
                f'font-size="11">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(self.ylo, self.yhi):
            y = self.py(t)
            parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
                f'y2="{_fmt(y)}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                f'font-size="11">{_fmt(t)}</text>'
            )
        return parts


def _document(frame: _Frame, body: list[str], data: dict) -> str:
    meta = json.dumps(data, sort_keys=True)
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
        'font-family="sans-serif">',
        f"<metadata>{meta}</metadata>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + frame.chrome() + body + ["</svg>"]) + "\n"


def _line(frame: _Frame, line, color: str, width: str) -> tuple[list[str], dict]:
    """A (label, xs, ys) line as a polyline labelled at the top right, and
    as metadata."""
    label, xs, ys = line
    pts = " ".join(
        f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in zip(xs, ys)
    )
    svg = [
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"/>',
        f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 18}" '
        f'text-anchor="end" font-size="12" fill="{color}">{label}</text>',
    ]
    return svg, {"label": label, "x": list(map(float, xs)),
                 "y": list(map(float, ys))}


def line_chart(line, title, xlabel, ylabel) -> str:
    """line: (label, xs, ys) drawn as a polyline."""
    _, xs, ys = line
    frame = _Frame(min(xs), max(xs), min(0.0, min(ys)), max(ys),
                   title, xlabel, ylabel)
    body, series = _line(frame, line, "#1965b0", "1.6")
    return _document(frame, body, {"type": "line", "series": [series]})


def histogram_chart(edges, densities, overlay, title, xlabel) -> str:
    """Bars from bin edges/densities, with a (label, xs, ys) overlay line."""
    frame = _Frame(edges[0], edges[-1], 0.0, max(max(densities), max(overlay[2])),
                   title, xlabel, "density")
    body = []
    for j, d in enumerate(densities):
        x0, x1 = frame.px(edges[j]), frame.px(edges[j + 1])
        y = frame.py(d)
        h = frame.py(0.0) - y
        body.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(h)}" fill="#a5c8e1" stroke="#1965b0" '
            'stroke-width="0.5"/>'
        )
    line, overlay_data = _line(frame, overlay, "#dc050c", "1.8")
    data = {
        "type": "histogram",
        "edges": list(map(float, edges)),
        "density": list(map(float, densities)),
        "overlay": overlay_data,
    }
    return _document(frame, body + line, data)


def box_chart(groups, reference, title, ylabel) -> str:
    """groups: list of (label, {lo, q1, median, q3, hi}) box summaries, with
    a horizontal dashed line at y = ``reference``."""
    ylo = min(min(g[1]["lo"] for g in groups), reference)
    yhi = max(max(g[1]["hi"] for g in groups), reference)
    frame = _Frame(0.0, float(len(groups)), ylo, yhi, title, "", ylabel)
    body = []
    for i, (label, q) in enumerate(groups):
        cx = frame.px(i + 0.5)
        half = 0.3 * (frame.px(1) - frame.px(0))
        for lo_key, hi_key in (("lo", "q1"), ("q3", "hi")):
            body.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(frame.py(q[lo_key]))}" '
                f'x2="{_fmt(cx)}" y2="{_fmt(frame.py(q[hi_key]))}" '
                'stroke="#333"/>'
            )
        top, bot = frame.py(q["q3"]), frame.py(q["q1"])
        body.append(
            f'<rect x="{_fmt(cx - half)}" y="{_fmt(top)}" '
            f'width="{_fmt(2 * half)}" height="{_fmt(bot - top)}" '
            'fill="#a5c8e1" stroke="#1965b0"/>'
        )
        med = frame.py(q["median"])
        body.append(
            f'<line x1="{_fmt(cx - half)}" y1="{_fmt(med)}" '
            f'x2="{_fmt(cx + half)}" y2="{_fmt(med)}" '
            'stroke="#dc050c" stroke-width="2"/>'
        )
        body.append(
            f'<text x="{_fmt(cx)}" y="{HEIGHT - MARGIN_B + 34}" '
            f'text-anchor="middle" font-size="11">{label}</text>'
        )
    y = frame.py(reference)
    body.append(
        f'<line x1="{MARGIN_L}" y1="{_fmt(y)}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{_fmt(y)}" stroke="#4eb265" stroke-dasharray="6 4"/>'
    )
    data = {
        "type": "box",
        "groups": [
            {"label": lab, **{k: float(v) for k, v in q.items()}}
            for lab, q in groups
        ],
        "reference": reference,
    }
    return _document(frame, body, data)
