"""Minimal SVG 1.1 line plots, no plotting dependency."""

from .textio import write_text_atomic

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_W, _H = 800, 500
_ML, _MR, _MT, _MB = 70, 150, 30, 50


def write_timeseries_svg(series, path, title="per-ion <sigma_z>"):
    """One polyline per ion of <sigma_z>(t), fixed [-1, 1] y-axis."""
    times_us = series.times * 1e6
    t0, t1 = float(times_us[0]), float(times_us[-1])
    if t1 == t0:
        t1 = t0 + 1.0
    y0, y1 = -1.05, 1.05

    def sx(t):
        return _ML + (t - t0) / (t1 - t0) * (_W - _ML - _MR)

    def sy(y):
        return _MT + (y1 - y) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="20" font-size="14">{title}</text>',
    ]
    # axes box and reference lines
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    for yv in (-1.0, -0.5, 0.0, 0.5, 1.0):
        yy = sy(yv)
        parts.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_W - _MR}" y2="{yy:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{yy + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tv = t0 + frac * (t1 - t0)
        xx = sx(tv)
        parts.append(
            f'<text x="{xx:.2f}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle">{tv:.0f}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" font-size="12" '
        f'text-anchor="middle">time (us)</text>'
    )

    n = series.sigma_z.shape[1]
    for i in range(n):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{sx(times_us[k]):.2f},{sy(series.sigma_z[k, i]):.2f}"
            for k in range(times_us.size)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"/>'
        )
        if i < 24:  # legend gets unwieldy past that
            ly = _MT + 14 * (i + 1)
            parts.append(
                f'<line x1="{_W - _MR + 10}" y1="{ly}" x2="{_W - _MR + 30}" '
                f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_W - _MR + 35}" y="{ly + 4}" font-size="11">'
                f"ion {i + 1}</text>"
            )
    parts.append("</svg>")

    write_text_atomic(path, "\n".join(parts) + "\n")
