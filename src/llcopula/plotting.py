"""Static SVG rendering of a band grid.

Left panel: heatmap of the estimate, one polygon per grid cell.  Right
panel: the diagonal transect with the lower/upper envelope and optional
parametric overlays for visual family selection.  Output is plain string
assembly with fixed float formatting, so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import numpy as np

from .bands import BandGrid
from .errors import ConfigError
from .families import CopulaModel, cdf
from .gridio import atomic_write

_W, _H = 920, 470
_HEAT = (50, 30, 400, 400)  # x, y, width, height
_LINE = (520, 30, 360, 400)
_OVERLAY_COLORS = ("#d62728", "#2ca02c", "#ff7f0e")

_LOW_RGB = (247, 251, 255)
_HIGH_RGB = (8, 48, 107)


def _fmt(x: float) -> str:
    return format(float(x), ".3f")


def _heat_color(value: float) -> str:
    t = min(max(float(value), 0.0), 1.0)
    rgb = tuple(round(lo + t * (hi - lo)) for lo, hi in zip(_LOW_RGB, _HIGH_RGB))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _heatmap_polygons(grid: BandGrid) -> list[str]:
    x0, y0, w, h = _HEAT
    gu, gv = grid.grid_u, grid.grid_v
    px = x0 + w * gu
    py = y0 + h * (1.0 - gv)
    cells = []
    for i in range(len(gu) - 1):
        for j in range(len(gv) - 1):
            corners = (
                (px[i], py[j]),
                (px[i + 1], py[j]),
                (px[i + 1], py[j + 1]),
                (px[i], py[j + 1]),
            )
            value = 0.25 * (
                grid.estimate[i, j]
                + grid.estimate[i + 1, j]
                + grid.estimate[i, j + 1]
                + grid.estimate[i + 1, j + 1]
            )
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
            cells.append(f'<polygon points="{pts}" fill="{_heat_color(value)}" stroke="none"/>')
    return cells


def _polyline(ts, values, vmin, vspan, color, width="2", dash=None):
    x0, y0, w, h = _LINE
    pts = " ".join(
        f"{_fmt(x0 + w * t)},{_fmt(y0 + h * (1.0 - (val - vmin) / vspan))}"
        for t, val in zip(ts, values)
    )
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{extra}/>'


def render_surface_svg(grid: BandGrid, path: str, overlays=()) -> None:
    """Write the heatmap + diagonal-transect figure for a band grid.

    ``overlays`` holds up to three parametric models whose diagonal sections
    are drawn inside the band envelope and labeled.
    """
    overlays = tuple(overlays)
    if len(overlays) > 3:
        raise ConfigError("at most 3 overlays are supported")
    for model in overlays:
        if not isinstance(model, CopulaModel):
            raise ConfigError("overlays must be copula models")

    k = min(len(grid.grid_u), len(grid.grid_v))
    ts = grid.grid_u[:k]
    idx = np.arange(k)
    diag_est = grid.estimate[idx, idx]
    diag_lo = grid.lower[idx, idx]
    diag_hi = grid.upper[idx, idx]
    vmin = float(min(diag_lo.min(), 0.0)) - 0.05
    vmax = float(max(diag_hi.max(), 1.0)) + 0.05
    vspan = vmax - vmin

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    parts.extend(_heatmap_polygons(grid))
    x0, y0, w, h = _HEAT
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="black"/>'
    )
    parts.append(f'<text x="{x0 + w // 2}" y="{y0 + h + 28}" font-size="13">u</text>')
    parts.append(f'<text x="{x0 - 20}" y="{y0 + h // 2}" font-size="13">v</text>')
    parts.append(
        f'<text x="{x0}" y="{y0 - 10}" font-size="13">copula estimate heatmap</text>'
    )

    lx, ly, lw, lh = _LINE
    parts.append(f'<rect x="{lx}" y="{ly}" width="{lw}" height="{lh}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{lx}" y="{ly - 10}" font-size="13">diagonal section u = v with band</text>')
    parts.append(_polyline(ts, diag_hi, vmin, vspan, "#9ecae1"))
    parts.append(_polyline(ts, diag_lo, vmin, vspan, "#9ecae1"))
    parts.append(_polyline(ts, diag_est, vmin, vspan, "black"))
    parts.append(
        f'<text x="{lx + 8}" y="{ly + 16}" font-size="12" fill="black">estimate</text>'
    )
    parts.append(
        f'<text x="{lx + 8}" y="{ly + 32}" font-size="12" fill="#9ecae1">band bounds</text>'
    )
    for pos, model in enumerate(overlays):
        color = _OVERLAY_COLORS[pos]
        curve = cdf(model, ts, ts)
        parts.append(_polyline(ts, curve, vmin, vspan, color, dash="6,3"))
        parts.append(
            f'<text x="{lx + 8}" y="{ly + 48 + 16 * pos}" font-size="12" '
            f'fill="{color}">{model.label()}</text>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")
