"""Static SVG rendering of a band grid.

Left panel: heatmap of the estimate, one polygon per grid cell.  Right
panel: the diagonal transect, through the nodes that both axes hold, with the
lower/upper envelope and optional parametric overlays for visual family
selection.  Output is string templates filled from array rows with fixed float
formatting, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .bands import BandGrid
from .errors import ConfigError, InputError
from .families import CopulaModel, cdf
from .gridio import atomic_write, format_rows

_W, _H = 920, 470
_HEAT = (50, 30, 400, 400)  # x, y, width, height
_LINE = (520, 30, 360, 400)
_OVERLAY_COLORS = ("#d62728", "#2ca02c", "#ff7f0e")

_LOW_RGB = np.array((247, 251, 255))
_HIGH_RGB = np.array((8, 48, 107))


def _heatmap_polygons(grid: BandGrid) -> list[str]:
    """One polygon per lattice cell, u-major, filled by the clamped mean of its
    four corners on the white-to-blue ramp, rounded half to even.  Each node's
    x and y is formatted once, and the cells are filled from those strings."""
    x0, y0, w, h = _HEAT
    xs = np.array(["%.3f" % x for x in (x0 + w * grid.grid_u).tolist()], dtype=object)
    ys = np.array(["%.3f" % y for y in (y0 + h * (1.0 - grid.grid_v)).tolist()], dtype=object)
    z = grid.values
    t = np.clip(0.25 * (z[:-1, :-1] + z[1:, :-1] + z[:-1, 1:] + z[1:, 1:]), 0.0, 1.0)
    rgb = np.rint(_LOW_RGB + t[..., None] * (_HIGH_RGB - _LOW_RGB))
    left, top = np.meshgrid(xs[:-1], ys[:-1], indexing="ij")
    right, bottom = np.meshgrid(xs[1:], ys[1:], indexing="ij")
    corners = np.stack([left, top, right, top, right, bottom, left, bottom], axis=-1)
    table = np.concatenate([corners, rgb], axis=-1).reshape(-1, 11)
    return format_rows('<polygon points="%s,%s %s,%s %s,%s %s,%s" '
                       'fill="rgb(%d,%d,%d)" stroke="none"/>', table)


def _polyline(ts, values, vmin, vspan, color, dash=None):
    x0, y0, w, h = _LINE
    pts = np.column_stack([x0 + w * ts, y0 + h * (1.0 - (values - vmin) / vspan)])
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{" ".join(format_rows("%.3f,%.3f", pts, " "))}" '
            f'fill="none" stroke="{color}" stroke-width="2"{extra}/>')


def render_surface_svg(grid: BandGrid, path: str, overlays=()) -> None:
    """Write the heatmap + diagonal-transect figure for a band grid.

    ``overlays`` holds up to three parametric models whose diagonal sections
    are drawn inside the band envelope and labeled.  The section runs through
    the nodes that both axes hold; axes that share none raise ``InputError``.
    """
    overlays = tuple(overlays)
    if len(overlays) > 3:
        raise ConfigError("at most 3 overlays are supported")
    for model in overlays:
        if not isinstance(model, CopulaModel):
            raise ConfigError("overlays must be copula models")

    ts, iu, iv = np.intersect1d(grid.grid_u, grid.grid_v, return_indices=True)
    if not len(ts):
        raise InputError("the grid's u and v axes share no node, so it has no u = v section")
    diag_est, diag_lo, diag_hi = grid.values[iu, iv], grid.lower[iu, iv], grid.upper[iu, iv]
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
    parts.append(f'<rect x="{x0}" y="{y0}" width="{w}" height="{h}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{x0 + w // 2}" y="{y0 + h + 28}" font-size="13">u</text>')
    parts.append(f'<text x="{x0 - 20}" y="{y0 + h // 2}" font-size="13">v</text>')
    parts.append(f'<text x="{x0}" y="{y0 - 10}" font-size="13">copula estimate heatmap</text>')

    lx, ly, lw, lh = _LINE
    parts.append(f'<rect x="{lx}" y="{ly}" width="{lw}" height="{lh}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{lx}" y="{ly - 10}" font-size="13">diagonal section u = v with band</text>')
    parts.append(_polyline(ts, diag_hi, vmin, vspan, "#9ecae1"))
    parts.append(_polyline(ts, diag_lo, vmin, vspan, "#9ecae1"))
    parts.append(_polyline(ts, diag_est, vmin, vspan, "black"))
    parts.append(f'<text x="{lx + 8}" y="{ly + 16}" font-size="12" fill="black">estimate</text>')
    parts.append(f'<text x="{lx + 8}" y="{ly + 32}" font-size="12" fill="#9ecae1">band bounds</text>')
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
