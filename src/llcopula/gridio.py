"""CSV ingestion and emission for pair samples and band grids.

Files are comma-separated with dot decimals, an optional header, and a
trailing metadata block of ``# key = value`` comment lines.  Floats are
written with 17 significant digits so grids round-trip bitwise.  Every
output file of the package is written by ``write_csv`` or ``atomic_write``:
a unique temp file in the target directory, then an atomic rename.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bands import BandGrid
from .errors import InputError
from .margins import RawSample

GRID_COLUMNS = ("u", "v", "estimate", "lower", "upper")


@dataclass(frozen=True)
class CsvDiagnostics:
    """What was skipped while parsing a pairs file."""

    blank_lines: int = 0
    comment_lines: int = 0
    header_skipped: bool = False


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        # RFC 4180 quoting, needed only where the text holds a comma or a quote.
        return '"' + x.replace('"', '""') + '"' if "," in x or '"' in x else x
    return format(float(x), ".17g")


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` by temp file and rename; the temp name is
    unique per call, so writers never share it, and it is removed on failure."""
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, header, rows, meta: dict | None = None) -> None:
    """Header, rows, then ``# key = value`` lines.  Cells and metadata values
    alike: floats at 17 significant digits, None empty, strings verbatim,
    except that a row cell holding a comma or a double quote is quoted.
    ``rows`` may be a lazy iterable, so a large table is never held twice."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    for key, value in (meta or {}).items():
        lines.append(f"# {key} = {value if isinstance(value, str) else _cell(value)}")
    atomic_write(path, "\n".join(lines) + "\n")


def _parse_meta_line(line: str) -> tuple[str, str]:
    body = line.lstrip("#").strip()
    key, _, value = body.partition("=")
    return key.strip(), value.strip()


def read_pairs_csv(path: str) -> tuple[RawSample, CsvDiagnostics]:
    """Read two numeric columns; blanks and comments are skipped and counted.

    A non-numeric or non-finite (nan, inf) cell raises ``InputError`` with
    its ``path:line``.
    """
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    xs: list[float] = []
    ys: list[float] = []
    blanks = comments = 0
    header_skipped = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                blanks += 1
                continue
            if line.startswith("#"):
                comments += 1
                continue
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != 2:
                raise InputError(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
            try:
                xs.append(float(cells[0]))
                ys.append(float(cells[1]))
            except ValueError:
                if not xs and not header_skipped:
                    header_skipped = True
                    continue
                raise InputError(f"{path}:{lineno}: non-numeric cell {cells!r}") from None
            if not (math.isfinite(xs[-1]) and math.isfinite(ys[-1])):
                raise InputError(f"{path}:{lineno}: non-finite cell {cells!r}")
    if len(xs) < 2:
        raise InputError(f"{path}: need at least 2 data rows, found {len(xs)}")
    sample = RawSample(x=np.array(xs), y=np.array(ys))
    return sample, CsvDiagnostics(blank_lines=blanks, comment_lines=comments, header_skipped=header_skipped)


def write_pairs_csv(path: str, x, y, meta: dict | None = None) -> None:
    rows = np.column_stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    write_csv(path, ("u", "v"), map(np.ndarray.tolist, rows), meta)


def write_grid_csv(grid: BandGrid, path: str) -> None:
    """Emit a band grid in u-major row order plus the metadata block."""
    uu, vv = np.meshgrid(grid.grid_u, grid.grid_v, indexing="ij")
    rows = np.column_stack([a.ravel() for a in (uu, vv, grid.estimate, grid.lower, grid.upper)])
    meta = {"halfwidth": grid.halfwidth}
    meta.update({k: v for k, v in (grid.meta or {}).items() if k != "halfwidth"})
    write_csv(path, GRID_COLUMNS, map(np.ndarray.tolist, rows), meta)


def read_grid_csv(path: str) -> BandGrid:
    """Parse a band grid file back into an identical BandGrid.

    A non-numeric or non-finite cell or halfwidth raises ``InputError`` at its ``path:line``.
    """
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    rows: list[tuple[float, ...]] = []
    meta: dict[str, str] = {}
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, value = _parse_meta_line(line)
                if not key:
                    raise InputError(f"{path}:{lineno}: malformed metadata line")
                try:
                    finite = key != "halfwidth" or math.isfinite(float(value))
                except ValueError:
                    finite = False
                if not finite:
                    raise InputError(f"{path}:{lineno}: halfwidth must be a finite number, got {value!r}")
                meta[key] = value
                continue
            cells = [c.strip() for c in line.split(",")]
            if not header_seen:
                if tuple(cells) != GRID_COLUMNS:
                    raise InputError(
                        f"{path}:{lineno}: expected header {','.join(GRID_COLUMNS)!r}"
                    )
                header_seen = True
                continue
            if len(cells) != len(GRID_COLUMNS):
                raise InputError(f"{path}:{lineno}: expected {len(GRID_COLUMNS)} columns")
            try:
                rows.append(tuple(float(c) for c in cells))
            except ValueError:
                raise InputError(f"{path}:{lineno}: non-numeric cell {cells!r}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise InputError(f"{path}:{lineno}: non-finite cell {cells!r}")
    if not rows:
        raise InputError(f"{path}: no data rows")
    if "halfwidth" not in meta:
        raise InputError(f"{path}: metadata block is missing the halfwidth entry")
    data = np.array(rows)
    grid_u = np.unique(data[:, 0])
    grid_v = np.unique(data[:, 1])
    if len(rows) != len(grid_u) * len(grid_v):
        raise InputError(f"{path}: rows do not form a complete lattice")
    shape = (len(grid_u), len(grid_v))
    # u-major order is part of the format; verify rather than re-sort.
    expect_u = np.repeat(grid_u, len(grid_v))
    expect_v = np.tile(grid_v, len(grid_u))
    if not (np.array_equal(data[:, 0], expect_u) and np.array_equal(data[:, 1], expect_v)):
        raise InputError(f"{path}: rows are not in u-major lattice order")
    return BandGrid(
        grid_u=grid_u,
        grid_v=grid_v,
        estimate=data[:, 2].reshape(shape),
        lower=data[:, 3].reshape(shape),
        upper=data[:, 4].reshape(shape),
        halfwidth=float(meta["halfwidth"]),
        meta={k: v for k, v in meta.items() if k != "halfwidth"} or None,
    )
