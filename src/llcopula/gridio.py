"""CSV ingestion and emission for pair samples and band grids.

Files are comma-separated with dot decimals, an optional header, and a
trailing metadata block of ``# key = value`` comment lines.  Floats are
written with 17 significant digits so grids round-trip bitwise.  One writer
and one reader share that format: ``write_csv`` or ``atomic_write`` (a unique
temp file in the target directory, then an atomic rename) writes every output
file, and both file readers are format checks over ``_read_csv``, its inverse.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bands import BandGrid
from .errors import ConfigError, InputError
from .margins import RawSample

GRID_COLUMNS = ("u", "v", "estimate", "lower", "upper")


@dataclass(frozen=True)
class CsvDiagnostics:
    """What was skipped while parsing a pairs file."""

    blank_lines: int = 0
    comment_lines: int = 0
    header_skipped: bool = False


def _one_line(text: str) -> str:
    # The reader splits lines at "\n" after universal newlines, so a line
    # break in a value would start a new row or metadata entry.
    if "\n" in text or "\r" in text:
        raise ConfigError(f"cannot write a line break into a CSV cell or metadata entry: {text!r}")
    return text


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        x = _one_line(x)
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


def meta_line(key: str, value) -> str:
    """The ``# key = value`` line of one metadata entry: a float at 17
    significant digits, None empty, a string verbatim.  Metadata that would
    not read back (a line break, a key that is empty or holds "=", outer
    white space) raises ``ConfigError``."""
    text = _one_line(value) if isinstance(value, str) else _cell(value)
    # The reader strips both sides of a metadata line's first "=".
    if not _one_line(key) or "=" in key or key != key.strip() or text != text.strip():
        raise ConfigError(f"metadata {key!r} = {text!r} would not read back: a key must be non-empty "
                          "and hold no '=', and neither key nor value may have outer white space")
    return f"# {key} = {text}"


def write_csv(path: str, header, rows, meta: dict | None = None) -> None:
    """Header, rows, then one ``meta_line`` per metadata entry.  Cells are
    written as metadata values are, except that a cell holding a comma or a
    double quote is quoted.  A string holding a line break, or metadata that
    would not read back, raises ``ConfigError`` before any file is made.
    ``rows`` may be a lazy iterable, so a large table is never held twice."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    lines.extend(meta_line(key, value) for key, value in (meta or {}).items())
    atomic_write(path, "\n".join(lines) + "\n")


# Data rows per numpy parse: bounds the text cells held at once.
READ_BLOCK = 1024


def _read_csv(path: str, ncols: int):
    """The inverse of ``write_csv``: ``(first, header, data, notes, blanks)``.

    Lines end at "\\n" (universal newlines) and are stripped; blank ones are
    counted and ``#`` ones, anywhere, kept in ``notes`` as ``(lineno, text)``.
    The first other line, at line ``first`` (0 if none), gives the ``header``
    cells if its first cell is not a float (else None); the rest are ``data``,
    ``(m, ncols)`` finite floats, parsed READ_BLOCK rows at a time.  A fault
    raises ``InputError`` at ``path:line``.
    """
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    first, header, notes, blanks, rows, blocks = 0, None, [], 0, [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line[:1] == "#":
                notes.append((lineno, line))
            elif not line:
                blanks += 1
            elif first:
                rows.append((lineno, line))
                if len(rows) == READ_BLOCK:
                    blocks.append(_parse_rows(path, rows, ncols))
                    rows = []
            else:
                first = lineno
                try:
                    float(line.split(",", 1)[0].strip())
                    rows.append((lineno, line))
                except ValueError:
                    header = tuple(cell.strip() for cell in line.split(","))
                    if len(header) != ncols:
                        raise InputError(f"{path}:{first}: expected {ncols} columns, got {len(header)} in the header") from None
    return first, header, np.concatenate([*blocks, _parse_rows(path, rows, ncols)]), notes, blanks


def _parse_rows(path: str, rows, ncols: int) -> np.ndarray:
    """``(lineno, line)`` rows as an ``(m, ncols)`` array of finite floats."""
    try:
        data = np.array([line.split(",") for _, line in rows], dtype=float).reshape(len(rows), ncols)
    except ValueError:
        data = None
    if data is not None and np.isfinite(data).all():
        return data
    # Only a faulty or unusual block gets here: walk the rows with float(),
    # which raises at the first fault in file order.
    values = []
    for lineno, line in rows:
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != ncols:
            raise InputError(f"{path}:{lineno}: expected {ncols} columns, got {len(cells)}")
        try:
            values.append([float(cell) for cell in cells])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric cell {cells!r}") from None
        if not all(map(math.isfinite, values[-1])):
            raise InputError(f"{path}:{lineno}: non-finite cell {cells!r}")
    return np.array(values)


def read_pairs_csv(path: str) -> tuple[RawSample, CsvDiagnostics]:
    """Read two numeric columns; blanks and comments are skipped and counted.

    A non-numeric or non-finite (nan, inf) cell raises ``InputError`` with
    its ``path:line``.
    """
    _, header, data, notes, blanks = _read_csv(path, 2)
    if len(data) < 2:
        raise InputError(f"{path}: need at least 2 data rows, found {len(data)}")
    return RawSample(*data.T.copy()), CsvDiagnostics(blanks, len(notes), header is not None)


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
    first, header, data, notes, _ = _read_csv(path, len(GRID_COLUMNS))
    if first and header != GRID_COLUMNS:
        raise InputError(f"{path}:{first}: expected header {','.join(GRID_COLUMNS)!r}")
    meta: dict[str, str] = {}
    for lineno, line in notes:
        key, _, value = (part.strip() for part in line.lstrip("#").partition("="))
        if not key:
            raise InputError(f"{path}:{lineno}: malformed metadata line")
        try:
            finite = key != "halfwidth" or math.isfinite(float(value))
        except ValueError:
            finite = False
        if not finite:
            raise InputError(f"{path}:{lineno}: halfwidth must be a finite number, got {value!r}")
        meta[key] = value
    if not len(data):
        raise InputError(f"{path}: no data rows")
    if "halfwidth" not in meta:
        raise InputError(f"{path}: metadata block is missing the halfwidth entry")
    grid_u, grid_v = np.unique(data[:, 0]), np.unique(data[:, 1])
    if len(data) != len(grid_u) * len(grid_v):
        raise InputError(f"{path}: rows do not form a complete lattice")
    # u-major order is part of the format; verify rather than re-sort.
    uu, vv = np.meshgrid(grid_u, grid_v, indexing="ij")
    if not (np.array_equal(data[:, 0], uu.ravel()) and np.array_equal(data[:, 1], vv.ravel())):
        raise InputError(f"{path}: rows are not in u-major lattice order")
    surfaces = data[:, 2:].T.reshape(3, len(grid_u), len(grid_v))
    return BandGrid(grid_u, grid_v, *surfaces, halfwidth=float(meta.pop("halfwidth")), meta=meta or None)
