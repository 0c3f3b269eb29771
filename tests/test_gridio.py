import ast
import csv
import os
from pathlib import Path

import numpy as np
import pytest

import llcopula
from llcopula.bands import BandGrid
from llcopula.errors import InputError
from llcopula.gridio import (
    CsvDiagnostics,
    atomic_write,
    read_grid_csv,
    read_pairs_csv,
    write_csv,
    write_grid_csv,
    write_pairs_csv,
)


def make_band_grid(k=5, seed=0, meta=None):
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, k)
    est = np.sort(rng.random((k, k)))
    hw = 0.173
    return BandGrid(
        grid_u=grid,
        grid_v=grid,
        estimate=est,
        lower=est - hw,
        upper=est + hw,
        halfwidth=hw,
        meta=meta,
    )


class TestPairsCsv:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        sample, diag = read_pairs_csv(str(path))
        assert sample.n == 3
        assert diag == CsvDiagnostics(0, 0, False)
        assert np.allclose(sample.x, [0.1, 0.3, 0.5])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        sample, diag = read_pairs_csv(str(path))
        assert sample.n == 2
        assert diag.header_skipped

    def test_blank_line_counted(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.1,0.2\n\n0.3,0.4\n")
        sample, diag = read_pairs_csv(str(path))
        assert sample.n == 2
        assert diag.blank_lines == 1

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.1,0.2\n# seed = 5\n0.3,0.4\n")
        sample, diag = read_pairs_csv(str(path))
        assert sample.n == 2
        assert diag.comment_lines == 1

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(InputError, match=":2:"):
            read_pairs_csv(str(path))

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0.1,0.2\n0.3,0.4,0.5\n")
        with pytest.raises(InputError, match=":2:"):
            read_pairs_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="no such file"):
            read_pairs_csv(str(tmp_path / "nope.csv"))

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("x,y\n0.1,0.2\n")
        with pytest.raises(InputError, match="at least 2"):
            read_pairs_csv(str(path))

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        rng = np.random.default_rng(3)
        x = rng.random(7)
        y = rng.random(7)
        write_pairs_csv(path, x, y, meta={"seed": "9"})
        sample, diag = read_pairs_csv(path)
        assert np.array_equal(sample.x, x)
        assert np.array_equal(sample.y, y)
        assert diag.header_skipped
        assert diag.comment_lines == 1


class TestGridCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        grid = make_band_grid(meta={"seed": "7", "A_c": "3.0"})
        write_grid_csv(grid, path)
        back = read_grid_csv(path)
        assert np.array_equal(back.grid_u, grid.grid_u)
        assert np.array_equal(back.estimate, grid.estimate)
        assert np.array_equal(back.lower, grid.lower)
        assert np.array_equal(back.upper, grid.upper)
        assert back.halfwidth == grid.halfwidth
        assert back.meta == {"seed": "7", "A_c": "3.0"}

    def test_two_by_two_row_count(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        write_grid_csv(make_band_grid(k=2), path)
        lines = Path(path).read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#") and not l.startswith("u,")]
        assert len(data) == 4

    def test_u_major_order(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        write_grid_csv(make_band_grid(k=3), path)
        rows = [
            l.split(",")[:2]
            for l in Path(path).read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("u,")
        ]
        us = [float(r[0]) for r in rows]
        assert us == sorted(us)

    def test_no_temp_file_left(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        write_grid_csv(make_band_grid(), path)
        assert os.listdir(tmp_path) == ["grid.csv"]

    def test_missing_halfwidth_metadata(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("u,v,estimate,lower,upper\n0,0,0.1,0.0,0.2\n")
        with pytest.raises(InputError, match="halfwidth"):
            read_grid_csv(str(path))

    def test_malformed_metadata(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("u,v,estimate,lower,upper\n0,0,0.1,0.0,0.2\n# = broken\n")
        with pytest.raises(InputError, match="metadata"):
            read_grid_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("a,b,c\n0,0,0.1\n")
        with pytest.raises(InputError, match="header"):
            read_grid_csv(str(path))

    def test_incomplete_lattice(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "u,v,estimate,lower,upper\n"
            "0,0,0.1,0.0,0.2\n0,1,0.1,0.0,0.2\n1,0,0.1,0.0,0.2\n"
            "# halfwidth = 0.1\n"
        )
        with pytest.raises(InputError, match="lattice"):
            read_grid_csv(str(path))


class TestWriteCsv:
    def test_exact_text(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(0.1, None, "yes"), (2.0, -1.5e-20, "no")]
        write_csv(str(path), ("a", "b", "c"), rows, meta={"k": "v", "x": 0.25})
        assert path.read_text() == (
            "a,b,c\n"
            "0.10000000000000001,,yes\n"
            "2,-1.5000000000000001e-20,no\n"
            "# k = v\n"
            "# x = 0.25\n"
        )

    def test_no_meta_block(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a",), [(1,)])
        assert path.read_text() == "a\n1\n"

    def test_row_cells_with_comma_or_quote_are_quoted(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("in (0, 1)", 'say "hi"', "plain")]
        write_csv(str(path), ("a", "b", "c"), rows, meta={"k": "x, y"})
        assert path.read_text() == 'a,b,c\n"in (0, 1)","say ""hi""",plain\n# k = x, y\n'
        with open(path, newline="") as fh:
            assert next(csv.reader(fh)) == ["a", "b", "c"]
            assert next(csv.reader(fh)) == list(rows[0])


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_cleans_up(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(str(path), "\udcff")
        assert path.read_text() == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_replaces_and_keeps_default_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        plain = tmp_path / "plain"
        with open(plain, "w"):
            pass
        atomic_write(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain"]


def _writes_files(node: ast.Call) -> bool:
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("replace", "rename") and isinstance(func, ast.Attribute):
        return getattr(func.value, "id", None) == "os"
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open" or isinstance(func, ast.Attribute):
        return False
    mode = node.args[1] if len(node.args) > 1 else None
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), mode)
    if mode is None:
        return False
    if not isinstance(mode, ast.Constant):
        return True
    return any(ch in mode.value for ch in "wxa+")


def test_only_gridio_writes_files():
    # One atomic write for every output file: no other module may open a
    # file for writing or rename one into place.
    package = Path(llcopula.__file__).parent
    writers = set()
    for source in package.glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if any(isinstance(n, ast.Call) and _writes_files(n) for n in ast.walk(tree)):
            writers.add(source.name)
    assert writers == {"gridio.py"}
