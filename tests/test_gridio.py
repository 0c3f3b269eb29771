import ast
import csv
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import llcopula
from llcopula.bands import BandGrid
from llcopula.errors import ConfigError, InputError, LLCopulaError
from llcopula.gridio import (
    BLOCK_ROWS,
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
        values=est,
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

    @pytest.mark.parametrize("row", ["nan,0.5", "1,inf", "-inf,0.2", "0.3,NaN"])
    def test_non_finite_cell_reports_line(self, tmp_path, row):
        path = tmp_path / "pairs.csv"
        path.write_text(f"0.1,0.2\n{row}\n0.3,0.4\n")
        with pytest.raises(InputError, match=":2: non-finite"):
            read_pairs_csv(str(path))

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ("0.3,oops\n0.5\n", ":2: non-numeric"),
            ("0.5\n0.3,oops\n", ":2: expected 2 columns, got 1"),
            ("nan,1\n0.3,oops\n0.5\n", ":2: non-finite"),
        ],
    )
    def test_first_fault_in_file_order_is_reported(self, tmp_path, rows, fault):
        path = tmp_path / "pairs.csv"
        path.write_text(f"0.1,0.2\n{rows}")
        with pytest.raises(InputError, match=fault):
            read_pairs_csv(str(path))

    @pytest.mark.parametrize("late", ["0.3", "nan,1", "0.3,oops"])
    def test_first_fault_across_parse_blocks(self, tmp_path, late):
        # Rows are parsed in blocks of about a thousand: with faults in two
        # blocks, the earlier line is still the one reported.
        rows = [f"{k},0.5" for k in range(3000)]
        rows[1200], rows[2900] = "0.2,oops", late
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match=":1201: non-numeric"):
            read_pairs_csv(str(path))

    def test_float_only_cell_in_a_later_block_reads(self, tmp_path):
        rows = [f"{k},0.5" for k in range(3000)]
        rows[2500] = "1_0,0.5"
        path = tmp_path / "pairs.csv"
        path.write_text("\n".join(rows) + "\n")
        sample, _ = read_pairs_csv(str(path))
        assert sample.x[2500] == 10.0 and np.array_equal(np.delete(sample.x, 2500), np.delete(np.arange(3000.0), 2500))

    @pytest.mark.parametrize("cell", [" 0.5", "+1", ".5", "5.", "1_0", "1\x1c", "1e-400"])
    def test_cells_read_as_float_reads_them(self, tmp_path, cell):
        path = tmp_path / "pairs.csv"
        path.write_text(f"{cell},0.2\n0.3,{cell}\n")
        sample, _ = read_pairs_csv(str(path))
        assert sample.x.tolist() == [float(cell.strip()), 0.3]
        assert sample.y.tolist() == [0.2, float(cell.strip())]

    @pytest.mark.parametrize("cell", ["0x10", "1 0", "", "1e"])
    def test_cells_float_rejects_are_non_numeric(self, tmp_path, cell):
        path = tmp_path / "pairs.csv"
        path.write_text(f"0.1,0.2\n0.3,{cell}\n")
        with pytest.raises(InputError, match=":2: non-numeric"):
            read_pairs_csv(str(path))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_ends_read_as_line_feeds(self, tmp_path, newline):
        text = "x,y\n# seed = 1\n0.1,0.2\n\n0.3,0.4\n  \n0.5,0.6\n"
        reads = []
        for end in ("\n", newline):
            path = tmp_path / "pairs.csv"
            path.write_bytes(text.replace("\n", end).encode())
            reads.append(read_pairs_csv(str(path)))
            path.write_bytes((text + "0.7,oops\n").replace("\n", end).encode())
            with pytest.raises(InputError, match=":8: non-numeric"):
                read_pairs_csv(str(path))
        (want, want_diag), (got, got_diag) = reads
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
        assert got_diag == want_diag == CsvDiagnostics(2, 1, True)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_line_feeds_end_lines(self, tmp_path, char):
        # str.splitlines() would also break at these and shift the line numbers.
        path = tmp_path / "pairs.csv"
        path.write_text(f"0.1,0.2\n# a{char}0.3,0.4\n0.5,0.6\n0.7,oops\n", encoding="utf-8")
        with pytest.raises(InputError, match=":4: non-numeric"):
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
        assert np.array_equal(back.values, grid.values)
        assert np.array_equal(back.lower, grid.lower)
        assert np.array_equal(back.upper, grid.upper)
        assert back.halfwidth == grid.halfwidth
        assert back.meta == {"seed": "7", "A_c": "3.0"}
        assert back.n is None

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

    @pytest.mark.parametrize(
        "meta",
        [{"": "v"}, {"a=b": "1"}, {" k": "v"}, {"k\t": "v"}, {"input_path": " x.csv "}, {"k": "v "}, {"k": " "}],
        ids=["empty key", "= in key", "key leading space", "key trailing tab", "value spaces", "value trailing", "blank value"],
    )
    def test_metadata_that_would_not_read_back_raises(self, tmp_path, meta):
        # The reader strips both sides of the first "=": these would come
        # back as other keys or values, so the write fails before any file.
        with pytest.raises(ConfigError, match="metadata"):
            write_grid_csv(make_band_grid(meta=meta), str(tmp_path / "grid.csv"))
        assert os.listdir(tmp_path) == []

    def test_metadata_reads_back_verbatim(self, tmp_path):
        # Inner white space and "=" in values, and inner spaces in keys, are kept.
        meta = {"input_path": "a b = c.csv", "k x": "=", "empty": "", "tab": "1\t2"}
        path = str(tmp_path / "grid.csv")
        write_grid_csv(make_band_grid(meta=meta), path)
        assert read_grid_csv(path).meta == meta

    def test_reader_memory_is_bounded_by_its_blocks(self, tmp_path):
        # Rows are parsed in blocks, so the text cells of the whole file are
        # never held at once; parsing all 10,201 rows in one call peaks at 8 MB.
        path = str(tmp_path / "grid.csv")
        write_grid_csv(make_band_grid(k=101), path)
        tracemalloc.start()
        try:
            read_grid_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_no_temp_file_left(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        write_grid_csv(make_band_grid(), path)
        assert os.listdir(tmp_path) == ["grid.csv"]

    @pytest.mark.parametrize("cell, fault", [("nan", "non-finite"), ("oops", "non-numeric")])
    def test_bad_cell_in_the_last_row_of_a_full_grid(self, tmp_path, cell, fault):
        path = tmp_path / "grid.csv"
        write_grid_csv(make_band_grid(k=101), str(path))
        lines = path.read_text().split("\n")
        last = 101 * 101 + 1  # the header is line 1
        lines[last - 1] = lines[last - 1].rsplit(",", 1)[0] + "," + cell
        path.write_text("\n".join(lines))
        with pytest.raises(InputError, match=f":{last}: {fault} cell"):
            read_grid_csv(str(path))

    def test_missing_halfwidth_metadata(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("u,v,estimate,lower,upper\n0,0,0.1,0.0,0.2\n")
        with pytest.raises(InputError, match="halfwidth"):
            read_grid_csv(str(path))
        # A file with metadata but no data rows is refused before the halfwidth is looked for.
        path.write_text("u,v,estimate,lower,upper\n# halfwidth = 0.1\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: no data rows$"):
            read_grid_csv(str(path))

    @pytest.mark.parametrize("row", ["0,0,nan,0.0,0.2", "0,0,0.1,-inf,0.2"])
    def test_non_finite_cell_reports_line(self, tmp_path, row):
        path = tmp_path / "grid.csv"
        path.write_text(f"u,v,estimate,lower,upper\n0,1,0.1,0.0,0.2\n{row}\n# halfwidth = 0.1\n")
        with pytest.raises(InputError, match=":3: non-finite"):
            read_grid_csv(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "wide"])
    def test_non_finite_halfwidth_reports_line(self, tmp_path, value):
        path = tmp_path / "grid.csv"
        path.write_text(f"u,v,estimate,lower,upper\n0,0,0.1,0.0,0.2\n# seed = 7\n# halfwidth = {value}\n")
        with pytest.raises(InputError, match=":4: halfwidth must be a finite number"):
            read_grid_csv(str(path))

    @pytest.mark.parametrize(
        "row, halfwidth, fault",
        [
            ("0,0,0.1,0.3,0.2", "0.1", "lower band surface must not exceed the upper one"),
            ("0,0,0.1,0.0,0.2", "-1", "half-width must be finite and nonnegative"),
        ],
        ids=["lower above upper", "negative halfwidth"],
    )
    def test_record_fault_is_an_input_error(self, tmp_path, row, halfwidth, fault):
        path = tmp_path / "grid.csv"
        path.write_text(f"u,v,estimate,lower,upper\n{row}\n# halfwidth = {halfwidth}\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: {fault}"):
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
        # Five columns, but not the grid's: the header check itself refuses it.
        path.write_text("u,v,estimate,low,high\n0,0,0.1,0.0,0.2\n# halfwidth = 0.1\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:1: expected header 'u,v,estimate,lower,upper'$"):
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
        # A complete lattice, but v-major: the reader verifies the order and does not re-sort.
        rows = "".join(f"{u},{v},0.1,0.0,0.2\n" for v in (0, 0.5, 1) for u in (0, 1))
        path.write_text(f"u,v,estimate,lower,upper\n{rows}# halfwidth = 0.1\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: rows are not in u-major lattice order$"):
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

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    @pytest.mark.parametrize("where", ["cell", "key", "value"])
    def test_line_break_raises_before_any_file(self, tmp_path, where, brk):
        # The reader splits lines at line breaks: a written one would start a new row.
        text = f"t{brk}0.5,0.7"
        rows = [(1.0, text if where == "cell" else "ok")]
        meta = {text if where == "key" else "k": text if where == "value" else "v"}
        with pytest.raises(ConfigError, match="line break"):
            write_csv(str(tmp_path / "t.csv"), ("a", "b"), rows, meta)
        assert os.listdir(tmp_path) == []


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1e-300, 1e16, 2.0**53 + 2, -1e22, 1.7976931348623157e308,
                  0.1, 1 / 3, float("inf"), float("-inf"), float("nan")]


class TestRowTemplate:
    # A float array is written one "%.17g" template per row; each cell must
    # read exactly as the per-cell path (_cell, format(x, ".17g")) writes it.
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                      elements=st.floats() | st.sampled_from(SPECIAL_FLOATS)))
    @example(np.array([SPECIAL_FLOATS]))
    @example(np.array(SPECIAL_FLOATS)[:, None])
    def test_template_rows_match_cells(self, table):
        texts = []
        for rows in (table, table.tolist()):
            with tempfile.TemporaryDirectory() as tmp:
                write_csv(os.path.join(tmp, "t.csv"), ["c"] * table.shape[1], rows, {"k": 1.5})
                texts.append(Path(tmp, "t.csv").read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("m", [BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
    def test_blocks_of_rows_join_as_one_table(self, tmp_path, m):
        table = np.random.default_rng(m).standard_normal((m, 3)) * 10.0 ** np.arange(-5, 10, 5)
        for name, rows in (("a.csv", table), ("b.csv", table.tolist())):
            write_csv(str(tmp_path / name), ("x", "y", "z"), rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(float, st.tuples(st.integers(2, 40), st.just(2)),
                      elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS[:10])))
    def test_pairs_read_back_bitwise(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.csv")
            write_pairs_csv(path, table[:, 0], table[:, 1])
            sample, _ = read_pairs_csv(path)
        assert np.column_stack([sample.x, sample.y]).tobytes() == table.tobytes()

    def test_grid_reads_back_bitwise_with_special_values(self, tmp_path):
        grid = make_band_grid(k=len(SPECIAL_FLOATS[:10]))
        values = np.tile(SPECIAL_FLOATS[:10], (10, 1))
        grid = BandGrid(grid.grid_u, grid.grid_v, values, values, values, halfwidth=0.0)
        path = str(tmp_path / "g.csv")
        write_grid_csv(grid, path)
        back = read_grid_csv(path)
        for name in ("grid_u", "grid_v", "values", "lower", "upper"):
            assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()


def test_unreadable_file_is_an_input_error(tmp_path):
    # The text reader decodes by the block, far ahead of the line it yields;
    # the error still names the line of the bad byte, under \r\n endings too.
    rows = [f"0.{i:04d},0.5" for i in range(1, 5001)]
    rows[2999] = "0.3,\xe90.5"
    path = tmp_path / "latin1.csv"
    path.write_bytes(("u,v\r\n" + "\r\n".join(rows) + "\r\n").encode("latin-1"))
    with pytest.raises(InputError, match=r"latin1\.csv:3001: not UTF-8 text \(byte 0xe9\)$"):
        read_pairs_csv(str(path))
    with pytest.raises(InputError, match=r": cannot read: Is a directory$"):
        read_grid_csv(str(tmp_path))
    with pytest.raises(InputError, match="^no such file: "):
        read_pairs_csv(str(tmp_path / "absent.csv"))


class TestAtomicWrite:
    def test_failed_write_keeps_old_file_and_cleans_up(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(str(path), "\udcff")
        assert path.read_text() == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_os_error_is_one_llcopula_error(self, tmp_path):
        # The missing directory and the directory in the way both name the
        # path and the reason, and leave no temp file.
        os.mkdir(tmp_path / "taken")
        for name, reason in (("missing/out.csv", "No such file or directory"), ("taken", "Is a directory")):
            with pytest.raises(LLCopulaError) as info:
                atomic_write(str(tmp_path / name), "x\n")
            assert type(info.value) is LLCopulaError
            assert str(info.value) == f"cannot write {tmp_path / name}: {reason}"
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(tmp_path / "taken") == []

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
