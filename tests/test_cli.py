import argparse
import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from llcopula import cli
from llcopula.cli import RunConfig, build_parser, config_from_args, main, validate_config
from llcopula.fitting import fit_families
from llcopula.gridio import read_grid_csv, read_pairs_csv
from llcopula.margins import to_pseudo_ranks


def run_cli(*args):
    return main(list(args))


class TestValidation:
    def test_all_problems_listed(self, capsys):
        code = run_cli(
            "sample", "--family", "clayton", "--theta", "-1", "--n", "0",
            "--seed", "-1", "--out", "/tmp/never.csv",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "clayton parameter" in err
        assert "sample size" in err
        assert "seed" in err

    @pytest.mark.parametrize("family, theta, problem", [
        ("gumbel", "0.5", "gumbel parameter must be >= 1, got 0.5"),
        ("independence", "nan", "parameter list values must be finite, got nan"),
    ], ids=["gumbel", "independence"])
    def test_theta_list_checked_for_every_family(self, capsys, family, theta, problem):
        # Each value meets the named family's domain, and no value may be
        # non-finite, even where reproduce refuses the family itself.
        code = run_cli(
            "reproduce", "--family", family, "--n", "0", "--theta-list", theta,
            "--out", "/tmp/never.csv",
        )
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines == [
            "error:config: reproduce supports --family clayton or frank",
            "error:config: sample size must be >= 1, got 0",
            f"error:config: {problem}",
        ]

    def test_unknown_family(self, capsys):
        code = run_cli("sample", "--family", "gauss", "--theta", "1", "--out", "/tmp/x.csv")
        assert code == 2
        assert "unknown copula family" in capsys.readouterr().err

    def test_missing_input_flag(self, capsys):
        code = run_cli("bands", "--out", "/tmp/x.csv")
        assert code == 2
        assert "--in" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bands", "--in", "s.csv", "--epsilon", "inf", "--out", "b.csv"],
        ["bands", "--in", "s.csv", "--epsilon", "nan", "--out", "b.csv"],
        ["bands", "--in", "s.csv", "--epsilon", "1e308", "--out", "b.csv"],
        ["estimate", "--in", "s.csv", "--hn", "inf", "--out", "e.csv"],
        ["estimate", "--in", "s.csv", "--alpha", "inf", "--out", "e.csv"],
        ["estimate", "--in", " s.csv", "--out", "e.csv"],
        ["fit", "--in", "s.csv\n", "--out", "f.csv"],
        ["sample", "--family", "clayton", "--theta", "2", "--n", "200", "--seed", "1", "--out", " x.csv "],
        ["sample", "--family", "independence", "--theta", "2", "--n", "200", "--seed", "1", "--out", "x.csv"],
        ["sample", "--family", "clayton", "--theta", "1e-310", "--n", "5", "--seed", "1", "--out", "x.csv"],
        ["reproduce", "--family", "frank", "--n", "100", "--seed", "1", "--epsilon", "1e308", "--out", "t.csv"],
        ["estimate", "--in", "s.csv", "--grid", "1", "--out", "e.csv"],
        ["bands", "--in", "s.csv", "--Ac", "5", "--out", "b.csv"],
        ["sample", "--theta", "2", "--n", "200", "--seed", "1", "--out", "x.csv"],
        ["estimate", "--in", "s.csv", "--out", "missing/e.csv"],
    ], ids=lambda argv: " ".join(argv))
    def test_refused_before_any_work(self, argv, tmp_path, monkeypatch, capsys):
        # What the band, policy or writer would refuse after the work is
        # refused by validation: no input read, no grid, no draws, no file.
        calls = []
        for name in ("read_pairs_csv", "evaluate_grid", "sample_copula"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: calls.append(name))
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error:config: ")
        assert calls == [] and os.listdir(tmp_path) == []

    def test_overflowing_epsilon_refused_by_both_band_commands(self, tmp_path, monkeypatch, capsys):
        # (1 + epsilon) * A_c = inf would give an infinite band; bands and
        # reproduce both refuse it with BandParameters' message and no file.
        monkeypatch.chdir(tmp_path)
        run_cli("sample", "--family", "frank", "--theta", "5", "--n", "100", "--seed", "1", "--out", "s.csv")
        capsys.readouterr()
        assert run_cli("bands", "--in", "s.csv", "--epsilon", "1e308", "--out", "b.csv") == 2
        refused = capsys.readouterr().err
        assert run_cli("reproduce", "--family", "frank", "--n", "100", "--epsilon", "1e308", "--out", "t.csv") == 2
        assert capsys.readouterr().err == refused
        assert refused == "error:config: inflation must be nonnegative with (1 + epsilon) * A_c finite, got 1e+308\n"
        # bands refuses it before reading --in: a missing file gives the same error, not "no such file".
        assert run_cli("bands", "--in", "missing.csv", "--epsilon", "1e308", "--out", "b.csv") == 2
        assert capsys.readouterr().err == refused
        assert os.listdir(tmp_path) == ["s.csv"]

    @pytest.mark.parametrize("command", ["estimate", "bands", "fit", "plot"])
    def test_unreadable_input_is_an_input_error(self, command, tmp_path, monkeypatch, capsys):
        # A directory and a byte that is not UTF-8: exit 3 and one line, no traceback, no file.
        monkeypatch.chdir(tmp_path)
        Path("bad.csv").write_bytes(b"u,\xffv\n0.1,0.2\n0.3,0.4\n")
        for path, message in ((".", "error:input: .: cannot read: "),
                              ("bad.csv", "error:input: bad.csv:1: not UTF-8 text (byte 0xff)")):
            assert run_cli(command, "--in", path, "--out", "out") == 3
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(message)
        assert os.listdir(tmp_path) == ["bad.csv"]

    def test_unwritable_output_is_one_error(self, tmp_path, monkeypatch, capsys):
        # An --out that names a directory passes validation; the writer's
        # failure is one line, exit 1, and leaves no temp file.
        monkeypatch.chdir(tmp_path)
        os.mkdir("taken")
        assert run_cli("sample", "--family", "frank", "--theta", "2", "--n", "10", "--out", "taken") == 1
        assert capsys.readouterr().err == "error:error: cannot write taken: Is a directory\n"
        assert os.listdir(tmp_path) == ["taken"] and os.listdir("taken") == []

    def test_validate_config_unit(self):
        cfg = RunConfig(command="plot", input_path=None, output_path=None,
                        overlays=("clayton=2", "bogus"))
        problems = validate_config(cfg)
        assert any("--in" in p for p in problems)
        assert any("--out" in p for p in problems)
        assert any("bogus" in p for p in problems)


def parse(*argv):
    return config_from_args(build_parser().parse_args(list(argv)))


# Each flag's command-line arguments and the RunConfig fields they set.
FLAG_VALUES = {
    "--family": (["frank"], dict(family="frank")),
    "--theta": (["5"], dict(theta=5.0)),
    "--n": (["40"], dict(n=40)),
    "--seed": (["9"], dict(seed=9)),
    "--grid": (["7"], dict(grid_size=7)),
    "--alpha": (["0.7"], dict(alpha=0.7)),
    "--hn": (["0.2"], dict(h_n=0.2)),
    "--Ac": (["2.5"], dict(A_c=2.5)),
    "--epsilon": (["0.1"], dict(epsilon=0.1)),
    "--transform": (["smoothed"], dict(transform="smoothed")),
    "--clip": ([], dict(clip=True)),
    "--in": (["b.csv"], dict(input_path="b.csv")),
    "--out": (["o.csv"], dict(output_path="o.csv")),
    "--overlay": (["clayton=2", "--overlay", "independence"],
                  dict(overlays=("clayton=2", "independence"))),
    "--theta-list": (["0.5", "7"], dict(thetas=(0.5, 7.0))),
}

# The flags each subcommand reads: 36 (subcommand, flag) pairs.
READS = {
    "sample": "--family --theta --n --seed --out".split(),
    "estimate": "--in --out --grid --alpha --hn --transform".split(),
    "bands": "--in --out --grid --alpha --hn --Ac --epsilon --transform --clip".split(),
    "fit": "--in --out --transform".split(),
    "plot": "--in --out --overlay".split(),
    "reproduce": ("--family --theta-list --n --seed --out --alpha --hn --Ac --epsilon "
                  "--transform").split(),
}

UNREAD = [(cmd, flag) for cmd in READS for flag in FLAG_VALUES if flag not in READS[cmd]]


class TestFlags:
    def test_parser_accepts_exactly_the_flags_read(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        accepted = {
            command: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
            for command, p in sub.choices.items()
        }
        assert accepted == {command: sorted(flags) for command, flags in READS.items()}
        assert sum(map(len, accepted.values())) == 36

    def test_unset_flags_take_run_config_defaults(self):
        assert parse("sample", "--out", "x") == RunConfig(command="sample", output_path="x")

    def test_every_flag_fills_its_field(self):
        for command, flags in READS.items():
            argv, expected = [command], {}
            for flag in flags:
                args, values = FLAG_VALUES[flag]
                argv += [flag, *args]
                expected.update(values)
            assert parse(*argv) == RunConfig(command=command, **expected), command
        # between them the flags move every field off its default
        default = RunConfig(command="sample")
        moved = {name for _, values in FLAG_VALUES.values()
                 for name, value in values.items() if getattr(default, name) != value}
        assert moved == {f.name for f in fields(RunConfig)} - {"command"}

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(command, flag, *FLAG_VALUES[flag][0])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_abbreviations(self, capsys):
        # With abbreviations on, reproduce would read --theta as --theta-list.
        with pytest.raises(SystemExit) as exc:
            parse("sample", "--fam", "frank")
        assert exc.value.code == 2


class TestPipeline:
    def test_sample_writes_rows(self, tmp_path):
        out = str(tmp_path / "s.csv")
        assert run_cli("sample", "--family", "clayton", "--theta", "2",
                       "--n", "200", "--seed", "7", "--out", out) == 0
        sample, diag = read_pairs_csv(out)
        assert sample.n == 200
        assert (sample.x >= 0).all() and (sample.x <= 1).all()

    def test_missing_input_file_exit_code(self, tmp_path, capsys):
        code = run_cli("estimate", "--in", str(tmp_path / "none.csv"),
                       "--out", str(tmp_path / "o.csv"))
        assert code == 3
        assert "error:input:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", ["nan,0.5\n0.2,0.3\n0.4,0.1\n", "0.2,0.3\n1,inf\n0.4,0.1\n"])
    def test_non_finite_cell_exits_as_input_error(self, tmp_path, capsys, rows):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(rows)
        code = run_cli("estimate", "--in", str(pairs), "--out", str(tmp_path / "o.csv"))
        err = capsys.readouterr().err
        assert code == 3
        assert "error:input:" in err and f"{pairs}:" in err and "non-finite" in err

    @pytest.mark.parametrize("row, halfwidth", [("0,0,0.1,0.3,0.2", "0.1"), ("0,0,0.1,0.0,0.2", "-1")])
    def test_malformed_grid_file_exits_as_input_error(self, tmp_path, capsys, row, halfwidth):
        grid = tmp_path / "g.csv"
        grid.write_text(f"u,v,estimate,lower,upper\n{row}\n# halfwidth = {halfwidth}\n")
        code = run_cli("plot", "--in", str(grid), "--out", str(tmp_path / "p.svg"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error:input: {grid}: ")
        assert os.listdir(tmp_path) == ["g.csv"]

    def test_line_break_in_a_path_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # The path is echoed into the metadata block, where a line break would
        # inject a data row ("0.5,0.7") into the file.
        monkeypatch.chdir(tmp_path)
        code = run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "20",
                       "--seed", "1", "--out", "t\n0.5,0.7")
        assert code == 2
        assert "error:config:" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_estimate_grid_is_degenerate_band(self, tmp_path):
        s = str(tmp_path / "s.csv")
        e = str(tmp_path / "e.csv")
        run_cli("sample", "--family", "frank", "--theta", "5", "--n", "150",
                "--seed", "3", "--out", s)
        assert run_cli("estimate", "--in", s, "--grid", "7", "--out", e) == 0
        grid = read_grid_csv(e)
        assert grid.halfwidth == 0.0
        assert np.array_equal(grid.lower, grid.values)
        assert np.array_equal(grid.upper, grid.values)
        assert grid.values.shape == (7, 7)

    def test_bands_constant_width_and_echo(self, tmp_path):
        s = str(tmp_path / "s.csv")
        b = str(tmp_path / "b.csv")
        run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "300",
                "--seed", "11", "--out", s)
        assert run_cli("bands", "--in", s, "--grid", "9", "--Ac", "2.5", "--out", b) == 0
        grid = read_grid_csv(b)
        assert np.array_equal(grid.upper, grid.values + grid.halfwidth)
        # metadata reconstructs the effective run configuration (n is the
        # actual sample size) plus the derived bandwidth policy
        expected = RunConfig(
            command="bands", family=None, theta=None, n=300, seed=0,
            grid_size=9, alpha=0.5, h_n=None, A_c=2.5, epsilon=0.0,
            transform="rank", clip=False, input_path=s, output_path=b,
        ).as_meta()
        for key, value in expected.items():
            assert grid.meta[key] == value
        assert float(grid.meta["policy_h_n"]) == pytest.approx(1 / np.log(300))
        assert "policy_shrink" not in grid.meta
        assert float(grid.meta["policy_h_min"]) <= float(grid.meta["policy_h_max"])

    def test_fit_selects_generator(self, tmp_path, capsys):
        s = str(tmp_path / "s.csv")
        run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "800",
                "--seed", "5", "--out", s)
        capsys.readouterr()
        assert run_cli("fit", "--in", s) == 0
        out = capsys.readouterr().out
        assert "selected: clayton" in out

    def test_fit_at_tau_zero_selects_independent_gumbel(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("0.1,0.2\n\n0.2,0.4\n0.3,0.1\n\n0.4,0.3\n")
        assert run_cli("fit", "--in", str(pairs)) == 0
        out, err = capsys.readouterr()
        assert err == "note: skipped 2 blank lines\n"
        assert "empirical kendall tau: 0.000000" in out
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:-1]}
        assert rows["gumbel"] == ["1.0000", "0.0000"]
        assert rows["clayton"][:2] == ["-", "n/a"] and rows["frank"][:2] == ["-", "n/a"]
        assert "selected: gumbel" in out

    def test_fit_report_file(self, tmp_path):
        s = str(tmp_path / "s.csv")
        r = str(tmp_path / "report.csv")
        run_cli("sample", "--family", "gumbel", "--theta", "1.69", "--n", "500",
                "--seed", "6", "--out", s)
        assert run_cli("fit", "--in", s, "--out", r) == 0
        text = Path(r).read_text()
        assert text.startswith("family,theta,log_likelihood,applicable,note")
        assert "# selected = " in text
        assert "# tau_hat = " in text

    def test_fit_report_notes_with_commas_keep_five_cells(self, tmp_path):
        # Inapplicable families carry an error text such as
        # "gumbel attains tau in [0, 1), got -0.44..." in the note cell.
        s = str(tmp_path / "s.csv")
        r = tmp_path / "report.csv"
        run_cli("sample", "--family", "frank", "--theta", "-5", "--n", "300",
                "--seed", "1", "--out", s)
        assert run_cli("fit", "--in", s, "--out", str(r)) == 0
        lines = [l for l in r.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert all(len(row) == 5 for row in rows)
        report = fit_families(to_pseudo_ranks(read_pairs_csv(s)[0]))
        assert [row[4] for row in rows[1:]] == [row.note for row in report.rows]
        assert any("," in row.note for row in report.rows)

    def test_smoothed_transform_path(self, tmp_path):
        s = str(tmp_path / "s.csv")
        e = str(tmp_path / "e.csv")
        run_cli("sample", "--family", "frank", "--theta", "5", "--n", "100",
                "--seed", "2", "--out", s)
        assert run_cli("estimate", "--in", s, "--grid", "5",
                       "--transform", "smoothed", "--out", e) == 0
        assert read_grid_csv(e).meta["transform"] == "smoothed"


class TestReproduce:
    def test_row_counts_and_containment(self, tmp_path):
        out = str(tmp_path / "table.csv")
        assert run_cli("reproduce", "--family", "clayton", "--n", "500",
                       "--seed", "41", "--out", out) == 0
        lines = Path(out).read_text().splitlines()
        data = [l for l in lines if l and not l.startswith("#") and not l.startswith("theta,")]
        assert len(data) == 30  # 10 points x 3 default parameter values
        thetas = {l.split(",")[0] for l in data}
        assert thetas == {"0.5", "2", "6"}
        assert all(l.endswith(",yes") for l in data)

    def test_theta_override(self, tmp_path):
        out = str(tmp_path / "table.csv")
        assert run_cli("reproduce", "--family", "frank", "--n", "300", "--seed", "4",
                       "--theta-list", "5", "--out", out) == 0
        data = [
            l for l in Path(out).read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("theta,")
        ]
        assert len(data) == 10

    def test_frank_defaults(self, tmp_path):
        out = str(tmp_path / "table.csv")
        assert run_cli("reproduce", "--family", "frank", "--n", "400",
                       "--seed", "12", "--out", out) == 0
        data = [
            l for l in Path(out).read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("theta,")
        ]
        assert {l.split(",")[0] for l in data} == {"-2", "5", "18"}

    def test_rejects_gumbel(self, capsys):
        assert run_cli("reproduce", "--family", "gumbel", "--out", "/tmp/x.csv") == 2
        assert "clayton or frank" in capsys.readouterr().err

    def test_family_case_is_ignored(self, tmp_path):
        # As in sample, the family name is read case-insensitively.
        rows = []
        for family in ("Clayton", "clayton"):
            out = tmp_path / f"{family}.csv"
            assert run_cli("reproduce", "--family", family, "--n", "200", "--seed", "3", "--out", str(out)) == 0
            rows.append([l for l in out.read_text().splitlines() if l and not l.startswith("#")])
        assert len(rows[0]) == 31 and rows[0] == rows[1]


class TestDeterminism:
    def test_pipeline_byte_identical(self, tmp_path):
        def one_pass():
            s = str(tmp_path / "s.csv")
            b = str(tmp_path / "b.csv")
            p = str(tmp_path / "p.svg")
            run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "250",
                    "--seed", "99", "--out", s)
            run_cli("bands", "--in", s, "--grid", "11", "--out", b)
            run_cli("plot", "--in", b, "--out", p, "--overlay", "clayton=2")
            return Path(s).read_bytes(), Path(b).read_bytes(), Path(p).read_bytes()

        first = one_pass()
        second = one_pass()
        assert first == second


class TestPlot:
    @pytest.fixture()
    def band_file(self, tmp_path):
        s = str(tmp_path / "s.csv")
        b = str(tmp_path / "b.csv")
        run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "200",
                "--seed", "8", "--out", s)
        run_cli("bands", "--in", s, "--grid", "9", "--out", b)
        return b

    def test_svg_format_contract(self, tmp_path, band_file):
        p = str(tmp_path / "fig.svg")
        assert run_cli("plot", "--in", band_file, "--out", p) == 0
        text = Path(p).read_text()
        assert text.startswith("<svg xmlns=")
        assert text.count("<polygon") == 8 * 8

    def test_overlays_labeled(self, tmp_path, band_file):
        p = str(tmp_path / "fig.svg")
        assert run_cli(
            "plot", "--in", band_file, "--out", p,
            "--overlay", "clayton=1.38", "--overlay", "gumbel=1.69",
            "--overlay", "frank=4.27",
        ) == 0
        text = Path(p).read_text()
        for label in ("clayton theta=1.38", "gumbel theta=1.69", "frank theta=4.27"):
            assert label in text

    def test_non_finite_halfwidth_exits_as_input_error(self, tmp_path, band_file, capsys):
        lines = Path(band_file).read_text().splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("# halfwidth = "))
        lines[at] = "# halfwidth = nan"
        Path(band_file).write_text("\n".join(lines) + "\n")
        p = tmp_path / "fig.svg"
        assert run_cli("plot", "--in", band_file, "--out", str(p)) == 3
        err = capsys.readouterr().err
        assert f"error:input: {band_file}:{at + 1}: halfwidth" in err
        assert not p.exists()

    @pytest.mark.parametrize("overlay, problem", [
        ("independence=2", "independence copula takes no parameter"),
        ("clayton", "clayton copula needs a finite parameter, got None"),
        ("clayton=abc", "overlay 'clayton=abc' has a non-numeric parameter"),
    ])
    def test_overlay_refused(self, tmp_path, band_file, capsys, overlay, problem):
        p = tmp_path / "fig.svg"
        assert run_cli("plot", "--in", band_file, "--out", str(p), "--overlay", overlay) == 2
        assert capsys.readouterr().err == f"error:config: {problem}\n"
        assert not p.exists()

    def test_too_many_overlays(self, band_file, capsys):
        code = run_cli(
            "plot", "--in", band_file, "--out", "/tmp/x.svg",
            "--overlay", "clayton=1", "--overlay", "gumbel=2",
            "--overlay", "frank=3", "--overlay", "independence",
        )
        assert code == 2
        assert "at most 3" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency.  A fresh interpreter also sees
    # scipy pulled in indirectly, which a scan of import statements would miss.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, llcopula.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
