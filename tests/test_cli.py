import csv
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

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
            "--grid", "1", "--out", "/tmp/never.csv",
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "clayton parameter" in err
        assert "sample size" in err
        assert "grid size" in err

    def test_unknown_family(self, capsys):
        code = run_cli("sample", "--family", "gauss", "--theta", "1", "--out", "/tmp/x.csv")
        assert code == 2
        assert "unknown copula family" in capsys.readouterr().err

    def test_missing_input_flag(self, capsys):
        code = run_cli("bands", "--out", "/tmp/x.csv")
        assert code == 2
        assert "--in" in capsys.readouterr().err

    def test_validate_config_unit(self):
        cfg = RunConfig(command="plot", input_path=None, output_path=None,
                        overlays=("clayton=2", "bogus"))
        problems = validate_config(cfg)
        assert any("--in" in p for p in problems)
        assert any("--out" in p for p in problems)
        assert any("bogus" in p for p in problems)


def parse(*argv):
    return config_from_args(build_parser().parse_args(list(argv)))


class TestFlags:
    SHARED = [
        "--family", "frank", "--theta", "5", "--n", "40", "--seed", "9", "--grid", "7",
        "--alpha", "0.7", "--hn", "0.2", "--Ac", "2.5", "--epsilon", "0.1",
        "--transform", "smoothed", "--clip", "--out", "o.csv",
    ]
    SHARED_FIELDS = dict(
        family="frank", theta=5.0, n=40, seed=9, grid_size=7, alpha=0.7, h_n=0.2,
        A_c=2.5, epsilon=0.1, transform="smoothed", clip=True, output_path="o.csv",
    )

    def test_unset_flags_take_run_config_defaults(self):
        assert parse("sample", "--out", "x") == RunConfig(command="sample", output_path="x")

    def test_every_flag_fills_its_field(self):
        plot = parse("plot", *self.SHARED, "--in", "b.csv",
                     "--overlay", "clayton=2", "--overlay", "independence")
        assert plot == RunConfig(command="plot", input_path="b.csv",
                                 overlays=("clayton=2", "independence"), **self.SHARED_FIELDS)
        repro = parse("reproduce", *self.SHARED, "--theta-list", "0.5", "7")
        assert repro == RunConfig(command="reproduce", thetas=(0.5, 7.0), **self.SHARED_FIELDS)
        # between them the two command lines move every field off its default
        default = RunConfig(command="sample")
        for f in fields(RunConfig):
            unset = getattr(default, f.name)
            assert getattr(plot, f.name) != unset or getattr(repro, f.name) != unset, f.name


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

    def test_estimate_grid_is_degenerate_band(self, tmp_path):
        s = str(tmp_path / "s.csv")
        e = str(tmp_path / "e.csv")
        run_cli("sample", "--family", "frank", "--theta", "5", "--n", "150",
                "--seed", "3", "--out", s)
        assert run_cli("estimate", "--in", s, "--grid", "7", "--out", e) == 0
        grid = read_grid_csv(e)
        assert grid.halfwidth == 0.0
        assert np.array_equal(grid.lower, grid.estimate)
        assert np.array_equal(grid.upper, grid.estimate)
        assert grid.estimate.shape == (7, 7)

    def test_bands_constant_width_and_echo(self, tmp_path):
        s = str(tmp_path / "s.csv")
        b = str(tmp_path / "b.csv")
        run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "300",
                "--seed", "11", "--out", s)
        assert run_cli("bands", "--in", s, "--grid", "9", "--seed", "11",
                       "--Ac", "2.5", "--out", b) == 0
        grid = read_grid_csv(b)
        assert np.array_equal(grid.upper, grid.estimate + grid.halfwidth)
        # metadata reconstructs the effective run configuration (n is the
        # actual sample size) plus the derived bandwidth policy
        expected = RunConfig(
            command="bands", family=None, theta=None, n=300, seed=11,
            grid_size=9, alpha=0.5, h_n=None, A_c=2.5, epsilon=0.0,
            transform="rank", clip=False, input_path=s, output_path=b,
        ).as_meta()
        for key, value in expected.items():
            assert grid.meta[key] == value
        assert float(grid.meta["policy_h_n"]) == pytest.approx(1 / np.log(300))
        assert grid.meta["policy_shrink"] == "True"
        assert float(grid.meta["policy_h_min"]) <= float(grid.meta["policy_h_max"])

    def test_fit_selects_generator(self, tmp_path, capsys):
        s = str(tmp_path / "s.csv")
        run_cli("sample", "--family", "clayton", "--theta", "2", "--n", "800",
                "--seed", "5", "--out", s)
        capsys.readouterr()
        assert run_cli("fit", "--in", s) == 0
        out = capsys.readouterr().out
        assert "selected: clayton" in out

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
        # "gumbel attains tau in (0, 1), got -0.44..." in the note cell.
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

    def test_too_many_overlays(self, band_file, capsys):
        code = run_cli(
            "plot", "--in", band_file, "--out", "/tmp/x.svg",
            "--overlay", "clayton=1", "--overlay", "gumbel=2",
            "--overlay", "frank=3", "--overlay", "independence",
        )
        assert code == 2
        assert "at most 3" in capsys.readouterr().err
