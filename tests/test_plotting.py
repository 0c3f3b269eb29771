import re
from pathlib import Path

import numpy as np
import pytest

from llcopula.bands import BandGrid
from llcopula.cli import main as cli_main
from llcopula.errors import ConfigError, InputError
from llcopula.families import CopulaModel
from llcopula.gridio import write_grid_csv
from llcopula.plotting import _heatmap_polygons, _polyline, render_surface_svg

from oracles import heatmap_polygons, polyline_points


def lattice(nu, nv, values, seed=0):
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.random(k)) for k in (nu, nv)]
    return BandGrid(*axes, values, values - 0.1, values + 0.1, halfwidth=0.1)


@pytest.mark.parametrize("overlays, problem", [
    ([CopulaModel("independence")] * 4, "at most 3 overlays are supported"),
    ([CopulaModel("independence"), ("clayton", 2.0)], "overlays must be copula models"),
], ids=["four", "not a model"])
def test_overlays_refused_before_any_file(tmp_path, overlays, problem):
    with pytest.raises(ConfigError, match=f"^{problem}$"):
        render_surface_svg(lattice(3, 3, np.full((3, 3), 0.5)), str(tmp_path / "p.svg"), overlays=overlays)
    assert list(tmp_path.iterdir()) == []


class TestHeatmapAgainstCellLoop:
    @pytest.mark.parametrize("nu, nv", [(1, 1), (1, 4), (3, 1), (2, 2), (5, 9), (12, 7)])
    def test_random_lattices_outside_the_unit_range(self, nu, nv):
        values = np.random.default_rng(nu * 31 + nv).uniform(-0.5, 1.5, (nu, nv))
        grid = lattice(nu, nv, values)
        assert _heatmap_polygons(grid) == (["\n".join(heatmap_polygons(grid))] if nu > 1 and nv > 1 else [])

    def test_half_way_colours_round_to_even(self):
        # A cell mean of 0.5 puts red at 127.5 and green at 149.5 on the ramp;
        # both round to the even neighbour, as Python's round does.
        values = np.full((4, 6), 0.5)
        values[2:, 3:] = np.random.default_rng(5).random((2, 3))
        grid = lattice(4, 6, values)
        text = _heatmap_polygons(grid)[0]
        assert text.count('fill="rgb(128,150,181)"') == 9
        assert text == "\n".join(heatmap_polygons(grid))

    def test_polyline_points_match_the_point_loop(self):
        rng = np.random.default_rng(3)
        ts, values = np.sort(rng.random(17)), rng.uniform(-0.2, 1.2, 17)
        line = _polyline(ts, values, -0.25, 1.5, "black", dash="6,3")
        assert line == (f'<polyline points="{polyline_points(ts, values, -0.25, 1.5)}" fill="none" '
                        'stroke="black" stroke-width="2" stroke-dasharray="6,3"/>')


def polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', Path(path).read_text())


class TestDiagonalSection:
    def test_rectangular_lattice_draws_c_on_the_shared_nodes(self, tmp_path):
        # An 11 x 21 independence lattice: the section holds the 11 shared
        # nodes, and the drawn estimate is the exact overlay C(t, t) = t^2.
        gv = np.linspace(0.0, 1.0, 21)
        gu = gv[::2]
        values = np.outer(gu, gv)
        grid = BandGrid(gu, gv, values, values, values, halfwidth=0.0)
        path = tmp_path / "p.svg"
        render_surface_svg(grid, str(path), overlays=[CopulaModel("independence")])
        hi, lo, est, overlay = polylines(path)
        assert len(est.split()) == 11
        assert hi == lo == est == overlay

    def test_square_lattice_keeps_the_diagonal(self, tmp_path):
        grid = lattice(6, 6, np.random.default_rng(2).random((6, 6)))
        grid = BandGrid(grid.grid_u, grid.grid_u, grid.values, grid.lower, grid.upper, halfwidth=0.1)
        path = tmp_path / "p.svg"
        render_surface_svg(grid, str(path))
        vmin = min(grid.lower.diagonal().min(), 0.0) - 0.05
        vspan = max(grid.upper.diagonal().max(), 1.0) + 0.05 - vmin
        assert polylines(path)[2] == polyline_points(grid.grid_u, grid.values.diagonal(), vmin, vspan)

    def test_axes_without_a_shared_node_raise_and_exit_as_input_error(self, tmp_path, capsys):
        values = np.full((3, 2), 0.25)
        grid = BandGrid([0.1, 0.5, 0.9], [0.3, 0.7], values, values, values, halfwidth=0.0)
        with pytest.raises(InputError, match="share no node"):
            render_surface_svg(grid, str(tmp_path / "p.svg"))
        write_grid_csv(grid, str(tmp_path / "g.csv"))
        assert cli_main(["plot", "--in", str(tmp_path / "g.csv"), "--out", str(tmp_path / "p.svg")]) == 3
        assert "share no node" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]
