"""Experiment runners: determinism, CSV format, and report semantics."""

import csv
import inspect
import json

import numpy as np
import pytest

from nfgdual import experiments
from nfgdual.experiments import (
    EXPERIMENTS,
    frustrated_grid_couplings,
    run_fig_bounds,
    run_fig_fixed_points,
    run_fig_gaussian,
    run_fig_ising_fully,
    run_fig_ising_hom,
    run_fig_potts_frustrated,
)
from nfgdual.mapping import ISING_CRITICAL, potts_fixed_point
from nfgdual.validate import check_fixed_point_grid
from nfgdual.graphs import grid_graph


class TestRegistry:
    def test_every_named_runner_present(self):
        assert set(EXPERIMENTS) == {
            "fig-ising-hom", "fig-ising-halfnormal", "fig-ising-fully",
            "fig-potts-frustrated", "fig-gaussian", "fig-fixed-points",
            "fig-bounds",
        }

    def test_only_the_sampling_runners_take_samples(self):
        takes = {name for name, runner in EXPERIMENTS.items()
                 if "samples" in inspect.signature(runner).parameters}
        assert takes == {"fig-ising-hom", "fig-gaussian"}

    def test_only_the_seeded_runners_take_seed_and_quick(self):
        # the two curve runners draw nothing and have no reduced size
        for option in ("seed", "quick"):
            takes = {name for name, runner in EXPERIMENTS.items()
                     if option in inspect.signature(runner).parameters}
            assert takes == set(EXPERIMENTS) - {"fig-fixed-points", "fig-bounds"}, option

    @pytest.mark.parametrize("name,count", [
        (name, count) for name, runner in EXPERIMENTS.items()
        for count in ("rows", "cols", "n", "realizations", "chains")
        if count in inspect.signature(runner).parameters
    ])
    def test_counts_below_one_refused_by_name(self, name, count):
        # an explicit zero used to fall back to the default (chains=0 ran 2 chains),
        # 2.5 reached range() as a TypeError and True ran one realization
        for value in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match=f"^{count} must be an integer of at least 1"):
                EXPERIMENTS[name](quick=True, **{count: value})


class TestCsvOutput:
    def test_write_roundtrip(self, tmp_path):
        report = run_fig_bounds()
        out = tmp_path / "bounds.csv"
        report.write(str(out))
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == len(report.rows)
        sidecar = json.loads((tmp_path / "bounds.schema.json").read_text())
        assert [c["name"] for c in sidecar["columns"]] == [n for n, _ in report.columns]
        # RFC-4180 with LF line endings
        raw = out.read_bytes()
        assert b"\r" not in raw

    def test_reports_are_reproducible(self, tmp_path):
        a = run_fig_ising_fully(seed=3, quick=True, n=5, realizations=3,
                                beta_x_values=[0.15, 0.35])
        b = run_fig_ising_fully(seed=3, quick=True, n=5, realizations=3,
                                beta_x_values=[0.15, 0.35])
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write(str(pa))
        b.write(str(pb))
        assert pa.read_bytes() == pb.read_bytes()


class TestBoundsAndFixedPointCurves:
    def test_bounds_intersect_at_marked_gridpoint(self):
        report = run_fig_bounds()
        ising_rows = [r for r in report.rows if r[0] == "ising"]
        marked = [r for r in ising_rows if r[6]]
        assert len(marked) == 1
        row = marked[0]
        assert row[2] == pytest.approx(ISING_CRITICAL, abs=0.005)
        assert abs(row[3] - row[4]) < 2e-3  # bounds meet at the nearby criticality
        products = np.array([r[5] for r in ising_rows])
        assert np.allclose(products, 0.5, atol=1e-12)

    def test_fixed_point_minimum_at_marked_gridpoint(self):
        report = run_fig_fixed_points()
        for family, q in (("ising", 2), ("potts", 3), ("potts", 100), ("clock", 4)):
            rows = [r for r in report.rows if r[0] == family and r[1] == q]
            values = np.array([r[3] for r in rows])
            marked = [i for i, r in enumerate(rows) if r[6]]
            assert len(marked) == 1
            assert int(np.argmin(values)) == marked[0]

    def test_potts_q3_marked_value(self):
        report = run_fig_fixed_points()
        row = next(r for r in report.rows if r[0] == "potts" and r[1] == 3 and r[6])
        assert row[2] == pytest.approx(1.005, abs=0.0051)  # nearest 0.01-grid point
        assert row[3] == pytest.approx(0.7887, abs=5e-4)


class TestFixedPointGridCheck:
    def test_fails_when_the_runner_moves_the_q3_minimum(self, monkeypatch):
        # negative control: the check reads the fig-fixed-points rows, so a
        # curve shifted by 0.2 in the coupling must be caught and named
        def shifted(q, bj):
            return potts_fixed_point(q, bj + 0.2 if q == 3 else bj)

        monkeypatch.setattr(experiments, "potts_fixed_point", shifted)
        passed, detail = check_fixed_point_grid(0)
        assert not passed
        assert detail.endswith("failed: ['potts q=3 component 0']")


class TestFrustratedConstruction:
    @pytest.mark.parametrize("rows,cols", [(3, 4), (6, 6), (4, 5)])
    def test_every_plaquette_has_exactly_one_antiferro_edge(self, rows, cols):
        g, couplings, target = frustrated_grid_couplings(rows, cols, 0.8)
        edge_index = {}
        for e, (t, h) in enumerate(g.edges):
            edge_index[(min(t, h), max(t, h))] = e
        for r in range(rows - 1):
            for c in range(cols - 1):
                corners = [r * cols + c, r * cols + c + 1,
                           (r + 1) * cols + c, (r + 1) * cols + c + 1]
                plaq = [
                    edge_index[(corners[0], corners[1])],
                    edge_index[(corners[2], corners[3])],
                    edge_index[(corners[0], corners[2])],
                    edge_index[(corners[1], corners[3])],
                ]
                negatives = sum(couplings[e] < 0 for e in plaq)
                assert negatives == 1
                assert np.prod(couplings[plaq]) < 0  # frustrated
        assert couplings[target] > 0  # reported edge is ferromagnetic

    @pytest.mark.parametrize("rows,cols", [(1, 4), (3, 1)])
    def test_grid_without_plaquette_refused(self, rows, cols):
        # with no plaquette the reported edge was None, and the runner died
        # with "only 0-dimensional arrays can be converted"
        with pytest.raises(ValueError, match="^rows and cols must be at least 2"):
            frustrated_grid_couplings(rows, cols, 0.8)
        with pytest.raises(ValueError, match="^rows and cols must be at least 2"):
            run_fig_potts_frustrated(quick=True, rows=rows, cols=cols)

    def test_quick_run_has_exact_reference(self):
        report = run_fig_potts_frustrated(quick=True, beta_ferr_values=[0.45])
        row = report.rows[0]
        assert np.isfinite(row[2])          # exact pi_p,e(0)
        assert np.isfinite(row[4])          # primal-BP error
        assert row[4] < 0.2


class TestSamplingRunners:
    def test_ising_hom_quick_errors_within_band(self):
        report = run_fig_ising_hom(seed=11, quick=True, samples=2_000,
                                   rows=3, cols=3, betas=[0.05, 0.45])
        for row in report.rows:
            assert np.isfinite(row[1])      # exact available at 3x3
            assert row[3] < 0.05            # primal BP close
            assert row[11] < 0.05           # swp close at modest samples

    def test_gaussian_runner_on_one_vertex_refused_by_cause(self):
        with pytest.raises(ValueError, match="the graph has no edges"):
            run_fig_gaussian(quick=True, n=1, samples=5)

    def test_gaussian_runner_trajectories(self):
        report = run_fig_gaussian(seed=1, quick=True, n=5, chains=2, samples=20)
        assert len(report.rows) == 3 * 2 * 20
        last = [r for r in report.rows if r[0] == 40.0 and r[2] == 20]
        for row in last:
            assert row[7] < 0.05  # mapped dual estimate near exact even early
        # at s=1 the dual route is erratic: nan rows are legitimate there
        s1 = [r for r in report.rows if r[0] == 1.0]
        assert any(np.isfinite(r[3]) for r in s1)
        # the default burn-in, 10 sweeps per variable of each chain
        assert report.params["burn_in_primal"] == 10 * 25
        assert report.params["burn_in_dual"] == 10 * 50
