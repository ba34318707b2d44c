"""Smoke tests for every experiment module at tiny scale."""

import os
import subprocess
import sys

import pytest

from repro.experiments import (
    fig1_idle_fraction,
    fig2_accessbit_scatter,
    fig3_slowmem_rate,
    fig4_example,
    fig5to10_footprint,
    fig11_slowdown_sweep,
    table1_thp_gain,
    table2_footprints,
    table3_migration,
    table4_cost,
)
from repro.experiments.runner import EXPERIMENTS, main as runner_main

SCALE = 0.03
SEED = 1


class TestFig1:
    def test_runs_and_renders(self):
        results = fig1_idle_fraction.run(scale=SCALE, seed=SEED, windows=5)
        assert len(results) == 6
        assert all(0.0 <= r.idle_fraction <= 1.0 for r in results)
        text = fig1_idle_fraction.render(results)
        assert "mysql-tpcc" in text

    def test_mysql_has_most_idle_data(self):
        results = {
            r.workload: r for r in fig1_idle_fraction.run(SCALE, SEED, windows=5)
        }
        assert results["mysql-tpcc"].idle_fraction == max(
            r.idle_fraction for r in results.values()
        )

    def test_redis_idle_placement_costly(self):
        """The Figure 1 caption: placing Redis's idle pages blows through
        the 3% target."""
        results = {
            r.workload: r for r in fig1_idle_fraction.run(SCALE, SEED, windows=5)
        }
        assert results["redis"].placement_slowdown > 0.03
        assert results["web-search"].placement_slowdown < 0.01


class TestFig2:
    def test_scatter_is_dispersed(self):
        result = fig2_accessbit_scatter.run(scale=SCALE, seed=SEED,
                                            monitored_pages=150)
        assert abs(result.pearson_r()) < 0.5
        assert "pearson" in fig2_accessbit_scatter.render(result)

    def test_point_per_monitored_page(self):
        result = fig2_accessbit_scatter.run(scale=SCALE, seed=SEED,
                                            monitored_pages=100)
        assert result.hot_subpage_counts.size == 100
        assert result.true_rates.size == 100


class TestTable1:
    def test_rows_and_render(self):
        rows = table1_thp_gain.run()
        assert len(rows) == 6
        assert "Redis" in table1_thp_gain.render(rows) or "redis" in table1_thp_gain.render(rows)


class TestTable2:
    def test_footprints_scale(self):
        rows = table2_footprints.run(scale=SCALE)
        for row in rows:
            total_model = row.resident_bytes + row.file_mapped_bytes
            total_paper = row.paper_resident + row.paper_file_mapped
            # Growing workloads (Cassandra) report their pre-growth RSS, so
            # allow a generous tolerance on the initial footprint.
            assert total_model == pytest.approx(total_paper * SCALE, rel=0.35)
        assert "Table 2" in table2_footprints.render(rows)


class TestFig3:
    def test_rates_recorded(self):
        results = fig3_slowmem_rate.run(scale=SCALE, seed=SEED)
        assert len(results) == 6
        for result in results:
            assert len(result.series) > 0
            assert result.target_rate == pytest.approx(30_000)
        assert "target" in fig3_slowmem_rate.render(results)


class TestFig4:
    def test_example_classifies_correctly(self):
        result = fig4_example.run()
        assert result.cold_pages
        assert not result.cold_pages.intersection(result.hot_page_ids)
        assert result.total_poison_faults > 0
        # Every period split some pages (scan 1 of the pipeline).
        assert all(r.sampled for r in result.reports)
        assert "Figure 4" in fig4_example.render(result)


class TestFig5to10:
    def test_each_figure_renders(self):
        figures = fig5to10_footprint.run(scale=SCALE, seed=SEED)
        assert len(figures) == 6
        for fig in figures:
            text = fig5to10_footprint.render(fig)
            assert fig.workload in text
            assert 0.0 <= fig.final_cold_fraction <= 1.0
        assert "summary" in fig5to10_footprint.summary_table(figures).lower()

    def test_breakdown_series_conserve_footprint(self):
        figures = fig5to10_footprint.run(scale=SCALE, seed=SEED)
        fig = next(f for f in figures if f.workload == "mysql-tpcc")
        total = sum(
            fig.result.series(k).values[-1]
            for k in ("cold_2mb_bytes", "cold_4kb_bytes",
                      "hot_2mb_bytes", "hot_4kb_bytes")
        )
        assert total == fig.result.state.num_huge_pages * 2 * 1024 * 1024


class TestFig11:
    def test_cells_and_render(self):
        cells = fig11_slowdown_sweep.run(scale=SCALE, seed=SEED,
                                         targets=(0.03, 0.06))
        assert len(cells) == 12
        assert "Figure 11" in fig11_slowdown_sweep.render(cells)


class TestTable3:
    def test_rows_positive(self):
        rows = table3_migration.run(scale=SCALE, seed=SEED)
        assert len(rows) == 6
        for row in rows:
            assert row.migration_mbps >= 0
            assert row.correction_mbps >= 0
        assert "Table 3" in table3_migration.render(rows)


class TestTable4:
    def test_structure_and_bounds(self):
        rows = table4_cost.run(scale=SCALE, seed=SEED)
        assert len(rows) == 6
        for row in rows:
            for _ratio, saving in row.savings.items():
                assert 0.0 <= saving <= row.cold_fraction
        assert "Table 4" in table4_cost.render(rows)


class TestRunnerCli:
    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table4" in out

    def test_registry_complete(self):
        paper = {
            "fig1", "fig2", "fig3", "fig4", "fig5to10", "fig11",
            "table1", "table2", "table3", "table4",
        }
        extensions = {"ext-counting", "ext-wear", "ext-latency", "ext-oracle",
                      "ext-thp", "ext-faults", "ext-fleet", "ext-service"}
        assert set(EXPERIMENTS) == paper | extensions

    def test_single_experiment(self, capsys):
        assert runner_main(["table2", "--scale", str(SCALE)]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_starts_without_scipy(self):
        """numpy is the runner's only declared dependency (scipy is a dev
        extra), so it must import and run with scipy unimportable."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.experiments.runner import main\n"
            "raise SystemExit(main(['table2', '--scale', '0.01']))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=120,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Table 2" in proc.stdout

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            runner_main(["fig99"])

    def test_failed_experiment_summarized_and_rest_continue(
        self, capsys, monkeypatch
    ):
        from repro.experiments import runner

        def boom(scale, seed, jobs):
            raise RuntimeError("synthetic failure\nwith a second line")

        monkeypatch.setitem(runner.EXPERIMENTS, "fig1", boom)
        assert runner_main(["fig1", "table2", "--scale", str(SCALE)]) == 1
        out = capsys.readouterr().out
        assert "[FAILED fig1: RuntimeError: synthetic failure]" in out
        assert "Table 2" in out  # the batch continued past the failure
        assert "[1 experiment(s) failed: fig1]" in out


class TestFig2Extended:
    def test_suite_wide_correlations(self):
        results = fig2_accessbit_scatter.run_all(
            scale=SCALE, seed=SEED, monitored_pages=80
        )
        assert len(results) == 6
        by_name = {r.workload: r for r in results}
        # Redis is the showcase: its Accessed-bit signal is uninformative.
        assert abs(by_name["redis"].spearman_r()) < 0.5
        text = fig2_accessbit_scatter.render_all(results)
        assert "all workloads" in text


class TestRunnerOutputDir:
    def test_reports_and_csvs_written(self, tmp_path, capsys):
        assert runner_main(
            ["table2", "--scale", str(SCALE), "--output-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert (tmp_path / "table2.txt").exists()
        series = list(tmp_path.glob("series_*.csv"))
        assert len(series) == 6
        header = series[0].read_text().splitlines()[0]
        assert header.startswith("time,")
