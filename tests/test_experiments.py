"""Tests for the experiment harness, report helpers, and figure drivers.

The figure drivers are exercised at a very small scale and with a restricted
query list so the whole module runs in seconds; the benchmarks in
``benchmarks/`` run them at the reporting scale.
"""

import os

import pytest

from repro.engine.session import Database
from repro.errors import ReproError
from repro.experiments.figures import (
    format_figure,
    run_ablation_cover,
    run_ablation_factoring,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_fig20,
)
from repro.experiments.harness import Measurement, pivot_by_engine, run_query, run_suite
from repro.experiments.report import (
    format_measurements,
    format_records,
    format_scatter,
    geometric_mean,
    speedup_summary,
    speedups,
    summarize_headline,
)
from repro.workloads.job import BenchmarkQuery, generate_job_workload

TINY = dict(scale=0.02, query_names=["q01", "q03"])


@pytest.fixture(scope="module")
def fig14():
    return run_fig14(**TINY)


def _measurement(query, engine, seconds, variant="default", category="acyclic",
                 path="paper"):
    return Measurement(
        workload="test", query=query, engine=engine, variant=variant,
        seconds=seconds, build_seconds=seconds / 2, join_seconds=seconds / 2,
        output_rows=10, path=path, category=category,
    )


class TestReportHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)

    def test_speedups_and_summary(self):
        measurements = [
            _measurement("q1", "binary", 1.0), _measurement("q1", "freejoin", 0.5),
            _measurement("q2", "binary", 2.0), _measurement("q2", "freejoin", 0.5),
        ]
        ratios = speedups(measurements, "binary", "freejoin")
        assert ratios == {"q1": 2.0, "q2": 4.0}
        summary = speedup_summary(measurements, "binary", "freejoin")
        assert summary["geomean"] == pytest.approx((2.0 * 4.0) ** 0.5)
        assert summary["max"] == 4.0 and summary["min"] == 2.0 and summary["count"] == 2

    def test_pivot_uses_variant_when_needed(self):
        measurements = [
            _measurement("q1", "freejoin", 1.0, variant="colt"),
            _measurement("q1", "freejoin", 2.0, variant="simple"),
        ]
        table = pivot_by_engine(measurements)
        assert set(table["q1"]) == {"freejoin/colt", "freejoin/simple"}

    def test_pivot_uses_path_when_needed(self):
        measurements = [
            _measurement("q1", "freejoin", 1.0, path="paper"),
            _measurement("q1", "freejoin", 2.0, path="kernels"),
            _measurement("q1", "binary", 2.0, path="kernels"),
        ]
        table = pivot_by_engine(measurements)
        assert set(table["q1"]) == {"freejoin/paper", "freejoin/kernels", "binary/kernels"}

    def test_formatting_produces_aligned_text(self):
        measurements = [_measurement("q1", "binary", 1.0), _measurement("q1", "freejoin", 0.5)]
        text = format_measurements(measurements)
        assert "binary" in text and "freejoin" in text
        scatter = format_scatter(measurements, "binary", ["freejoin"])
        assert "freejoin_speedup" in scatter.splitlines()[0]
        records = format_records([{"a": 1, "b": 2.5}], ["a", "b"])
        assert records.splitlines()[0].startswith("a")

    def test_summarize_headline_by_category(self):
        measurements = [
            _measurement("q1", "binary", 1.0), _measurement("q1", "freejoin", 0.5),
            _measurement("q1", "generic", 2.0),
            _measurement("q2", "binary", 1.0, category="cyclic"),
            _measurement("q2", "freejoin", 0.25, category="cyclic"),
            _measurement("q2", "generic", 1.0, category="cyclic"),
        ]
        summary = summarize_headline(measurements)
        assert set(summary) == {"all", "acyclic", "cyclic"}
        assert summary["cyclic"]["vs_binary_geomean"] == pytest.approx(4.0)


class TestHarness:
    def test_run_suite_produces_one_measurement_per_engine(self):
        workload = generate_job_workload(scale=0.02, seed=1)
        measurements = run_suite(
            workload.catalog, workload.queries, ["freejoin", "binary"],
            workload="job", query_names=["q01"],
        )
        assert len(measurements) == 2
        assert {m.engine for m in measurements} == {"freejoin", "binary"}
        assert all(m.seconds >= 0 for m in measurements)
        assert all(m.output_rows >= 0 for m in measurements)
        record = measurements[0].as_record()
        assert record["query"] == "q01"
        assert record["path"] == "paper"

    def test_paths_switch_the_kernels(self):
        workload = generate_job_workload(scale=0.02, seed=1)
        query = workload.query("q01")
        database = Database(workload.catalog)
        paper = run_query(database, query, "freejoin")
        kernels = run_query(database, query, "freejoin", path="kernels")
        assert (paper.path, kernels.path) == ("paper", "kernels")
        assert paper.output_rows == kernels.output_rows
        assert paper.build_seconds > 0
        with pytest.raises(ValueError, match="path"):
            run_query(database, query, "freejoin", path="rows")

    @pytest.mark.parametrize("prior", [None, "off", "on"])
    @pytest.mark.parametrize("path", ["paper", "kernels"])
    def test_run_suite_restores_the_kernel_switch(self, monkeypatch, prior, path):
        if prior is None:
            monkeypatch.delenv("REPRO_KERNELS", raising=False)
        else:
            monkeypatch.setenv("REPRO_KERNELS", prior)
        workload = generate_job_workload(scale=0.02, seed=1)
        run_suite(workload.catalog, workload.queries, ["binary"], query_names=["q01"], path=path)
        assert os.environ.get("REPRO_KERNELS") == prior
        broken = [BenchmarkQuery("broken", "SELECT COUNT(*) FROM no_such_table")]
        with pytest.raises(ReproError):
            run_suite(workload.catalog, broken, ["binary"], path=path)
        assert os.environ.get("REPRO_KERNELS") == prior


class TestFigureDrivers:
    def test_fig14_and_formatting(self, fig14):
        result = fig14
        measurements = result["measurements"]
        assert len(measurements) == 2 * 2 * 3
        assert {m.path for m in measurements} == {"paper", "kernels"}
        assert set(result["path_seconds"]) == {"paper", "kernels"}
        assert "summary" in result
        text = format_figure(result)
        assert "fig14" in text and "kernels" in text and "paper" in text

    def test_fig14_paper_path_builds(self, fig14):
        paper = [m for m in fig14["measurements"] if m.path == "paper"]
        assert len(paper) == 2 * 3
        assert all(m.build_seconds > 0 for m in paper)

    def test_fig14_kernel_series_is_labelled(self, fig14):
        kernels = [m for m in fig14["measurements"] if m.path == "kernels"]
        assert {m.engine for m in kernels} == {"freejoin", "binary", "generic"}
        table = pivot_by_engine(fig14["measurements"])
        for by_series in table.values():
            assert set(by_series) == {
                f"{engine}/{path}"
                for engine in ("freejoin", "binary", "generic")
                for path in ("paper", "kernels")
            }

    def test_every_figure_names_its_path(self):
        results = [
            run_fig15(**TINY),
            run_fig16(scale_factors=[0.05], query_names=["q1"]),
            run_fig17(**TINY),
            run_fig18(scale=0.02, query_names=["q01"], batch_sizes=(1, 4)),
            run_fig19(scale_factors=[0.05], query_names=["q1"]),
            run_fig20(**TINY),
        ]
        for result in results:
            assert {m.path for m in result["measurements"]} == {"paper"}, result["figure"]
            assert "paper" in format_figure(result)

    def test_fig15_uses_bad_estimates(self):
        result = run_fig15(**TINY)
        assert all(m.variant == "bad-estimates" for m in result["measurements"])

    def test_fig16_series_includes_kuzu_role(self):
        result = run_fig16(scale_factors=[0.05], query_names=["q1", "q2"])
        engines = {m.engine for m in result["measurements"]}
        assert "generic-unoptimized" in engines
        assert format_figure(result)

    def test_fig17_trie_ablation(self):
        result = run_fig17(**TINY)
        variants = {m.variant for m in result["measurements"]}
        assert variants == {"simple", "slt", "colt"}
        assert "colt_vs_simple" in result["summary"]
        assert set(result["summary"]["build_seconds"]) == {"simple", "slt", "colt"}

    def test_fig18_batch_ablation(self):
        result = run_fig18(scale=0.02, query_names=["q01"], batch_sizes=(1, 4))
        variants = {m.variant for m in result["measurements"]}
        assert variants == {"batch1", "batch4"}

    def test_fig19_factorized_output(self):
        result = run_fig19(scale_factors=[0.05], query_names=["q1", "q4"])
        variants = {m.variant for m in result["measurements"]}
        assert variants == {"flat", "factorized"}
        by_variant = {}
        for m in result["measurements"]:
            by_variant.setdefault((m.query, m.scale), {})[m.variant] = m.output_rows
        for counts in by_variant.values():
            assert counts["flat"] == counts["factorized"]

    def test_fig20_robustness_panels(self):
        result = run_fig20(**TINY)
        assert set(result["panels"]) == {"freejoin", "binary", "generic"}
        assert set(result["geomean_slowdown"]) == {"freejoin", "binary", "generic"}

    def test_ablations_and_headline(self, fig14):
        factoring = run_ablation_factoring(**TINY)
        assert {m.variant for m in factoring["measurements"]} == {"factored", "unfactored"}
        cover = run_ablation_cover(**TINY)
        assert {m.variant for m in cover["measurements"]} == {"dynamic", "static"}
        assert fig14["summary"]["all"]["queries"] == 2
