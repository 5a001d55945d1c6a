"""Shared fixtures for the benchmark harness.

Every figure of the paper's evaluation has one benchmark module here.  The
benchmarks run the same experiment drivers as ``repro.experiments.figures``,
at a scale small enough for a pure-Python engine; run them with::

    pytest benchmarks/ --benchmark-only

Each module prints the regenerated series/summary for its figure, with the
execution path of every series, so the textual output of a benchmark run
doubles as the reproduction report.  Where a figure's direction of effect
holds on this implementation, its module asserts it over sums of 10 ms or
more (see ``benchmarks/README.md``).

Running benchmarks in CI
------------------------
Two environment variables keep CI runs fast and comparable:

* ``REPRO_BENCH_SMOKE=1`` switches the whole suite to *smoke scale*: small
  JOB/LSQB workloads, so the full benchmark run finishes in minutes.  The
  CI workflow (``.github/workflows/ci.yml``) runs this suite and
  ``scripts/make_report.py`` in this mode and uploads the machine-readable
  ``BENCH_smoke.json`` the report emits as a build artifact.
* ``REPRO_SEED=<int>`` overrides the workload generator seeds.  The JOB and
  LSQB generators are deterministic for a fixed seed (asserted by
  ``tests/test_workloads.py``), so smoke numbers are comparable across CI
  runs as long as the seed is pinned.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.workloads.job import generate_job_workload
from repro.workloads.lsqb import generate_lsqb_workload

#: Smoke mode: smaller scales so CI finishes in minutes.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Generator seeds; ``REPRO_SEED`` pins both so CI numbers are comparable.
JOB_SEED = int(os.environ.get("REPRO_SEED", "42"))
LSQB_SEED = int(os.environ.get("REPRO_SEED", "7"))

#: JOB scale used by the benchmarks (the full generator scale is 1.0).  At
#: smoke scale the gated sums of Figures 14 and 17 still exceed 10 ms.
JOB_SCALE = 0.06 if BENCH_SMOKE else 0.1
#: Subset of JOB-like queries used by per-engine comparison benchmarks.
JOB_QUERIES = ["q01", "q03", "q05", "q06", "q08", "q11", "q13", "q16", "q19"]
#: LSQB scale factors swept by the benchmarks (paper: 0.1, 0.3, 1, 3).
LSQB_SCALE_FACTORS = (0.05,) if BENCH_SMOKE else (0.1, 0.3)
#: Engines compared throughout.
ENGINES = ("freejoin", "binary", "generic")


#: This directory — the hook below receives ALL collected items (the hook is
#: global even when defined in a sub-directory conftest), so it must filter.
_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so ``-m "not bench"`` deselects it."""
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def job_workload():
    """The JOB-like workload shared by all JOB benchmarks."""
    return generate_job_workload(scale=JOB_SCALE, seed=JOB_SEED)


@pytest.fixture(scope="session")
def job_database(job_workload):
    """A Database over the JOB-like catalog (statistics cached across queries)."""
    return Database(job_workload.catalog)


@pytest.fixture(scope="session")
def lsqb_workloads():
    """LSQB-like workloads keyed by scale factor."""
    return {
        scale_factor: generate_lsqb_workload(scale_factor=scale_factor, seed=LSQB_SEED)
        for scale_factor in LSQB_SCALE_FACTORS
    }


def run_queries(database, workload, engine, query_names, freejoin_options=None,
                bad_estimates=False):
    """Run a list of queries on one engine; return total reported join seconds."""
    total = 0.0
    for name in query_names:
        query = workload.query(name)
        outcome = database.execute(
            query.sql,
            options=ExecOptions(
                engine=engine,
                freejoin_options=freejoin_options,
                bad_estimates=bad_estimates,
            ),
            name=name,
        )
        total += outcome.report.total_seconds
    return total
