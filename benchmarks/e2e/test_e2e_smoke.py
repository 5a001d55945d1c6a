"""Tier-1 smoke test of the end-to-end benchmark.

Runs all six workloads at ``--scale smoke`` with tracing on, each in an
interpreter of its own (side by side: timings do not matter here), and checks
the plumbing: the driver's contract line, the metric x workload grid, span
nesting, and the counters predicted to stay flat.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Workloads whose ops all name their engine and run on one worker.
EXPLICIT_ENGINE = [name for name in WORKLOADS if name != "append_serve"]
SERIAL = [name for name in WORKLOADS if name != "steal_parallel"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{workload: (contract line, full record)}`` of one traced smoke run."""
    out = tmp_path_factory.mktemp("e2e")
    started = {}
    for name in WORKLOADS:
        command = [
            sys.executable, "-W", "error::DeprecationWarning", str(HERE / "run.py"),
            "--workload", name, "--scale", "smoke", "--rounds", "1", "--trace", "1",
            "--json", str(out / f"{name}.json"),
        ]  # fmt: skip
        started[name] = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
    finished = {}
    for name, process in started.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{name}:\n{stdout[-2000:]}\n{stderr[-4000:]}"
        assert "DeprecationWarning" not in stderr, stderr[-4000:]
        line = json.loads(stdout.strip().splitlines()[-1])
        finished[name] = (line, json.loads((out / f"{name}.json").read_text()))
    return finished


def _finite(entry) -> bool:
    return isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_benchmark_json_meets_the_contract():
    from benchmarks.e2e.layers import PER_LAYER

    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER


def test_contract_line_and_complete_grid(runs):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(runs) == set(WORKLOADS)
    for name, (line, record) in runs.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, name
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == per_layer, name
        assert all(_finite(entry) for entry in line["metrics"].values()), name
        measured = record["end_to_end"]
        assert {k: v["unit"] for k, v in measured.items()} == end_to_end, name
        assert all(_finite(e) and e["value"] > 0 for e in measured.values()), name
        assert record["provenance"]["seed"] == 7 and record["provenance"]["nproc"] >= 1
        for op in record["ops"].values():
            assert op["samples"] >= 1 and op["median_ms"] > 0


def test_spans_nest_under_their_op(runs):
    for name, (_line, record) in runs.items():
        spans = record["spans"]
        assert spans, name
        children = {}
        for index, span in enumerate(spans):
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                assert span["name"].startswith("op:"), name
                continue
            parent = spans[span["parent"]]
            assert span["parent"] < index and parent["op_id"] == span["op_id"], name
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            children.setdefault(span["parent"], []).append(span["end"] - span["start"])
        for parent, durations in children.items():
            whole = spans[parent]["end"] - spans[parent]["start"]
            assert sum(durations) <= whole + 1e-9, (name, spans[parent]["name"])


def test_counters_predicted_flat_stay_flat(runs):
    def value(name, metric):
        return runs[name][0]["metrics"][metric]["value"]

    for name in SERIAL:
        assert value(name, "parallel.tasks") == 0, name
    if len(os.sched_getaffinity(0)) >= 2:
        assert value("steal_parallel", "parallel.tasks") > 0
    for name in EXPLICIT_ENGINE:
        assert value(name, "router.routed") == 0, name
    assert value("append_serve", "router.routed") > 0
    assert value("append_serve", "serve.rejected") == 0
    assert value("append_serve", "views.delta_frac") > 0
    assert value("append_serve", "views.reexecutions") > 0
    assert value("paper_rowpath", "kernels.vectorized_frac") == 0
    for name in ("job_warm", "lsqb_count", "fanout_deliver"):
        assert value(name, "kernels.vectorized_frac") == 1, name
    assert value("fanout_deliver", "engine.stream_batches") > 0


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only the benchmark, the command must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert completed.returncode != 0
    assert not completed.stdout.strip()
