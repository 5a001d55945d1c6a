"""The repo's end-to-end benchmark: one command, every metric, every check.

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 7

With exactly one ``--workload`` the run happens in this interpreter and the
last line of standard output is one JSON object (the driver's contract).
Otherwise each workload runs in an interpreter of its own -- kernel, program
and index caches, steal pools and peak RSS are process-global -- once
untraced for the end-to-end metrics and once traced for the per-layer ones.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The documented default; README.md also names a held-out seed.
DEFAULT_SEED = 7

#: At least this many timed rounds, however short ``--seconds`` is.
MIN_ROUNDS = 2

#: Set-up (generate + open + warm-up round) is repeated this many times per
#: run and ``setup_s`` is the median, so one cold import does not decide it.
SETUP_REPEATS = 3

#: Set before ``repro`` is imported; the only switch the program has.
ENVIRONMENT = {"paper_rowpath": {"REPRO_KERNELS": "off"}}


def _import_program() -> None:
    """Put the checkout's ``src`` on the path, or stop: nothing to measure."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _stop_children() -> None:
    """Stop every process this interpreter started and wait for each to end.

    The process backend starts ``multiprocessing``'s resource tracker, which
    ends only once this interpreter's pipe to it closes: left alone it
    outlives the run, with nobody to wait for it.  Registered before the
    program is imported, so it runs after the program's own exit hooks, on
    every path out.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # none after a clean close
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    try:
        while True:
            os.waitpid(-1, 0)
    except ChildProcessError:
        pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _provenance(seed: int, scale: str) -> Dict[str, object]:
    import numpy

    from benchmarks.e2e.harness import nproc

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "scale": scale,
    }


# --------------------------------------------------------------------------- #
# One workload, in this interpreter
# --------------------------------------------------------------------------- #


def _set_up(cls, seed: int, scale: str, warmup, expected: Dict[str, str]):
    """Set up ``SETUP_REPEATS`` times; keep the last instance.

    Set-up is: generate inputs from the seed, register tables, open
    sessions, pools and subscriptions, and one untimed warm-up round.  The
    harness's own work in that round (gc, digests) is not counted.
    """
    from repro.kernels import kernel_caches_clear

    from benchmarks.e2e.harness import median, run_round

    seconds: List[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            kernel_caches_clear()
            expected.clear()
        overhead = warmup.gc_s + warmup.check_s
        started = time.perf_counter()
        workload = cls(seed, scale)
        workload.open()
        run_round(workload.round(0), warmup, expected)
        elapsed = time.perf_counter() - started
        seconds.append(elapsed - (warmup.gc_s + warmup.check_s - overhead))
    return workload, median(seconds)


def _cross_check(workload, expected, scale, seed, tally, update_golden) -> None:
    """Once per run: kernel switch flipped, naive oracle, golden digests."""
    from repro import kernels as kernel_plane
    from repro.engine.options import ExecOptions
    from repro.engine.session import Database
    from repro.experiments.differential import reference_rows
    from repro.query.sql import parse_sql

    from benchmarks.e2e.harness import digest
    from benchmarks.e2e.workloads import kernels

    def expect(query_id: str, got: str, what: str) -> None:
        tally.attempted += 1
        want = expected.setdefault(query_id, got)
        if got != want:
            tally.fail(f"{query_id}: {what} gives {got}, ops gave {want}")

    for query_id, got in workload.extra_digests.items():
        expect(query_id, got, "the workload's own run")
    checker = Database(workload.catalog)
    flipped = not kernel_plane.enabled()
    for query in workload.queries:
        if query.id not in expected:
            continue  # checked against a re-execution op by op instead
        if scale == "smoke" or query.toggle_at_full:
            with kernels(flipped):
                outcome = checker.execute(
                    query.sql, options=ExecOptions(engine="freejoin")
                )
            expect(
                query.id,
                digest(outcome.table, query.ordered),
                f"kernels {'on' if flipped else 'off'}",
            )
        if scale == "smoke" and query.oracle:
            rows = reference_rows(workload.catalog, parse_sql(query.sql))
            expect(query.id, digest(rows, query.ordered), "the naive oracle")

    if workload.results_depend_on_seed and seed != DEFAULT_SEED:
        return
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    if update_golden:
        golden.setdefault(scale, {})[workload.name] = dict(sorted(expected.items()))
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    tally.attempted += 1
    if golden.get(scale, {}).get(workload.name) != expected:
        tally.fail(
            f"{workload.name}: digests differ from golden.json for seed {seed} "
            f"at scale {scale}: {dict(sorted(expected.items()))}"
        )


def _cold_probes(workload) -> Dict[str, float]:
    """What the first call pays with the kernel and statistics caches empty,
    and what the serving hop adds: layer metrics measured after the rounds."""
    from repro.kernels import kernel_caches_clear
    from repro.optimizer.join_order import optimize_query
    from repro.optimizer.statistics import StatisticsCache
    from repro.query.planner import Planner

    from benchmarks.e2e.trace import Tracer

    cold_run = 0.0
    for op in workload.probe_ops():
        kernel_caches_clear()
        tracer = Tracer()
        with tracer.op(op.name) as root:
            op.trace(tracer)
        spans = tracer.child_durations(root)
        cold_run += spans.get("engine.run_join", root.end - root.start)
    probes = {"kernels.cold_run_ms": cold_run * 1e3}

    cold_optimize = 0.0
    for query in workload.queries:
        logical = Planner(workload.catalog).plan_sql(query.sql)
        started = time.perf_counter()
        optimize_query(logical.query, statistics_cache=StatisticsCache())
        cold_optimize += time.perf_counter() - started
    probes["optimizer.cold_optimize_ms"] = cold_optimize * 1e3

    if hasattr(workload, "serve_overhead_ms"):
        served, direct = workload.serve_overhead_ms()
        probes["serve.overhead_ms"] = served - direct
        probes["serve.overhead_ms.base_direct_ms"] = direct
    return probes


def run_workload(
    name: str,
    seed: int,
    scale: str,
    seconds: float,
    rounds: Optional[int],
    trace: bool,
    update_golden: bool = False,
) -> Dict[str, object]:
    """Set up, check, time and tear down one workload in this interpreter."""
    os.environ.update(ENVIRONMENT.get(name, {}))
    _import_program()
    from benchmarks.e2e.harness import (
        Tally,
        end_to_end_metrics,
        per_op_summary,
        run_round,
    )
    from benchmarks.e2e.layers import layer_metrics
    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import WORKLOADS

    expected: Dict[str, str] = {}
    warmup, plain, traced, serial = Tally(), Tally(), Tally(), Tally()
    workload, setup_s = _set_up(WORKLOADS[name], seed, scale, warmup, expected)
    _cross_check(workload, expected, scale, seed, warmup, update_golden)

    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    done = 0
    index = itertools.count(1)  # round 0 was the warm-up
    while True:
        # A traced pass interleaves untraced rounds: their difference is the
        # tracing overhead, measured in the same process on the same inputs.
        done += 1
        run_round(workload.round(next(index)), plain, expected)
        if trace:
            run_round(workload.round(next(index)), traced, expected, tracer)
            run_round(iter(workload.serial_ops), serial, expected)
        if done >= (rounds or MIN_ROUNDS) and (
            rounds is not None or time.perf_counter() >= deadline
        ):
            break

    probes = _cold_probes(workload) if trace else {}
    workload.close()

    tallies = (warmup, plain, traced, serial)
    record: Dict[str, object] = {
        "workload": name,
        "trace": trace,
        "rounds": done,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "failures": [f for t in tallies for f in t.failures],
        "ops": per_op_summary(traced if trace else plain),
        "provenance": _provenance(seed, scale),
    }
    if not plain.samples or (trace and not traced.samples):
        record["metrics"] = {}  # every op failed; nothing to summarize
    else:
        # A traced pass has untraced rounds too, so its record can show both
        # sets; the end-to-end numbers that count come from the untraced pass.
        record["end_to_end"] = record["metrics"] = end_to_end_metrics(plain, setup_s)
    if trace and record["metrics"]:
        record["metrics"], record["bases"] = layer_metrics(
            workload, traced, plain, serial, probes
        )
        record["spans"] = tracer.as_records()
    record["correct"] = record["failed"] == 0 and bool(record["metrics"])
    return record


def _print_metrics(record: Dict[str, object]) -> None:
    samples = sum(op["samples"] for op in record["ops"].values())
    print(
        f"# {record['workload']} ({'traced' if record['trace'] else 'untraced'}): "
        f"{len(record['ops'])} ops x {record['rounds']} rounds = {samples} samples, "
        f"{record['failed']} of {record['attempted']} checks failed"
    )
    for metric, entry in record["metrics"].items():
        print(f"{metric:<36} {entry['value']:>16.6f} {entry['unit']}")


# --------------------------------------------------------------------------- #
# Every workload, each in an interpreter of its own
# --------------------------------------------------------------------------- #


def _child(name: str, trace: bool, args, out_dir: Path, tag: str) -> Dict[str, object]:
    path = out_dir / f"{name}.{'traced' if trace else 'untraced'}{tag}.json"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(args.seconds), "--trace", str(int(trace)),
        "--json", str(path),
    ]  # fmt: skip
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.update_golden:
        command.append("--update-golden")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not path.exists():
        sys.exit(f"{name}: the run ended with code {completed.returncode} and no record")
    return json.loads(path.read_text())


def _run_set(names: List[str], passes: List[bool], args, out_dir: Path, tag: str = ""):
    return {
        (name, trace): _child(name, trace, args, out_dir, tag)
        for name in names
        for trace in passes
    }


def _check_agreement(names: List[str], args, out_dir: Path) -> bool:
    """Two whole untraced sets of the same commit and seed, metric by metric."""
    spec = _spec()
    first = _run_set(names, [False], args, out_dir, ".a")
    second = _run_set(names, [False], args, out_dir, ".b")
    agreed = True
    print(f"{'workload':<16} {'metric':<26} {'first':>12} {'second':>12} {'diff':>8} {'bound':>6}")
    for name in names:
        for metric in spec["end_to_end"]:
            one = first[name, False]["metrics"][metric["name"]]["value"]
            two = second[name, False]["metrics"][metric["name"]]["value"]
            worse = (two - one) / one if metric["better"] == "lower" else (one - two) / one
            over = abs(worse) > metric["bound"]
            agreed &= not over
            print(
                f"{name:<16} {metric['name']:<26} {one:>12.4f} {two:>12.4f} "
                f"{worse:>+8.3f} {metric['bound']:>6.2f}{'  OVER' if over else ''}"
            )
    return agreed and all(r["correct"] for r in {**first, **second}.values())


def main(argv: Optional[List[str]] = None) -> int:
    spec = _spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--rounds", type=int, help="timed rounds, instead of --seconds")
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--trace", type=int, nargs="?", const=1, choices=(0, 1))
    parser.add_argument("--json", type=Path, help="write the full record here")
    parser.add_argument("--out", type=Path, help="directory for per-run records")
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.workload and len(args.workload) == 1 and not args.check_agreement:
        atexit.register(_stop_children)
        record = run_workload(
            args.workload[0], args.seed, args.scale, args.seconds, args.rounds,
            bool(args.trace), args.update_golden,
        )  # fmt: skip
        _print_metrics(record)
        if args.json:
            args.json.write_text(json.dumps(record, indent=1))
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: record[key] for key in keys}))
        return 0 if record["correct"] else 1

    _import_program()
    out_dir = args.out or Path(tempfile.mkdtemp(prefix="e2e-bench-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    chosen = args.workload or names
    if args.check_agreement:
        ok = _check_agreement(chosen, args, out_dir)
    else:
        passes = [False, True] if args.trace is None else [bool(args.trace)]
        records = _run_set(chosen, passes, args, out_dir)
        ok = all(record["correct"] for record in records.values())
        if args.json:
            combined = {
                "provenance": _provenance(args.seed, args.scale),
                "runs": [
                    {k: v for k, v in record.items() if k != "spans"}
                    for record in records.values()
                ],
            }
            args.json.write_text(json.dumps(combined, indent=1))
    print(f"records in {out_dir}; {'all results correct' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
