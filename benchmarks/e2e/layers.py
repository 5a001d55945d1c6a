"""Per-layer metrics of a traced pass.

A layer is a module under ``src/repro``.  Times are, per workload, the sum
over ops of the op's best (``harness.best``) over traced rounds, like
``suite_s``; shares divide by the sum of op times.  Counts are medians over
rounds (they repeat, except where the router chose another engine) of what the
program already publishes (``RunReport``, ``details["kernels"|"parallel"]``,
``router.telemetry()``, ``StandingQuery.stats()``, ``admission_stats()``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Tuple

from benchmarks.e2e.harness import Sample, Tally, best, jitter_p95, median

#: Engine name -> the module that implements it.
ENGINE_LAYER = {"freejoin": "core", "binary": "binaryjoin", "generic": "genericjoin"}

#: name, unit, better -- the order of the printed table and of BENCHMARK.json.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("query.plan_ms", "ms", "lower"),
    ("query.plan_share", "ratio", "lower"),
    ("optimizer.optimize_ms", "ms", "lower"),
    ("optimizer.optimize_share", "ratio", "lower"),
    ("optimizer.cold_optimize_ms", "ms", "lower"),
    ("router.route_ms", "ms", "lower"),
    ("router.routed", "count", "lower"),
    ("router.explore_frac", "ratio", "lower"),
    ("router.by_engine.freejoin", "count", "higher"),
    ("router.by_engine.binary", "count", "higher"),
    ("router.by_engine.generic", "count", "higher"),
    *[
        (f"{layer}.{part}_ms", "ms", "lower")
        for layer in ENGINE_LAYER.values()
        for part in ("run", "build", "join", "other")
    ],
    ("kernels.rows_in", "count", "lower"),
    ("kernels.rows_out", "count", "lower"),
    ("kernels.batches", "count", "lower"),
    ("kernels.program_hit_ratio", "ratio", "higher"),
    ("kernels.index_hit_ratio", "ratio", "higher"),
    ("kernels.vectorized_frac", "ratio", "higher"),
    ("kernels.fallback_frac", "ratio", "lower"),
    ("kernels.cold_run_ms", "ms", "lower"),
    ("engine.shell_ms", "ms", "lower"),
    ("engine.aggregate_ms", "ms", "lower"),
    ("engine.finalize_ms", "ms", "lower"),
    ("engine.nonjoin_share", "ratio", "lower"),
    ("engine.stream_first_batch_ms", "ms", "lower"),
    ("engine.stream_put_wait_ms", "ms", "lower"),
    ("engine.stream_batches", "count", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.steals", "count", "lower"),
    ("parallel.queue_wait_ms_mean", "ms", "lower"),
    ("parallel.queue_wait_ms_max", "ms", "lower"),
    ("parallel.attach_ms", "ms", "lower"),
    ("parallel.busy_ms", "ms", "lower"),
    ("parallel.balance", "ratio", "lower"),
    ("parallel.context_cache_hit_ratio", "ratio", "higher"),
    ("parallel.speedup", "ratio", "higher"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.fingerprint_ms", "ms", "lower"),
    ("storage.load_s", "s", "lower"),
    ("views.refresh_ms", "ms", "lower"),
    ("views.delta_frac", "ratio", "higher"),
    ("views.deltas_folded", "count", "higher"),
    ("views.reexecutions", "count", "lower"),
    ("views.reseeds", "count", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("harness.trace_overhead_frac", "ratio", "lower"),
    ("harness.jitter_p95", "ratio", "lower"),
    ("harness.gc_s", "s", "lower"),
]


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _join_s(sample: Sample) -> float:
    facts = sample.facts
    if "engine" not in facts:
        return 0.0
    return facts["build_s"] + facts["join_s"] + facts["other_s"]


def _shell_s(sample: Sample) -> float:
    """Engine time around the join: the run_join span minus what the engine
    reported.  A streamed op runs its join on a producer thread and an op
    with private steps is not replayed; for those the whole op stands in
    for the span."""
    if "engine" not in sample.facts:
        return 0.0
    outer = sample.spans.get("engine.run_join", sample.wall_s)
    return max(0.0, outer - _join_s(sample))


def _parallel(sample: Sample) -> List[dict]:
    return sample.facts.get("parallel") or []


def layer_metrics(
    workload,
    traced: Tally,
    plain: Tally,
    serial: Tally,
    probes: Dict[str, float],
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, float]]:
    """Every metric of :data:`PER_LAYER` for one traced pass, and the base of
    every ratio or difference among them.

    ``probes`` are metrics (and their ``.base_`` values) measured outside
    the rounds.
    """
    ops = traced.samples
    every = [sample for samples in ops.values() for sample in samples]

    def total(
        value: Callable[[Sample], float], keep=lambda name: True, pick=best
    ) -> float:
        return sum(
            pick([value(sample) for sample in samples])
            for name, samples in ops.items()
            if keep(name)
        )

    def count(value: Callable[[Sample], float]) -> float:
        return total(value, pick=median)

    def span(name: str) -> Callable[[Sample], float]:
        return lambda sample: sample.spans.get(name, 0.0)

    wall = total(lambda sample: sample.wall_s)
    plain_wall = sum(
        best([sample.wall_s for sample in samples])
        for samples in plain.samples.values()
    )
    values: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    bases = {"harness.trace_overhead_frac.base_untraced_s": plain_wall}

    values["query.plan_ms"] = total(span("query.plan")) * 1e3
    values["query.plan_share"] = total(span("query.plan")) / wall
    values["optimizer.optimize_ms"] = total(span("optimizer.optimize")) * 1e3
    values["optimizer.optimize_share"] = total(span("optimizer.optimize")) / wall
    values["router.route_ms"] = total(span("router.route")) * 1e3

    # One set per engine module; a routed op counts for the engine that ran
    # it most often.
    engine_of = {
        name: Counter(
            sample.facts["engine"] for sample in samples if "engine" in sample.facts
        ).most_common(1)
        for name, samples in ops.items()
    }
    for engine, layer in ENGINE_LAYER.items():
        mine = lambda name: bool(engine_of[name]) and engine_of[name][0][0] == engine
        values[f"{layer}.run_ms"] = total(
            lambda s: s.spans.get("engine.run_join", _join_s(s)), mine
        ) * 1e3
        for part in ("build", "join", "other"):
            values[f"{layer}.{part}_ms"] = total(
                lambda s: s.facts.get(f"{part}_s", 0.0), mine
            ) * 1e3

    kernel_runs = [s.facts["kernels"] for s in every if s.facts.get("kernels")]
    for counter in ("rows_in", "rows_out", "batches"):
        values[f"kernels.{counter}"] = count(
            lambda s: (s.facts.get("kernels") or {}).get(counter, 0)
        )
    for cache, metric in (("programs", "program"), ("indexes", "index")):
        values[f"kernels.{metric}_hit_ratio"] = _ratio(
            sum(run[cache]["hits"] for run in kernel_runs),
            sum(run[cache]["misses"] for run in kernel_runs),
        )
    if kernel_runs:
        vectorized = sum(run["mode"] == "vectorized" for run in kernel_runs)
        values["kernels.vectorized_frac"] = vectorized / len(kernel_runs)
        values["kernels.fallback_frac"] = 1.0 - vectorized / len(kernel_runs)

    values["engine.shell_ms"] = total(_shell_s) * 1e3
    values["engine.aggregate_ms"] = total(span("engine.aggregate")) * 1e3
    values["engine.finalize_ms"] = total(span("engine.finalize")) * 1e3
    values["engine.nonjoin_share"] = 1.0 - total(_join_s) / wall
    values["engine.stream_first_batch_ms"] = total(span("engine.first_batch")) * 1e3
    values["engine.stream_put_wait_ms"] = total(
        lambda s: (s.facts.get("stream") or {}).get("put_wait_seconds", 0.0)
    ) * 1e3
    values["engine.stream_batches"] = count(
        lambda s: (s.facts.get("stream") or {}).get("batches", 0)
    )

    runs = [entry for sample in every for entry in _parallel(sample)]
    values["parallel.tasks"] = count(lambda s: sum(e["tasks"] for e in _parallel(s)))
    values["parallel.steals"] = count(lambda s: sum(e["steals"] for e in _parallel(s)))
    values["parallel.attach_ms"] = total(
        lambda s: sum(e["attach_seconds"] for e in _parallel(s))
    ) * 1e3
    values["parallel.busy_ms"] = total(
        lambda s: sum(
            shard["busy_seconds"] for e in _parallel(s) for shard in e["per_shard"]
        )
    ) * 1e3
    if runs:
        waits = [run["queue"] for run in runs]
        values["parallel.queue_wait_ms_mean"] = (
            sum(wait["wait_seconds_mean"] for wait in waits) / len(waits) * 1e3
        )
        values["parallel.queue_wait_ms_max"] = (
            max(wait["wait_seconds_max"] for wait in waits) * 1e3
        )
        balances = []
        for run in runs:
            outputs = [shard["outputs"] for shard in run["per_shard"]]
            if sum(outputs):
                balances.append(max(outputs) * len(outputs) / sum(outputs))
        if balances:
            values["parallel.balance"] = sum(balances) / len(balances)
        caches = [run["context_cache"] for run in runs if "context_cache" in run]
        values["parallel.context_cache_hit_ratio"] = _ratio(
            sum(cache["hits"] for cache in caches),
            sum(cache["misses"] for cache in caches),
        )
    if serial.samples:
        serial_wall = sum(
            best([sample.wall_s for sample in samples])
            for samples in serial.samples.values()
        )
        values["parallel.speedup"] = serial_wall / wall
        bases["parallel.speedup.base_serial_s"] = serial_wall

    values["storage.load_s"] = workload.load_s
    values["workloads.generate_s"] = workload.generate_s
    values.update(workload.layer_counters())
    subscribed = total(span("storage.append"))
    if subscribed:
        values["views.refresh_ms"] = subscribed * 1e3 - values["storage.append_ms"]

    values["harness.trace_overhead_frac"] = wall / plain_wall - 1.0
    values["harness.jitter_p95"] = jitter_p95(plain)
    values["harness.gc_s"] = traced.gc_s + plain.gc_s + serial.gc_s
    values.update((name, value) for name, value in probes.items() if name in values)
    bases.update((name, value) for name, value in probes.items() if name not in values)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit, _better in PER_LAYER
    }
    return metrics, bases
