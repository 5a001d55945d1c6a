#!/usr/bin/env python3
"""Gate a benchmark run against a committed baseline (and its history).

Usage::

    python scripts/check_bench_regression.py BENCH_smoke.json \
        benchmarks/baseline_smoke.json [--tolerance 0.25] [--mode normalized] \
        [--history benchmarks/history] [--trend-tolerance 0.25]

Compares the per-figure ``driver_seconds`` of a fresh ``BENCH_<label>.json``
(produced by ``scripts/make_report.py``) against the committed baseline and
exits non-zero when any figure regressed by more than ``--tolerance``
(default 25%, the CI gate).

With ``--history DIR`` the gate additionally runs **median-trend
detection** against the rolling run history (``benchmarks/history/*.json``,
maintained by ``scripts/update_bench_history.py``): for every history run,
each figure's ratio is normalized by that comparison's median drift (so the
trend is machine-speed independent, like the baseline mode below), and a
figure fails when the *median* of its normalized ratios across the whole
history exceeds ``1 + --trend-tolerance``.  This catches sustained drift —
a figure that got 8% slower in each of four consecutive PRs passes every
last-vs-baseline check, yet sits ~36% above the history median, and the
trend gate fails it.

Two comparison modes:

* ``normalized`` (default): every figure's current/baseline ratio is divided
  by the **median** ratio across all figures.  The median ratio estimates
  the machine-speed difference between the two runs (a CI runner uniformly
  2x slower than the baseline machine has a median ratio of ~2 and passes
  cleanly), and — being a median — it barely moves when one figure genuinely
  improves or regresses, so a large speedup of one figure does not make the
  untouched figures look relatively slower (a zero-sum share comparison
  would).  A figure fails when it is more than ``--tolerance`` slower than
  the fleet's median drift.
* ``absolute``: raw seconds are compared.  Only meaningful when baseline and
  run come from identical hardware; useful for local before/after checks.

Figures present in only one of the two files are reported but never fail the
gate (adding a benchmark must not require regenerating history first).

With ``--kernels-gate`` the script additionally runs the **bench-kernels**
gate: the ``kernels`` figure measures the headline workload twice in one
process — vectorized batch kernels vs ``REPRO_KERNELS=off`` — and the gate
fails unless the vectorized wall is at most ``--kernels-max-ratio`` (default
0.5, i.e. a >= 2x speedup) of the row-at-a-time wall.  Because both walls
come from the same run on the same machine, this gate needs no drift
normalization and cannot be absorbed by a fleet-wide speedup the way a
baseline comparison would be.  The same flag enforces two more checks on
the ``kernels`` figure:

* **factorized delivery** — the Fig. 19-style star delivered into a
  ``FactorizedSink`` must run at most ``--kernels-factorized-max-ratio``
  (default 0.6) of its own row-at-a-time wall (variants ``factorized`` vs
  ``factorized-row-path``);
* **fallback budget** — the figure's fallback sweep over the headline
  queries must report **zero** occurrences of every budgeted reason
  (``factorized-output``): that path is vectorized now, and a fallback
  reappearing means a regression to row-at-a-time execution that no timing
  gate would catch on small CI workloads.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple


def load_figures(path: str) -> Dict[str, float]:
    with open(path) as handle:
        payload = json.load(handle)
    figures = {
        record["figure"]: float(record["driver_seconds"])
        for record in payload.get("figures", [])
    }
    if not figures:
        raise SystemExit(f"{path}: no figures with driver_seconds found")
    return figures


#: Kernel fallback reasons that must never fire on the headline workloads.
FALLBACK_BUDGET_REASONS = ("factorized-output",)


def _wall_ratio_check(
    label: str,
    walls: Dict[str, float],
    fast: str,
    slow: str,
    max_ratio: float,
) -> List[str]:
    """Check ``walls[fast] <= max_ratio * walls[slow]``; print one line."""
    if not walls[fast] or not walls[slow]:
        return [
            f"figure lacks {fast}/{slow} measurements "
            f"({fast}={walls[fast]:.4f} s, {slow}={walls[slow]:.4f} s)"
        ]
    ratio = walls[fast] / walls[slow]
    marker = "OK" if ratio <= max_ratio else "FAIL"
    print(
        f"{marker:4s} {label}: {fast} {walls[fast]:.4f} s vs "
        f"{slow} {walls[slow]:.4f} s = {ratio:.3f}x "
        f"(gate <= {max_ratio:.2f}x, speedup {1.0 / ratio:.2f}x)"
    )
    if ratio > max_ratio:
        return [
            f"{fast} ran at {ratio:.3f}x the {slow} wall "
            f"(gate requires <= {max_ratio:.2f}x)"
        ]
    return []


def check_kernels_gate(
    path: str, figure: str, max_ratio: float, factorized_max_ratio: float
) -> List[str]:
    """The bench-kernels gate: vectorized walls, factorized walls, fallbacks.

    Reads the named figure's raw measurements from the current BENCH json
    (the ``kernels`` driver runs the headline workload once per variant in
    the same process) and fails unless
    ``sum(vectorized) <= max_ratio * sum(row-path)`` and
    ``sum(factorized) <= factorized_max_ratio * sum(factorized-row-path)``.
    The figure's summary must also report a zero count for every budgeted
    fallback reason.  Returns failure messages (empty when the gate
    passes); a missing or degenerate figure is itself a failure so the gate
    cannot silently rot out of CI.
    """
    with open(path) as handle:
        payload = json.load(handle)
    records = [f for f in payload.get("figures", []) if f.get("figure") == figure]
    if not records:
        return [f"figure {figure!r} missing from {path}"]
    walls = {
        "vectorized": 0.0,
        "row-path": 0.0,
        "factorized": 0.0,
        "factorized-row-path": 0.0,
    }
    for measurement in records[0].get("measurements", []):
        variant = measurement.get("variant")
        if variant in walls:
            walls[variant] += float(measurement.get("seconds", 0.0))
    failures = _wall_ratio_check(
        "kernels", walls, "vectorized", "row-path", max_ratio
    )
    failures += _wall_ratio_check(
        "kernels", walls, "factorized", "factorized-row-path",
        factorized_max_ratio,
    )
    summary = records[0].get("summary") or {}
    budget = (summary.get("fallbacks") or {}).get("budget")
    if not isinstance(budget, dict):
        failures.append(
            f"figure {figure!r} has no fallback-budget summary "
            "(rerun scripts/make_report.py to regenerate the BENCH json)"
        )
    else:
        for reason in FALLBACK_BUDGET_REASONS:
            count = int(budget.get(reason, 0))
            marker = "OK" if count == 0 else "FAIL"
            print(f"{marker:4s} kernels fallback budget: {reason} x{count}")
            if count:
                failures.append(
                    f"budgeted kernel fallback {reason!r} fired {count} "
                    "time(s) on the headline workloads (budget is zero)"
                )
    return failures


def check_ivm_gate(path: str, figure: str, max_ratio: float) -> List[str]:
    """The bench-ivm gate: delta folding must beat re-execution.

    Reads the named figure's raw measurements from the current BENCH json
    (the ``ivm`` driver maintains one standing query and one re-executed
    baseline over identical append bursts, asserting snapshot parity per
    burst) and fails unless
    ``sum(delta-fold) <= max_ratio * sum(reexecute)``.  The figure's
    summary must also confirm the standing query actually ran on the delta
    path — a silent fallback to re-execution would make the ratio ~1 and
    fail anyway, but the mode check reports *why*.  Returns failure
    messages (empty when the gate passes); a missing figure is itself a
    failure so the gate cannot silently rot out of CI.
    """
    with open(path) as handle:
        payload = json.load(handle)
    records = [f for f in payload.get("figures", []) if f.get("figure") == figure]
    if not records:
        return [f"figure {figure!r} missing from {path}"]
    walls = {"delta-fold": 0.0, "reexecute": 0.0}
    for measurement in records[0].get("measurements", []):
        variant = measurement.get("variant")
        if variant in walls:
            walls[variant] += float(measurement.get("seconds", 0.0))
    failures = _wall_ratio_check(
        "ivm", walls, "delta-fold", "reexecute", max_ratio
    )
    summary = records[0].get("summary") or {}
    mode = summary.get("mode")
    marker = "OK" if mode == "delta" else "FAIL"
    print(f"{marker:4s} ivm maintenance mode: {mode!r}")
    if mode != "delta":
        failures.append(
            f"the ivm figure's standing query ran in mode {mode!r}; the gate "
            "measures the delta-fold path"
        )
    return failures


def _history_sequence(path: str) -> Tuple[int, str]:
    """Numeric sequence prefix of a history file name (oldest-first sort)."""
    name = os.path.basename(path)
    head = name.split("-", 1)[0]
    return (int(head) if head.isdigit() else 0, name)


def load_history(directory: str) -> List[Tuple[str, Dict[str, float]]]:
    """Load every history run, oldest first (numeric sequence order).

    Order only affects the printed report — the trend statistic is a median
    over all runs — but numeric sorting keeps it chronological even after
    the sequence counter outgrows its zero padding.
    """
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json")), key=_history_sequence):
        try:
            runs.append((os.path.basename(path), load_figures(path)))
        except (OSError, ValueError, SystemExit) as exc:
            print(f"~ history file {path} skipped: {exc}")
    return runs


def normalized_ratios(
    current: Dict[str, float], reference: Dict[str, float]
) -> Dict[str, float]:
    """Per-figure current/reference ratios divided by their median drift."""
    shared = sorted(set(current) & set(reference))
    ratios = {
        name: current[name] / reference[name]
        for name in shared
        if reference[name] > 0
    }
    if not ratios:
        return {}
    drift = statistics.median(ratios.values())
    if drift <= 0:
        return {}
    return {name: ratio / drift for name, ratio in ratios.items()}


def check_trend(
    current: Dict[str, float],
    history: List[Tuple[str, Dict[str, float]]],
    trend_tolerance: float,
) -> List[str]:
    """Median-trend detection: sustained drift across the run history.

    Returns the figures whose median normalized ratio across every history
    run exceeds ``1 + trend_tolerance``.  Using the median over runs keeps
    one noisy history entry from failing (or masking) a trend.
    """
    per_figure: Dict[str, List[float]] = {}
    for _name, reference in history:
        for figure, ratio in normalized_ratios(current, reference).items():
            per_figure.setdefault(figure, []).append(ratio)
    failures = []
    for figure in sorted(per_figure):
        ratios = per_figure[figure]
        median_ratio = statistics.median(ratios)
        change = median_ratio - 1.0
        marker = "OK"
        if change > trend_tolerance:
            marker = "FAIL"
            failures.append(figure)
        spread = f"{min(ratios):.3f}..{max(ratios):.3f}" if len(ratios) > 1 else "-"
        print(
            f"{marker:4s} trend {figure}: median {median_ratio:.3f}x vs "
            f"{len(ratios)} history run(s) (range {spread}, "
            f"tolerance +{trend_tolerance:.0%})"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_<label>.json")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="maximum allowed relative regression per figure (default 0.25)",
    )
    parser.add_argument(
        "--mode", choices=("normalized", "absolute"), default="normalized",
        help="compare suite-relative shares (default) or raw seconds",
    )
    parser.add_argument(
        "--history", default=None, metavar="DIR",
        help="rolling history directory; enables median-trend detection",
    )
    parser.add_argument(
        "--trend-tolerance", type=float, default=0.25,
        help="maximum allowed median drift vs the history (default 0.25)",
    )
    parser.add_argument(
        "--kernels-gate", action="store_true",
        help="also run the bench-kernels gate on the current run's "
             "'kernels' figure (vectorized vs row-path walls)",
    )
    parser.add_argument(
        "--kernels-figure", default="kernels", metavar="NAME",
        help="figure holding the vectorized/row-path measurements "
             "(default 'kernels')",
    )
    parser.add_argument(
        "--kernels-max-ratio", type=float, default=0.5,
        help="maximum allowed vectorized/row-path wall ratio "
             "(default 0.5 = a 2x speedup floor)",
    )
    parser.add_argument(
        "--kernels-factorized-max-ratio", type=float, default=0.6,
        help="maximum allowed factorized/factorized-row-path wall ratio "
             "(default 0.6)",
    )
    parser.add_argument(
        "--ivm-gate", action="store_true",
        help="also run the bench-ivm gate on the current run's 'ivm' figure "
             "(standing-query delta folding vs re-execution walls)",
    )
    parser.add_argument(
        "--ivm-figure", default="ivm", metavar="NAME",
        help="figure holding the delta-fold/reexecute measurements "
             "(default 'ivm')",
    )
    parser.add_argument(
        "--ivm-max-ratio", type=float, default=0.3,
        help="maximum allowed delta-fold/reexecute wall ratio (default 0.3)",
    )
    arguments = parser.parse_args()

    current = load_figures(arguments.current)
    baseline = load_figures(arguments.baseline)
    shared = sorted(set(current) & set(baseline))
    ratios = {
        name: current[name] / baseline[name]
        for name in shared
        if baseline[name] > 0
    }
    if not ratios:
        raise SystemExit("no comparable figures between the two files")
    if arguments.mode == "normalized":
        # The fleet's median drift estimates the machine-speed difference.
        drift = statistics.median(ratios.values())
        if drift <= 0:
            raise SystemExit("median ratio is zero; nothing to compare")
        print(f"median speed drift vs baseline: {drift:.3f}x")
    else:
        drift = 1.0

    failures = []
    for name in shared:
        if name not in ratios:
            print(f"~ {name}: zero baseline (skipped)")
            continue
        relative = ratios[name] / drift
        change = relative - 1.0
        marker = "OK"
        if change > arguments.tolerance:
            marker = "FAIL"
            failures.append(name)
        print(
            f"{marker:4s} {name}: {baseline[name]:.4f} s -> {current[name]:.4f} s "
            f"({change:+.1%} vs median drift, tolerance +{arguments.tolerance:.0%})"
        )
    for name in sorted(set(baseline) - set(current)):
        print(f"~ {name}: missing from current run (skipped)")
    for name in sorted(set(current) - set(baseline)):
        print(f"~ {name}: new figure, no baseline (skipped)")

    kernel_failures: List[str] = []
    if arguments.kernels_gate:
        print("\nbench-kernels gate:")
        kernel_failures = check_kernels_gate(
            arguments.current,
            arguments.kernels_figure,
            arguments.kernels_max_ratio,
            arguments.kernels_factorized_max_ratio,
        )
    ivm_failures: List[str] = []
    if arguments.ivm_gate:
        print("\nbench-ivm gate:")
        ivm_failures = check_ivm_gate(
            arguments.current,
            arguments.ivm_figure,
            arguments.ivm_max_ratio,
        )

    trend_failures: List[str] = []
    if arguments.history:
        history = load_history(arguments.history)
        if history:
            print(f"\ntrend check against {len(history)} history run(s):")
            trend_failures = check_trend(
                current, history, arguments.trend_tolerance
            )
        else:
            print(f"\n~ no history runs under {arguments.history}; trend skipped")

    if failures or trend_failures or kernel_failures or ivm_failures:
        if failures:
            print(
                f"\nbenchmark gate FAILED: {len(failures)} figure(s) regressed "
                f"more than {arguments.tolerance:.0%}: {', '.join(failures)}"
            )
        if trend_failures:
            print(
                f"\nbenchmark trend gate FAILED: {len(trend_failures)} figure(s) "
                f"drifted more than {arguments.trend_tolerance:.0%} above the "
                f"history median: {', '.join(trend_failures)}"
            )
        if kernel_failures:
            print(
                "\nbench-kernels gate FAILED: " + "; ".join(kernel_failures)
            )
        if ivm_failures:
            print("\nbench-ivm gate FAILED: " + "; ".join(ivm_failures))
        return 1
    print("\nbenchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
