#!/usr/bin/env python3
"""Regenerate every figure of the paper and write text + JSON reports.

Usage::

    python scripts/make_report.py [output_path] [job_scale]

This is the long-form version of ``pytest benchmarks/ --benchmark-only``: it
runs each experiment driver at a configurable scale and concatenates the
rendered series into one report file (default ``reproduction_report.txt``).

Alongside the text report it writes a machine-readable ``BENCH_<label>.json``
(same directory as the text report) holding every raw measurement record —
each names the execution path it ran on — plus per-driver wall times.  CI
uploads it as an artifact; the regression gate is ``BENCHMARK.json``.

Environment:

* ``REPRO_BENCH_SMOKE=1`` — smoke mode: a tiny default scale and the label
  ``smoke`` (CI uses this; the artifact becomes ``BENCH_smoke.json``).
* ``REPRO_SEED=<int>`` — pins the workload generator seed so numbers are
  comparable across runs.
"""

import inspect
import json
import os
import platform
import sys
import time

from repro.experiments.figures import FIGURES, format_figure


def _jsonable(summary):
    """A figure's summary record, or None when it cannot be serialized."""
    try:
        json.dumps(summary)
    except (TypeError, ValueError):
        return None
    return summary


def _default_scale(smoke: bool) -> float:
    return 0.04 if smoke else 0.15


def run_figures(scale: float, seed, smoke: bool):
    """Run every figure driver; return (text sections, JSON records).

    ``seed`` is only forwarded when the caller pinned one explicitly
    (``REPRO_SEED``); otherwise each driver keeps its own established
    default (the JOB drivers use 42, the LSQB drivers 7), so full-mode
    reports stay comparable with previously published numbers.
    """
    sections = []
    figures = []
    for name in sorted(FIGURES):
        driver = FIGURES[name]
        parameters = inspect.signature(driver).parameters
        kwargs = {}
        if "scale" in parameters:
            kwargs["scale"] = scale
        if seed is not None and "seed" in parameters:
            kwargs["seed"] = seed
        if smoke and "scale_factors" in parameters:
            # The LSQB sweeps default to paper-scale factors (up to 3.0);
            # smoke mode caps them so the whole report finishes in minutes.
            kwargs["scale_factors"] = (0.05, 0.1)
        started = time.perf_counter()
        result = driver(**kwargs)
        elapsed = time.perf_counter() - started
        sections.append(format_figure(result))
        sections.append(f"(driver ran in {elapsed:.1f} s)\n")
        measurements = result.get("measurements", [])
        figures.append({
            "figure": name,
            "driver_seconds": elapsed,
            # The exact parameters this driver ran with — the LSQB figures
            # take scale_factors instead of the top-level scale.
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in kwargs.items()},
            "measurements": [m.as_record() for m in measurements],
            "summary": _jsonable(result.get("summary")),
        })
        print(f"{name}: done in {elapsed:.1f} s", flush=True)
    return sections, figures


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "reproduction_report.txt"
    smoke = os.environ.get("REPRO_BENCH_SMOKE") == "1"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else _default_scale(smoke)
    seed_env = os.environ.get("REPRO_SEED")
    seed = int(seed_env) if seed_env is not None else None
    label = "smoke" if smoke else "full"

    started = time.perf_counter()
    sections, figures = run_figures(scale, seed, smoke)
    total_seconds = time.perf_counter() - started

    with open(output_path, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {output_path}")

    json_path = os.path.join(
        os.path.dirname(os.path.abspath(output_path)), f"BENCH_{label}.json"
    )
    payload = {
        "label": label,
        "scale": scale,
        "seed": seed,
        "total_seconds": total_seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "figures": figures,
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path}")


if __name__ == "__main__":
    main()
