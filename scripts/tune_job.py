#!/usr/bin/env python3
"""Developer script: check JOB-like queries for agreement, size, and time."""

import sys
import time

from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.workloads.job import generate_job_workload

scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
engines = sys.argv[2].split(",") if len(sys.argv) > 2 else ["freejoin", "binary", "generic"]
only = sys.argv[3].split(",") if len(sys.argv) > 3 else None

wl = generate_job_workload(scale=scale)
db = Database(wl.catalog)
for q in wl.queries:
    if only and q.name not in only:
        continue
    times, counts, vals = {}, {}, {}
    for engine in engines:
        t0 = time.perf_counter()
        try:
            out = db.execute(q.sql, options=ExecOptions(engine=engine), name=q.name)
            wall = time.perf_counter() - t0
            times[engine] = round(out.report.total_seconds, 3)
            counts[engine] = out.join_result.count()
            vals[engine] = tuple(out.table.to_rows())
        except Exception as exc:  # noqa: BLE001 - report and keep going
            times[engine] = "ERR:" + repr(exc)[:90]
            counts[engine] = "ERR"
            vals[engine] = ("ERR",)
        print(f"  {q.name} {engine}: t={times[engine]} rows={counts[engine]}", flush=True)
    agree = len({vals[e] for e in engines}) == 1 and len({counts[e] for e in engines}) == 1
    print(q.name, "agree" if agree else "MISMATCH", flush=True)
    if not agree:
        for e in engines:
            print("   ", e, counts[e], str(vals[e])[:120], flush=True)
