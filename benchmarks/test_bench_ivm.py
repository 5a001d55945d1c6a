"""Standing-query maintenance benchmarks: delta folding vs re-execution.

The acceptance gate from the IVM tentpole, on a grouped aggregate over one
growing fact table:

* **delta-fold cost**: maintaining a :meth:`repro.Database.subscribe`
  standing query across append bursts (the table hook folds only the delta
  rows into the partial-aggregate states) must cost at most
  :data:`IVM_GATE` times re-running ``execute`` after every burst — the
  whole point of incremental maintenance is that refresh cost tracks the
  delta, not the table;
* **parity**: after every burst the maintained snapshot must be
  byte-identical to the re-executed result, so a fast-but-wrong fold cannot
  pass the gate.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import BENCH_SMOKE, JOB_SEED
from repro.engine.options import ExecOptions
from repro.engine.session import Database
from repro.storage.table import Table

#: Total delta-fold wall across the bursts must stay within this fraction
#: of the total re-execution wall over the same data.
IVM_GATE = 0.3
#: Seed rows in the fact table before the first burst.
BASE_ROWS = 2_000 if BENCH_SMOKE else 6_000
#: Rows appended per burst.
BURST_ROWS = 250 if BENCH_SMOKE else 750
BURSTS = 6

IVM_SQL = (
    "SELECT ivm_fact.k, SUM(ivm_fact.v), COUNT(*) "
    "FROM ivm_fact GROUP BY ivm_fact.k"
)
COLUMNS = ["k", "d", "v"]


def _make_rows(rng: random.Random, count: int):
    return [
        (rng.randrange(64), rng.randrange(1, 40), rng.randrange(-100, 100))
        for _ in range(count)
    ]


def _seeded_database(seed_rows) -> Database:
    database = Database()
    database.register(Table.from_rows("ivm_fact", COLUMNS, seed_rows))
    return database


def test_delta_fold_beats_reexecution(benchmark):
    """The maintenance gate: delta folding <= 0.3x re-execution, with
    per-burst snapshot parity."""
    rng = random.Random(JOB_SEED)
    seed_rows = _make_rows(rng, BASE_ROWS)
    bursts = [_make_rows(rng, BURST_ROWS) for _ in range(BURSTS)]

    delta_db = _seeded_database(seed_rows)
    reexec_db = _seeded_database(seed_rows)
    standing = delta_db.subscribe(
        IVM_SQL, options=ExecOptions(batch_rows=4096, max_batches=64)
    )
    assert standing.mode == "delta", standing.fallback_reason

    fact = delta_db.catalog.get("ivm_fact")
    reexec_fact = reexec_db.catalog.get("ivm_fact")
    delta_seconds = 0.0
    reexec_seconds = 0.0

    def maintain_all():
        nonlocal delta_seconds, reexec_seconds
        for index, burst in enumerate(bursts):
            started = time.perf_counter()
            fact.append_rows(burst)  # the hook folds the delta synchronously
            delta_seconds += time.perf_counter() - started
            # Drain the group-delta batches so the bounded queue never
            # backpressures the next fold into the timing.
            standing.pending_deltas()

            started = time.perf_counter()
            reexec_fact.append_rows(burst)
            expected = reexec_db.execute(IVM_SQL).rows()
            reexec_seconds += time.perf_counter() - started

            assert standing.snapshot().to_rows() == expected, (
                f"maintained snapshot diverged after burst {index}"
            )

    benchmark.pedantic(maintain_all, rounds=1, iterations=1)

    stats = standing.stats()
    assert stats["deltas_folded"] == BURSTS
    ratio = delta_seconds / reexec_seconds
    print(
        f"\nivm maintenance ({BASE_ROWS} seed rows, {BURSTS} bursts x "
        f"{BURST_ROWS} rows): delta fold {delta_seconds * 1000:.1f} ms, "
        f"re-execution {reexec_seconds * 1000:.1f} ms, ratio {ratio:.3f} "
        f"(gate <= {IVM_GATE})"
    )
    assert ratio <= IVM_GATE, (
        f"delta folding must cost at most {IVM_GATE}x re-execution; got "
        f"{ratio:.3f} ({delta_seconds:.4f} s vs {reexec_seconds:.4f} s)"
    )
    standing.close()
    delta_db.close()
    reexec_db.close()
