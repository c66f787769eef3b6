"""``ingest``: durable transactions on a flat, fragmented collection.

About 200k ``SET<TUPLE<int, str, int>>`` rows are loaded in fragments
and saved, so every mutation writes the fsynced WAL under the shipped
flush policy (``REPRO_WAL_GROUP_MS`` unset).  The run is a fixed number
of transactions (``TXNS_PER_SECOND`` times ``--seconds``), each one
insert batch, one update and one delete, all seeded.  ``READS`` Moa
``count(select[...])`` reads follow every commit and
``pool.merge_deltas()`` runs every ``MERGE_EVERY``-th, in the loop
rather than on the timer daemon, so the delta state a read sees is the
same on every run.  Every ``MERGE_EVERY``-th commit, half-way between
merges, and once after the last, the live database is abandoned
without saving and reloaded from disk, replaying the WAL of every
commit so far; the run continues on the reloaded database.  After
every restart a closed-loop burst of the same reads gives the read
throughput, and the final collection must equal the benchmark's model
of the acknowledged commits.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import harness
from harness import Context
from measure import Timing, layer_metrics, now, user_bytes

ROWS = 200_000
FRAGMENT_THRESHOLD = 50_000
TXNS_PER_SECOND = 8
INSERT_BATCH = 50
READS = 2
MERGE_EVERY = 10
#: Share of ``--seconds`` given to the closed-loop read bursts.
BURST_SHARE = 0.2
QUERY_TAIL_PCT = 75
COMMIT_TAIL_PCT = 90

FACTS = {
    "flush_policy": "one fsynced WAL batch per mutation (REPRO_WAL_GROUP_MS unset)",
    "txns_per_second_of_run": TXNS_PER_SECOND,
}

EVENTS_DDL = (
    "define Events as SET<TUPLE<Atomic<int>: k, Atomic<str>: tag, "
    "Atomic<int>: v>>;"
)


@dataclass
class Model:
    """The acknowledged state: rows by key, live keys, and a histogram
    of ``v`` so read answers need no scan."""

    rows: Dict[int, dict]
    live: List[int]
    slot: Dict[int, int]
    histogram: List[int] = field(default_factory=lambda: [0] * 1000)

    @classmethod
    def of(cls, rows: List[dict]) -> "Model":
        model = cls({}, [], {})
        for row in rows:
            model.add(row)
        return model

    def add(self, row: dict) -> None:
        self.rows[row["k"]] = row
        self.slot[row["k"]] = len(self.live)
        self.live.append(row["k"])
        self.histogram[row["v"]] += 1

    def set_v(self, key: int, v: int) -> None:
        row = self.rows[key]
        self.histogram[row["v"]] -= 1
        self.rows[key] = {**row, "v": v}
        self.histogram[v] += 1

    def remove(self, key: int) -> None:
        row = self.rows.pop(key)
        self.histogram[row["v"]] -= 1
        index = self.slot.pop(key)
        last = self.live.pop()
        if last != key:
            self.live[index] = last
            self.slot[last] = index

    def count(self, lo: int, hi: int) -> int:
        return sum(self.histogram[lo:hi])


@dataclass
class Store:
    db: object
    rows: List[dict]
    directory: Path


def make_rows(start: int, count: int, rng) -> List[dict]:
    return [
        {"k": k, "tag": f"t{rng.randrange(100)}", "v": rng.randrange(1000)}
        for k in range(start, start + count)
    ]


def build(ctx: Context, saves: List[float]) -> Store:
    from repro.core.mirror import MirrorDBMS

    rows = make_rows(0, ROWS, ctx.rng("rows"))
    db = MirrorDBMS(fragment_threshold=FRAGMENT_THRESHOLD)
    db.define(EVENTS_DDL)
    db.replace("Events", rows)
    directory = ctx.new_dir("ingest-")
    harness.timed_save(db, directory, saves)
    for _ in range(2):
        db.query(read_text(0))
    return Store(db, rows, directory)


@dataclass
class WriteLog:
    """Commit latencies, transaction times, and the rows and user bytes
    the acknowledged commits carried."""

    commit_ms: List[float] = field(default_factory=list)
    txn_seconds: float = 0.0
    rows: int = 0
    user_bytes: int = 0
    #: WAL records and fsyncs of the pools abandoned so far.
    wal_records: int = 0
    wal_fsyncs: int = 0


def read_text(lo: int) -> str:
    return f"count(select[THIS.v >= {lo} and THIS.v < {lo + 20}](Events));"


def run(ctx: Context) -> None:
    saves: List[float] = []
    store = harness.timed_setups(
        ctx, lambda: build(ctx, saves), lambda old: harness.remove(old.directory),
        repeats=9,
    )
    db, store.db = store.db, None
    model = Model.of(store.rows)
    rng = ctx.rng("txns")
    next_key = ROWS
    txns = max(1, round(TXNS_PER_SECOND * ctx.seconds))
    log = WriteLog(user_bytes=user_bytes(store.rows))
    reads: Dict[bool, List[float]] = {False: [], True: []}
    merges: List[float] = []
    wal = store.directory / "wal.jsonl"
    wal_before = wal.stat().st_size if wal.exists() else 0

    restarts = txns // MERGE_EVERY + 1
    burst_rng = ctx.rng("bursts")
    bursts = {"reads": 0, "seconds": 0.0}

    def restart() -> None:
        nonlocal db
        log.wal_records += db.pool.wal_records
        log.wal_fsyncs += db.pool.wal_fsyncs
        db = None
        db = harness.restart(ctx, store.directory)
        if ctx.trace:
            return
        start = now()
        while now() - start < BURST_SHARE * ctx.seconds / restarts:
            read(burst_rng.randrange(980), False)
            bursts["reads"] += 1
        bursts["seconds"] += now() - start

    def read(lo: int, traced: bool) -> float:
        began = now()
        with ctx.traced() if traced else contextlib.nullcontext():
            value = db.query(read_text(lo)).value
        took = (now() - began) * 1000.0
        ctx.attempted += 1
        if value != model.count(lo, lo + 20):
            ctx.mismatch(f"count v in [{lo}, {lo + 20}): {value}")
        return took

    for index in range(txns):
        with ctx.traced() if ctx.trace else contextlib.nullcontext():
            inserted = make_rows(next_key, INSERT_BATCH, rng)
            updated = rng.choice(model.live)
            new_v = rng.randrange(1000)
            deleted = rng.choice(model.live)
            while deleted == updated:
                deleted = rng.choice(model.live)
            began = now()
            txn = db.begin()
            txn.insert("Events", inserted)
            txn.update("Events", {"v": new_v}, where={"k": updated})
            txn.delete("Events", where={"k": deleted})
            committing = now()
            try:
                result = txn.commit()
            except Exception as exc:  # noqa: BLE001 - counted, not retried
                ctx.error(exc)
                continue
            done = now()
        ctx.attempted += 1
        counts = [applied.count for applied in result.applied]
        if counts != [INSERT_BATCH, 1, 1]:
            ctx.mismatch(f"commit applied {counts}")
        next_key += INSERT_BATCH
        for row in inserted:
            model.add(row)
        model.set_v(updated, new_v)
        model.remove(deleted)
        log.commit_ms.append((done - committing) * 1000.0)
        log.txn_seconds += done - began
        log.rows += INSERT_BATCH + 2
        log.user_bytes += user_bytes(
            [inserted, {"v": new_v}, {"k": updated}, {"k": deleted}]
        )
        for _ in range(READS):
            lo = rng.randrange(980)
            # Traced, each read runs twice back to back, with and without
            # the layer shims in alternating order: the tracing overhead
            # on one request, the second run's warm start favouring neither.
            order = (False, True) if index % 2 else (True, False)
            for traced in order if ctx.trace else (False,):
                reads[traced].append(read(lo, traced))
        if (index + 1) % MERGE_EVERY == 0:
            began = now()
            db.pool.merge_deltas()
            merges.append((now() - began) * 1000.0)
        elif (index + 1) % MERGE_EVERY == MERGE_EVERY // 2:
            restart()
    restart()

    commit = Timing(log.commit_ms, COMMIT_TAIL_PCT)
    ctx.notes["commit"] = commit.describe()
    ctx.notes["write_rows_per_s"] = log.rows / log.txn_seconds
    if ctx.trace:
        commits = len(log.commit_ms)
        ctx.metric("bbp.wal_records_per_commit", log.wal_records / commits, "count")
        ctx.metric("bbp.wal_fsyncs_per_commit", log.wal_fsyncs / commits, "count")
        ctx.metric("bbp.wal_bytes_per_row",
                   (wal.stat().st_size - wal_before) / log.rows, "B")
        ctx.metric("mirror.commit_p50_ms", commit.p50, "ms")
        ctx.metric("mirror.commit_tail_ms", commit.tail, "ms")
        ctx.metric("mirror.write_rows_per_s", log.rows / log.txn_seconds, "rows/s")
        ctx.metric("bbp.merge_ms", statistics.median(merges) if merges else 0.0, "ms")
        harness.trace_overhead(ctx, reads[False], reads[True], QUERY_TAIL_PCT)
        ctx.metric("loadgen.late_ms", 0.0, "ms")
        for name, value in layer_metrics(ctx.tracer, len(reads[True])).items():
            ctx.metric(name, value, harness.unit_of(name))
    else:
        timing = Timing(reads[False], QUERY_TAIL_PCT)
        ctx.notes["query"] = timing.describe()
        ctx.metric("query_p50_ms", timing.p50, "ms")
        ctx.metric("query_tail_ms", timing.tail, "ms")
        ctx.notes["closed_loop_reads"] = bursts["reads"]
        ctx.metric("query_qps", bursts["reads"] / bursts["seconds"], "1/s")
    harness.report_recovery(ctx)
    harness.store_ratio(ctx, store.directory, log.user_bytes)
    harness.check_collection(ctx, db, "Events", list(model.rows.values()),
                             key=lambda r: r["k"])
    harness.finish_layers(ctx, saves)
    harness.remove(store.directory)
