"""What every workload shares: the run context, set-up timing, stored
bytes, restarts, and result assembly."""

from __future__ import annotations

import contextlib
import gc
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from measure import Timing, Tracer, disk_bytes, layer_shims, now, replay_counter

#: Set-ups per untraced run; ``setup_s`` is their median.  Workloads
#: whose set-up takes about a second make more.
SETUP_REPEATS = 3


class WrongAnswer(Exception):
    """A result that disagrees with the benchmark's own reference."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Seconds of each restart's ``MirrorDBMS.load``.
    restarts: List[float] = field(default_factory=list)
    #: Sample counts and other facts printed with the result.
    notes: Dict[str, object] = field(default_factory=dict)

    def rng(self, stream: str) -> random.Random:
        """An independent seeded generator per input stream."""
        return random.Random(f"{self.workload}:{stream}:{self.seed}")

    def new_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def error(self, exc: Exception) -> None:
        """Count one operation that raised: failed, not retried."""
        self.attempted += 1
        self.failed += 1
        self.notes.setdefault("errors", []).append(repr(exc))

    def mismatch(self, what: str) -> None:
        """Count one wrong answer (an operation that failed)."""
        self.wrong += 1
        self.failed += 1
        self.notes.setdefault("mismatches", []).append(what)

    @contextlib.contextmanager
    def traced(self):
        with layer_shims(self.tracer):
            yield

    def traced_call(self, op: Callable[[], None]) -> Callable[[], None]:
        def call() -> None:
            with self.traced():
                op()
        return call


def timed_setups(ctx: Context, build: Callable[[], object],
                 teardown: Callable[[object], None],
                 repeats: int = SETUP_REPEATS):
    """Run *build* (generate, load, stats, save, start, warm up)
    *repeats* times; report the median as ``setup_s`` and keep the last
    state.  Each earlier state is torn down and collected before the
    next set-up starts, so every set-up is timed, and held in memory,
    alone.  The traced run sets up once and reports no ``setup_s``."""
    repeats = 1 if ctx.trace else repeats
    times: List[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        start = now()
        state = build()
        times.append(now() - start)
    # Collect what the set-ups left behind, and take everything alive
    # now -- the generated inputs the benchmark keeps for its answer
    # checks above all -- out of the collector's reach, so collections
    # during the run scan no more than a server's own heap would hold.
    gc.collect()
    gc.freeze()
    ctx.notes["setup_s_samples"] = [round(t, 4) for t in times]
    ctx.metric("setup_s", statistics.median(times), "s")
    return state


def trace_overhead(ctx: Context, plain: List[float], traced: List[float],
                   tail_pct: float) -> None:
    ctx.notes["query_untraced"] = Timing(plain, tail_pct).describe()
    ctx.notes["query_traced"] = Timing(traced, tail_pct).describe()
    base = statistics.median(plain)
    ctx.metric("loadgen.trace_overhead_pct",
               (statistics.median(traced) - base) / base * 100.0, "%")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "rows/s"
    if name.endswith("_per_row"):
        return "B"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# Stored bytes and recovery
# ----------------------------------------------------------------------


def store_ratio(ctx: Context, directory: Path, committed_user_bytes: int) -> None:
    if ctx.trace:
        return
    stored = disk_bytes(directory)
    ctx.notes["store"] = f"{stored} B on disk / {committed_user_bytes} B user"
    ctx.metric("store_bytes_per_user_byte", stored / committed_user_bytes, "ratio")


def restart(ctx: Context, directory: Path):
    """Restart from the database in *directory*, whose live copy the
    caller has abandoned without saving: collect what it left, then
    time ``MirrorDBMS.load``, which replays the WAL.  Returns the
    loaded database."""
    from repro.core.mirror import MirrorDBMS

    gc.collect()
    with replay_counter(ctx.tracer) if ctx.trace else contextlib.nullcontext():
        start = now()
        db = MirrorDBMS.load(directory)
        ctx.restarts.append(now() - start)
    return db


def report_recovery(ctx: Context) -> None:
    """``recovery_s`` is the mean of the run's restarts, which are spread
    over the run, so one slow moment of a shared box moves one sample
    rather than all of them.  The mean, not the median: on a shared box
    the loads fall into a fast and a slow mode, and the median jumps
    between them with the share of slow samples, where the mean moves
    in proportion."""
    if ctx.trace:
        ctx.metric("bbp.replayed_records",
                   ctx.tracer.counters.get("bbp.replayed_records", 0)
                   / len(ctx.restarts), "count")
        return
    ctx.notes["recovery"] = Timing(
        [t * 1000.0 for t in ctx.restarts], 90
    ).describe()
    ctx.notes["recovery_s_samples"] = [round(t, 4) for t in ctx.restarts]
    ctx.metric("recovery_s", statistics.mean(ctx.restarts), "s")


def check_collection(ctx: Context, db, name: str, expected: List[dict],
                     key: Callable[[dict], object]) -> None:
    """The restarted database's collection equals the model of
    acknowledged commits (as a multiset, ordered by *key*)."""
    actual = sorted(db.contents(name), key=key)
    wanted = sorted(expected, key=key)
    ctx.attempted += 1
    if actual != wanted:
        ctx.mismatch(
            f"restarted {name}: {len(actual)} rows, model has {len(wanted)}"
        )


def timed_save(db, directory: Path, saves: List[float]) -> None:
    start = now()
    db.save(directory)
    saves.append((now() - start) * 1000.0)


#: Per-layer metrics of the write path and of the service.  Workloads
#: that do not use a layer report zero for it.
WRITE_LAYER = (
    "mirror.commit_p50_ms", "mirror.commit_tail_ms", "mirror.write_rows_per_s",
    "bbp.wal_records_per_commit", "bbp.wal_fsyncs_per_commit",
    "bbp.wal_bytes_per_row", "bbp.merge_ms",
)
SERVICE_LAYER = ("service.overhead_ms", "service.rejected", "service.peak_inflight")


def finish_layers(ctx: Context, saves: List[float]) -> None:
    """The save time the benchmark takes around its own ``db.save``
    during set-up, and zero for the layers the workload does not use."""
    if not ctx.trace:
        return
    ctx.metric("bbp.save_ms", statistics.median(saves), "ms")
    for name in WRITE_LAYER + SERVICE_LAYER:
        ctx.metrics.setdefault(name, (0.0, unit_of(name)))


def remove(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)
