"""``service_mix``: the query service over TCP, two connections.

The mix is 70% MIL range selects on a 1M-BUN int BAT, 20% MIL counts
of such a select and 10% small Moa ``count(select[...])`` queries on a
5k-row collection.  An open-loop phase at a fixed rate (about half of
what two connections saturate at on a 2-core box) gives the latency
metrics, timed from when each request was due; a closed-loop phase
gives the throughput.  Kernel work is small here: framing, admission,
sessions and per-request plan compilation dominate.  Answers are
compared with numpy over the same generated arrays.  The service only
reads; the database is saved at set-up, and at the end of every slice
the service stops, abandons it and serves it again from disk, for the
stored bytes and the restart time.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
from harness import Context
from measure import Timing, layer_metrics, now, percentile, user_bytes

BUNS = 1_000_000
DOMAIN = 1_000_000
ITEMS = 5_000
CONNECTIONS = 2
#: Requests per second over both connections in the open-loop phase.
OPEN_LOOP_RATE = 100.0
#: The window is cut into one-second slices, each split into an
#: open-loop and a closed-loop phase and ended by a restart, so every
#: metric samples the whole window.
OPEN_SHARE, CLOSED_SHARE = 0.6, 0.4
SELECT_WIDTH = 500
COUNT_WIDTH = 20_000
DISTINCT_REQUESTS = 512
QUERY_TAIL_PCT = 75

FACTS = {"open_loop_rate": OPEN_LOOP_RATE, "connections": CONNECTIONS}

ITEMS_DDL = (
    "define Items as SET<TUPLE<Atomic<int>: k, Atomic<str>: tag, "
    "Atomic<int>: v>>;"
)


@dataclass
class Request:
    kind: str  # "select" | "count" | "moa"
    text: str
    expected: Tuple


@dataclass
class Served:
    db: object
    ints: object
    items: List[dict]
    requests: List[Request]
    directory: Path
    thread: Optional[object]
    clients: list


def make_requests(ctx: Context, ints, items) -> List[Request]:
    """A seeded pool of distinct requests, each with its answer
    computed by numpy."""
    import numpy as np

    rng = ctx.rng("requests")
    values = np.array([row["v"] for row in items])
    heads = np.arange(len(ints))
    requests: List[Request] = []
    for _ in range(DISTINCT_REQUESTS):
        draw = rng.random()
        if draw < 0.7:
            lo = rng.randrange(DOMAIN - SELECT_WIDTH)
            hi = lo + SELECT_WIDTH
            mask = (ints >= lo) & (ints <= hi)
            requests.append(Request(
                "select", f'bat("ints").select({lo}, {hi});',
                (int(mask.sum()), int(heads[mask].sum()), int(ints[mask].sum())),
            ))
        elif draw < 0.9:
            lo = rng.randrange(DOMAIN - COUNT_WIDTH)
            hi = lo + COUNT_WIDTH
            requests.append(Request(
                "count", f'count(bat("ints").select({lo}, {hi}));',
                (int(((ints >= lo) & (ints <= hi)).sum()),),
            ))
        else:
            lo = rng.randrange(980)
            hi = lo + 20
            requests.append(Request(
                "moa", f"count(select[THIS.v >= {lo} and THIS.v < {hi}](Items));",
                (int(((values >= lo) & (values < hi)).sum()),),
            ))
    return requests


def answer(request: Request, value) -> Tuple:
    if request.kind == "select":
        return (len(value), sum(value.head), sum(value.tail))
    return (int(value),)


def send(client, request: Request):
    if request.kind == "moa":
        return client.moa(request.text)
    return client.mil(request.text)


def build(ctx: Context, saves: List[float]) -> Served:
    import numpy as np

    from repro.core.mirror import MirrorDBMS
    from repro.monet.bat import BAT, Column, VoidColumn

    generator = np.random.default_rng(ctx.seed)
    ints = generator.integers(0, DOMAIN, BUNS).astype(np.int64)
    rng = ctx.rng("items")
    items = [
        {"k": i, "tag": f"t{rng.randrange(50)}", "v": rng.randrange(1000)}
        for i in range(ITEMS)
    ]
    db = MirrorDBMS()
    db.pool.register("ints", BAT(VoidColumn(0, BUNS), Column("int", ints)))
    db.define(ITEMS_DDL)
    db.replace("Items", items)
    directory = ctx.new_dir("service-")
    harness.timed_save(db, directory, saves)
    served = Served(db, ints, items, make_requests(ctx, ints, items),
                    directory, None, [])
    start(served)
    for client in served.clients:
        for request in served.requests[:20]:
            send(client, request)
    return served


def start(served: Served) -> None:
    from repro.service import ServiceClient, ServiceConfig, ServiceThread

    served.thread = ServiceThread(
        served.db, ServiceConfig(max_inflight=CONNECTIONS)
    ).start()
    served.clients = [ServiceClient(*served.thread.service.address, timeout=60)
                      for _ in range(CONNECTIONS)]


def restart(ctx: Context, served: Served) -> None:
    """Stop the service, abandon the database without saving, load it
    from disk (the timed part) and serve it again."""
    stop(served)
    served.db = None
    served.db = harness.restart(ctx, served.directory)
    start(served)


def stop(served: Served) -> None:
    for client in served.clients:
        client.close()
    served.clients = []
    if served.thread is not None:
        served.thread.stop()
        served.thread = None


def teardown(served: Served) -> None:
    stop(served)
    harness.remove(served.directory)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


class Outcomes:
    """Latencies, lateness and failures collected from client threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}

    def done(self, request: Request, value, due: float, sent: float) -> None:
        ok = answer(request, value) == request.expected
        with self.lock:
            self.attempted += 1
            self.latencies.append((now() - due) * 1000.0)
            self.late.append((sent - due) * 1000.0)
            if not ok:
                self.failed += 1
                self.errors["wrong"] = self.errors.get("wrong", 0) + 1

    def error(self, exc: Exception) -> None:
        code = getattr(exc, "code", type(exc).__name__)
        with self.lock:
            self.attempted += 1
            self.failed += 1
            self.errors[code] = self.errors.get(code, 0) + 1

    def settle(self, ctx: Context, phase: str) -> None:
        ctx.attempted += self.attempted
        ctx.failed += self.failed
        ctx.wrong += self.errors.get("wrong", 0)
        if self.errors:
            ctx.notes[f"{phase}_errors"] = dict(self.errors)


def _stream(ctx: Context, served: Served, connection: int, phase: str):
    rng = ctx.rng(f"{phase}:{connection}")
    while True:
        yield served.requests[rng.randrange(len(served.requests))]


def _drive(ctx: Context, served: Served, phase: str, seconds: float,
           rate) -> Tuple[Outcomes, float]:
    """Every connection on its own thread.  With *rate*, requests are
    due on a fixed schedule (open loop) and latency counts from when
    each was due; without, each is sent when the previous returned."""
    from repro.service import ServiceError

    outcomes = Outcomes()
    start = now() + 0.005  # the threads' start-up
    interval = CONNECTIONS / rate if rate else 0.0

    def client_loop(index: int) -> None:
        client = served.clients[index]
        requests = _stream(ctx, served, index, phase)
        sent_count = 0
        while True:
            due = start + (sent_count + index / CONNECTIONS) * interval
            current = now()
            if rate is None:
                due = current
            elif due > current:
                time.sleep(due - current)
            if due - start >= seconds:
                return
            sent_count += 1
            request = next(requests)
            sent = now()
            try:
                value = send(client, request)
            except (ServiceError, OSError) as exc:
                outcomes.error(exc)
                continue
            outcomes.done(request, value, due, sent)

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes.settle(ctx, phase)
    return outcomes, now() - start


def _in_process(ctx: Context, served: Served, seconds: float) -> List[float]:
    """The same request texts run in process, one at a time."""
    from repro.monet.mil import MILInterpreter

    interpreter = MILInterpreter(served.db.pool)
    requests = _stream(ctx, served, 0, "in-process")
    latencies: List[float] = []
    start = now()
    while now() - start < seconds:
        request = next(requests)
        began = now()
        if request.kind == "moa":
            value = served.db.query(request.text).value
        else:
            value = interpreter.run(request.text).value
        latencies.append((now() - began) * 1000.0)
        ctx.attempted += 1
        if _in_process_answer(request, value) != request.expected:
            ctx.mismatch(f"in-process {request.text}")
    return latencies


def _in_process_answer(request: Request, value) -> Tuple:
    if request.kind == "select":
        return (len(value), int(value.head_values().sum()),
                int(value.tail_values().sum()))
    return (int(value),)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run(ctx: Context) -> None:
    saves: List[float] = []
    served = harness.timed_setups(ctx, lambda: build(ctx, saves), teardown,
                                  repeats=9)
    if ctx.trace:
        _traced_reads(ctx, served)
        status = served.thread.service.status()
        ctx.metric("service.rejected",
                   status["rejected_busy"] + status["rejected_deadline"], "count")
        ctx.metric("service.peak_inflight", status["peak_inflight"], "count")
        restart(ctx, served)
    else:
        latencies: List[float] = []
        late: List[float] = []
        completed, wall = 0, 0.0
        for index in range(max(1, round(ctx.seconds))):
            opened, _ = _drive(ctx, served, f"open{index}", OPEN_SHARE,
                               OPEN_LOOP_RATE)
            closed, seconds = _drive(ctx, served, f"closed{index}",
                                     CLOSED_SHARE, None)
            restart(ctx, served)
            latencies += opened.latencies
            late += opened.late
            completed += closed.attempted - closed.failed
            wall += seconds
        timing = Timing(latencies, QUERY_TAIL_PCT)
        ctx.notes["query"] = timing.describe()
        ctx.notes["closed_loop_requests"] = completed
        ctx.notes["late_ms_p99"] = percentile(late, 99)
        ctx.metric("query_p50_ms", timing.p50, "ms")
        ctx.metric("query_tail_ms", timing.tail, "ms")
        ctx.metric("query_qps", completed / wall, "1/s")
    stop(served)
    harness.report_recovery(ctx)
    harness.store_ratio(
        ctx, served.directory,
        user_bytes(served.ints.tolist()) + user_bytes(served.items),
    )
    harness.check_collection(ctx, served.db, "Items", served.items,
                             key=lambda r: r["k"])
    ctx.attempted += 1
    if not (served.db.pool.lookup("ints").tail_values() == served.ints).all():
        ctx.mismatch("restarted ints differ")
    harness.finish_layers(ctx, saves)
    harness.remove(served.directory)


def _traced_reads(ctx: Context, served: Served) -> None:
    """Four quarters: open loop untraced, open loop traced (the layer
    spans, generator lateness and tracing overhead), then the same
    request texts closed loop over one connection and in process, whose
    medians differ by the service overhead."""
    quarter = ctx.seconds / 4
    plain, _ = _drive(ctx, served, "open", quarter, OPEN_LOOP_RATE)
    with ctx.traced():
        traced, _ = _drive(ctx, served, "open", quarter, OPEN_LOOP_RATE)
    harness.trace_overhead(ctx, plain.latencies, traced.latencies, QUERY_TAIL_PCT)
    ctx.metric("loadgen.late_ms", percentile(traced.late, 99), "ms")
    for name, value in layer_metrics(ctx.tracer, traced.attempted).items():
        ctx.metric(name, value, harness.unit_of(name))

    from repro.service import ServiceError

    wire: List[float] = []
    requests = _stream(ctx, served, 0, "in-process")
    start = now()
    while now() - start < quarter:
        request = next(requests)
        began = now()
        try:
            value = send(served.clients[0], request)
        except (ServiceError, OSError) as exc:
            ctx.error(exc)
            continue
        wire.append((now() - began) * 1000.0)
        ctx.attempted += 1
        if answer(request, value) != request.expected:
            ctx.mismatch(f"wire {request.text}")
    local = _in_process(ctx, served, quarter)
    ctx.notes["wire_closed"] = Timing(wire, QUERY_TAIL_PCT).describe()
    ctx.notes["in_process"] = Timing(local, QUERY_TAIL_PCT).describe()
    ctx.metric("service.overhead_ms",
               statistics.median(wire) - statistics.median(local), "ms")
