"""``text_rank``: the paper's Section 3 ranking query, in process, one
closed-loop client.

The query runs through ``db.query`` over ``build_text_db`` documents;
its time goes to the object-dtype string joins of the postings with the
query terms.  The database is saved at set-up and restarted from disk
once per round of queries, for the stored bytes and the restart time.
The answer check compares per-document scores on sampled documents
with ``InvertedIndex.score_sum`` over the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import harness
from harness import Context, WrongAnswer
from measure import Timing, layer_metrics, now, user_bytes

TEXT_DOCS = 50_000
#: Documents whose scores are checked per query.
CHECKED_DOCS = 32
#: The highest percentile with at least ten samples beyond it at the
#: sample count a 10 s window gives on a 2-core box.
QUERY_TAIL_PCT = 75


@dataclass
class Library:
    db: object
    rows: List[dict]
    stats: object
    directory: Path


def vocabulary() -> List[str]:
    """The generator's vocabulary as stored terms (analysed the way the
    Text CONTREP analyses annotations)."""
    from repro.ir.tokenize import analyze
    from repro.workloads import VOCABULARY

    return [analyze(word)[0] for word in VOCABULARY]


def dealt(rng, population: Sequence[str]) -> Iterator[str]:
    """Seeded shuffles of *population*, one after another."""
    while True:
        deck = list(population)
        rng.shuffle(deck)
        yield from deck


def deal(deck: Iterator[str], k: int) -> List[str]:
    """*k* distinct terms off the deck (a repeat at a shuffle boundary
    is skipped)."""
    chosen: List[str] = []
    while len(chosen) < k:
        term = next(deck)
        if term not in chosen:
            chosen.append(term)
    return chosen


def score_index(rows: List[dict]):
    """The reference index over the same rows.  Annotations are analysed
    word by word with a cache: the generator draws them from a fixed
    vocabulary, and analysing 50k documents whole takes seconds."""
    from repro.ir.index import InvertedIndex
    from repro.ir.tokenize import analyze
    from repro.moa.structures.contrep import ContentRepresentation

    stems: Dict[str, List[str]] = {}

    def tokens(text: str) -> List[str]:
        return [s for w in text.split() for s in stems.setdefault(w, analyze(w))]

    return InvertedIndex(
        [ContentRepresentation.from_tokens(tokens(r["annotation"])).terms
         for r in rows]
    )


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def build(ctx: Context, saves: List[float]) -> Library:
    from repro.workloads import SECTION3_QUERY, build_text_db

    db, stats, rows = build_text_db(TEXT_DOCS, seed=ctx.seed)
    directory = ctx.new_dir("text_rank-")
    harness.timed_save(db, directory, saves)
    for _ in range(2):
        db.query(SECTION3_QUERY, {"query": ["sunset"], "stats": stats})
    return Library(db, rows, stats, directory)


class Checks:
    """Scores of sampled documents, recorded during the window and
    compared with the reference after it, outside the timed loop."""

    def __init__(self, ctx: Context, count: int):
        self.rng = ctx.rng("checked-docs")
        self.count = count
        self.recorded: List[tuple] = []

    def record(self, terms, values: list) -> None:
        if len(values) != self.count:
            raise WrongAnswer(f"{len(values)} scores for {self.count} documents")
        picks = [self.rng.randrange(self.count) for _ in range(CHECKED_DOCS)]
        self.recorded.append((tuple(terms), picks, [values[i] for i in picks]))

    def verify(self, ctx: Context, index) -> None:
        reference: Dict[tuple, object] = {}
        for terms, picks, scores in self.recorded:
            if terms not in reference:
                reference[terms] = index.score_sum(list(terms))
            expected = reference[terms]
            if not all(close(s, float(expected[i])) for i, s in zip(picks, scores)):
                ctx.mismatch(f"scores differ for query {list(terms)}")


Op = Tuple[str, Callable[[], None]]


def rounds(ctx: Context, lib: Library, checks: Checks) -> Iterator[List[Op]]:
    """Rounds of eight Section 3 queries, one of each length 1..8 in a
    seeded order, with a restart before the first and the fifth.  A
    restart abandons the live database without saving and loads it from
    disk, so the restarts are spread over the window and every one is
    followed by checked queries.  Terms are dealt from seeded shuffles
    of the Zipf vocabulary, so a round asks for every term about once:
    rounds cost about the same on every seed, while single queries range
    from one rare term to eight frequent ones."""
    from repro.workloads import SECTION3_QUERY

    def restart():
        # The statistics are the query's parameter, computed at set-up;
        # the reloaded collection holds the same documents.
        lib.db = None
        lib.db = harness.restart(ctx, lib.directory)

    rng = ctx.rng("queries")
    deck = dealt(rng, vocabulary())
    def query_op(query: List[str]) -> Callable[[], None]:
        def op():
            value = lib.db.query(
                SECTION3_QUERY, {"query": query, "stats": lib.stats}
            ).value
            checks.record(query, value)
        return op

    while True:
        lengths = list(range(1, 9))
        rng.shuffle(lengths)
        ops: List[Op] = []
        for index, length in enumerate(lengths):
            if index % 4 == 0:
                ops.append(("restart", restart))
            ops.append(("query", query_op(deal(deck, length))))
        yield ops


def closed_loop(ctx: Context, rounds: Iterable[List[Op]],
                seconds: float) -> Tuple[Dict[str, List[float]], float]:
    """One client, each op run when the previous one completed; whole
    rounds of ``(kind, op)`` pairs run until *seconds* have passed.
    Returns the latencies (ms) of each kind and the wall time.  Every op
    counts as attempted; an exception or a wrong answer counts as failed
    and is not retried."""
    latencies: Dict[str, List[float]] = {}
    start = now()
    for ops in rounds:
        if now() - start >= seconds:
            break
        for kind, op in ops:
            began = now()
            try:
                op()
            except WrongAnswer as exc:
                ctx.attempted += 1
                ctx.mismatch(str(exc))
                continue
            except Exception as exc:  # noqa: BLE001 - counted, not retried
                ctx.error(exc)
                continue
            latencies.setdefault(kind, []).append((now() - began) * 1000.0)
            ctx.attempted += 1
    return latencies, now() - start


def read_window(ctx: Context, rounds: Iterable[List[Op]]) -> None:
    """The measured window.  Untraced, it gives ``query_p50_ms``,
    ``query_tail_ms`` and ``query_qps``, the queries per second of the
    time not spent restarting.  Traced, every query runs twice back to
    back, with and without the layer shims in alternating order, so the
    tracing overhead compares the same requests at the same moment, and
    the second run's warm start favours neither side."""
    if not ctx.trace:
        latencies, wall = closed_loop(ctx, rounds, ctx.seconds)
        timing = Timing(latencies["query"], QUERY_TAIL_PCT)
        ctx.notes["query"] = timing.describe()
        ctx.metric("query_p50_ms", timing.p50, "ms")
        ctx.metric("query_tail_ms", timing.tail, "ms")
        restarting = sum(latencies["restart"]) / 1000.0
        ctx.metric("query_qps", len(timing.samples) / (wall - restarting), "1/s")
        return

    def paired():
        for ops in rounds:
            both: List[Op] = []
            for index, (kind, op) in enumerate(ops):
                pair = [(kind, op)]
                if kind == "query":
                    pair.append(("traced", ctx.traced_call(op)))
                both.extend(pair if index % 2 else reversed(pair))
            yield both

    latencies, _ = closed_loop(ctx, paired(), ctx.seconds)
    plain, traced = latencies["query"], latencies["traced"]
    harness.trace_overhead(ctx, plain, traced, QUERY_TAIL_PCT)
    ctx.metric("loadgen.late_ms", 0.0, "ms")  # closed loop: never late
    for name, value in layer_metrics(ctx.tracer, len(traced)).items():
        ctx.metric(name, value, harness.unit_of(name))


def run(ctx: Context) -> None:
    saves: List[float] = []
    lib = harness.timed_setups(
        ctx, lambda: build(ctx, saves), lambda old: harness.remove(old.directory)
    )
    checks = Checks(ctx, len(lib.rows))
    read_window(ctx, rounds(ctx, lib, checks))
    harness.report_recovery(ctx)
    harness.store_ratio(ctx, lib.directory, user_bytes(lib.rows))
    checks.verify(ctx, score_index(lib.rows))
    harness.finish_layers(ctx, saves)
    harness.remove(lib.directory)
