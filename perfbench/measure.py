"""Timing statistics, machine facts, on-disk accounting and tracing.

Everything here measures the system from outside: the tracer records
spans around calls into public entry points of the program, installed
by :func:`layer_shims` for the traced run only and removed afterwards.
No module under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

now = time.perf_counter


# ----------------------------------------------------------------------
# Sample statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """The *pct* percentile by linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie above the *pct* percentile."""
    return int(count * (100.0 - pct) / 100.0)


@dataclass
class Timing:
    """A latency sample in milliseconds, summarised as median and the
    workload's fixed tail percentile."""

    samples: List[float]
    tail_pct: float

    @property
    def p50(self) -> float:
        return statistics.median(self.samples)

    @property
    def tail(self) -> float:
        return percentile(self.samples, self.tail_pct)

    def describe(self) -> str:
        n = len(self.samples)
        note = "" if beyond(n, self.tail_pct) >= 10 else " (fewer than 10 beyond)"
        return (
            f"n={n} p50={self.p50:.3f} p{self.tail_pct:g}={self.tail:.3f}{note}"
        )


# ----------------------------------------------------------------------
# Machine facts and resource accounting
# ----------------------------------------------------------------------


def machine_facts() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disk_bytes(directory: Path) -> int:
    """Bytes of every file under a database directory: npz units,
    ``catalog.json``, ``schema.ddl`` and ``wal.jsonl``."""
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def user_bytes(values) -> int:
    """The size of user data: its compact JSON text.  One definition for
    every workload, so stored-bytes ratios compare across them."""
    return len(json.dumps(values, separators=(",", ":")))


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int
    #: Free-form counts recorded where the work happened.
    counts: Optional[Dict[str, float]] = None

    def as_json(self) -> dict:
        out = {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }
        if self.counts:
            out["counts"] = self.counts
        return out


class Tracer:
    """Spans kept in memory (name, start, end, parent, request id) and
    written out when the run ends.  A span opened with no enclosing span
    on its thread starts a new request; its children share its id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: (pinned snapshot, catalog names bound) per traced MIL plan.
        self.bindings: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            now(),
            0.0,
            parent.span_id if parent else None,
            parent.request if parent else span_id,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = now()
            stack.pop()
            self.spans.append(span)

    def child(self, parent: Span, name: str, start: float, end: float,
              counts: Optional[Dict[str, float]] = None) -> None:
        """Record a span measured by stamps rather than a ``with``."""
        self.spans.append(
            Span(next(self._ids), name, start, end, parent.span_id,
                 parent.request, counts)
        )

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's self time in ms: its duration
        minus the part of that interval its child spans cover."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + (
                    span.end - span.start
                )
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            own = span.end - span.start - covered.get(span.span_id, 0.0)
            out.setdefault(span.name, []).append(own * 1000.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.as_json()) + "\n")


# ----------------------------------------------------------------------
# Layer shims for the traced run
# ----------------------------------------------------------------------

JOIN_OPS = {
    "join", "leftjoin", "fetchjoin", "outerjoin", "semijoin",
    "kdiff", "kunion", "kintersect",
}
SELECT_OPS = {"select", "uselect", "likeselect"}
FAMILIES = ("join", "select", "multiplex", "pump", "other")


def statement_family(statement) -> str:
    """Operator family of one MIL statement: its outermost operation."""
    from repro.monet.mil import ast

    node = statement.expr
    if isinstance(node, ast.Multiplex):
        return "multiplex"
    if isinstance(node, ast.Pump):
        return "pump"
    name = getattr(node, "method", None) or getattr(node, "func", None)
    if name in JOIN_OPS:
        return "join"
    if name in SELECT_OPS:
        return "select"
    return "other"


def _nodes(node) -> Iterator[object]:
    """*node* and every expression nested in it."""
    yield node
    for child in ("receiver", "left", "right"):
        value = getattr(node, child, None)
        if value is not None:
            yield from _nodes(value)
    for arg in getattr(node, "args", ()) or ():
        yield from _nodes(arg)


def _bun_count(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _wrap(owner, attr: str, make: Callable, patched: list) -> None:
    original = getattr(owner, attr)
    patched.append((owner, attr, original))
    setattr(owner, attr, make(original))


@contextlib.contextmanager
def layer_shims(tracer: Tracer):
    """Install timing shims around the program's layer entry points for
    the duration of the block:

    * ``moa.query`` around ``MoaExecutor.execute`` and ``mil.query``
      around ``MILInterpreter.run``: the root span of a Moa or MIL
      request, whose id the request's other spans share;
    * ``moa.parse`` / ``moa.typecheck`` / ``moa.optimize`` /
      ``moa.compile`` around ``parse_query``, ``typecheck``,
      ``optimize`` and ``Compiler.compile_query`` as the executor calls
      them, ``moa.prepare`` around ``MoaExecutor.prepare`` (its self
      time is finalisation) and ``moa.reconstruct`` around
      ``MoaExecutor.run_compiled`` (its self time, once the MIL parse
      and run are subtracted, is parameter binding and result
      reconstruction);
    * ``mil.parse`` around ``parse_program`` and ``mil.run`` around
      ``MILInterpreter.run_program``, whose ``checkpoint`` callback is
      composed with a stamp at every statement boundary, giving one
      ``mil.op.<family>`` child span per statement;
    * a count of ``FragmentedBAT.to_bat`` calls (coalesces).
    """
    from repro.moa import compiler as moa_compiler
    from repro.moa import executor as moa_executor
    from repro.monet.fragments import FragmentedBAT
    from repro.monet.mil import interpreter as mil_interpreter

    def timed(name):
        def make(original):
            def shim(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
            return shim
        return make

    def traced_run_program(original):
        def shim(self, program, env=None, *, checkpoint=None, reader=None):
            stamps: List[float] = []

            def stamp():
                stamps.append(now())
                if checkpoint is not None:
                    checkpoint()

            with tracer.span("mil.run") as run_span:
                result = original(
                    self, program, env, checkpoint=stamp, reader=reader
                )
            stamps.append(run_span.end)
            _statement_spans(tracer, run_span, program, result, stamps)
            return result
        return shim

    def counted_to_bat(original):
        def shim(self, *args, **kwargs):
            tracer.count("fragments.coalesces")
            return original(self, *args, **kwargs)
        return shim

    patched: list = []
    try:
        _wrap(moa_executor, "parse_query", timed("moa.parse"), patched)
        _wrap(moa_executor, "typecheck", timed("moa.typecheck"), patched)
        _wrap(moa_executor, "optimize_ast", timed("moa.optimize"), patched)
        _wrap(moa_compiler.Compiler, "compile_query", timed("moa.compile"), patched)
        _wrap(moa_executor.MoaExecutor, "execute", timed("moa.query"), patched)
        _wrap(moa_executor.MoaExecutor, "prepare", timed("moa.prepare"), patched)
        _wrap(moa_executor.MoaExecutor, "run_compiled",
              timed("moa.reconstruct"), patched)
        _wrap(mil_interpreter.MILInterpreter, "run", timed("mil.query"), patched)
        _wrap(mil_interpreter, "parse_program", timed("mil.parse"), patched)
        _wrap(mil_interpreter.MILInterpreter, "run_program",
              traced_run_program, patched)
        _wrap(FragmentedBAT, "to_bat", counted_to_bat, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


@contextlib.contextmanager
def replay_counter(tracer: Tracer):
    """Count the WAL records ``_replay_wal`` applies while a database
    loads, as ``bbp.replayed_records``.  Kept apart from
    :func:`layer_shims` so a restart adds no spans to the read requests'
    layer numbers."""
    from repro.monet import bbp

    def counted_replay(original):
        def shim(pool, directory):
            applied = original(pool, directory)
            tracer.count("bbp.replayed_records", applied)
            return applied
        return shim

    patched: list = []
    try:
        _wrap(bbp, "_replay_wal", counted_replay, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _statement_spans(tracer, run_span, program, result, stamps) -> None:
    """One child span per executed statement, from the boundary stamps,
    with its output BUNs and whether any operand was fragmented.  The
    catalog names the plan binds are kept with its pinned snapshot and
    resolved to fragment counts after the run, outside every span."""
    from repro.monet.fragments import FragmentedBAT
    from repro.monet.mil import ast

    env = result.env
    statements = program.statements
    executed = min(len(statements), len(stamps) - 1)
    bound: List[str] = []
    for index in range(executed):
        statement = statements[index]
        target = getattr(statement, "name", None)
        if target is not None:
            value = env.get(target)
        else:
            value = result.value if index == len(statements) - 1 else None
        nodes = list(_nodes(statement.expr))
        fragmented = any(
            isinstance(env.get(node.name), FragmentedBAT)
            for node in nodes if isinstance(node, ast.Var)
        )
        bound.extend(
            node.args[0].value for node in nodes
            if isinstance(node, ast.Call) and node.func == "bat"
            and node.args and isinstance(node.args[0], ast.Literal)
        )
        tracer.child(run_span, f"mil.op.{statement_family(statement)}",
                     stamps[index], stamps[index + 1],
                     {"out_buns": _bun_count(value), "fragmented": int(fragmented)})
    tracer.bindings.append((result.snapshot, bound))


def bound_fragments(tracer: Tracer) -> int:
    """Fragments of every catalog input the traced plans bound."""
    total = 0
    for snapshot, names in tracer.bindings:
        for name in names:
            if snapshot is not None and snapshot.is_fragmented(name):
                total += snapshot.lookup_fragments(name).nfragments
    return total


def layer_metrics(tracer: Tracer, requests: int) -> Dict[str, float]:
    """Per-layer numbers from a traced run, per request, as self time."""
    selfs = tracer.self_times()
    per = max(1, requests)

    def ms(name: str) -> float:
        return sum(selfs.get(name, ())) / per

    out = {
        "moa.parse_ms": ms("moa.parse"),
        "moa.typecheck_ms": ms("moa.typecheck"),
        "moa.optimize_ms": ms("moa.optimize"),
        "moa.compile_ms": ms("moa.compile"),
        "moa.prepare_ms": ms("moa.prepare"),
        "moa.reconstruct_ms": ms("moa.reconstruct"),
        "mil.parse_ms": ms("mil.parse"),
        "mil.run_ms": sum(
            ms(f"mil.op.{family}") for family in FAMILIES
        ) + ms("mil.run"),
    }
    statements = [s for s in tracer.spans if s.name.startswith("mil.op.")]
    out["mil.statements"] = len(statements) / per
    for family in FAMILIES:
        out[f"mil.op.{family}_ms"] = ms(f"mil.op.{family}")
        out[f"mil.op.{family}_out_buns"] = sum(
            s.counts["out_buns"] for s in statements
            if s.name == f"mil.op.{family}"
        ) / per
    total = sum((s.end - s.start) for s in statements)
    fragmented = sum(
        (s.end - s.start) for s in statements if s.counts["fragmented"]
    )
    out["fragments.fragmented_time_share"] = fragmented / total if total else 0.0
    out["fragments.nfragments"] = bound_fragments(tracer) / per
    out["fragments.coalesces"] = tracer.counters.get("fragments.coalesces", 0) / per
    return out
