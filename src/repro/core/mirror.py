"""MirrorDBMS: the database facade.

"The Mirror DBMS provides the basic functionality for probabilistic
inference, multimedia data types, and feature extraction techniques,
just like traditional database systems provide the basic functionality
to build administrative applications."  (Mirror paper, section 5.)

One object bundles the physical pool, the logical schema and the
executor::

    db = MirrorDBMS()
    db.define("define Lib as SET<TUPLE<Atomic<URL>: source, "
              "CONTREP<Text>: annotation>>;")
    db.insert("Lib", [{"source": ..., "annotation": "..."}, ...])
    stats = db.stats("Lib", "annotation")
    result = db.query("map[sum(THIS)](map[getBL(THIS.annotation, query, "
                      "stats)](Lib));", {"query": terms, "stats": stats})
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.stats import CollectionStats
from repro.moa import ast as moa_ast
from repro.moa.ddl import (
    DefineStatement,
    DeleteStatement,
    InsertStatement,
    UpdateStatement,
    parse_schema,
    parse_script,
    render_define,
)
from repro.moa.errors import MoaTypeError
from repro.moa.executor import MoaExecutor, QueryResult
from repro.moa.mapping import (
    VALUE_SUFFIX,
    attribute_bat_names,
    collection_count,
    reconstruct_collection,
)
from repro.moa.types import AtomicType, MoaType, TupleType
from repro.monet.bbp import BATBufferPool, replace_text
from repro.monet.errors import (
    InvalidMutationBatch,
    TransactionError,
    UnknownMutationTarget,
)
from repro.monet.fragments import FragmentationPolicy


@dataclass(frozen=True)
class MutationResult:
    """The one result type every mutation reports.

    ``count`` is rows affected (inserted / deleted / patched; for a
    ``commit`` the sum over its ``applied`` ops).  ``epoch`` is the
    catalog epoch the result is valid at: the transaction's pinned
    epoch for a staged op, the post-publish epoch for a committed one.
    """

    collection: str
    kind: str  # "insert" | "delete" | "update" | "commit" | "abort"
    count: int
    epoch: Optional[int] = None
    #: Per-op results, in staging order; non-empty only on ``commit``.
    applied: Tuple["MutationResult", ...] = ()


#: A ``where`` clause: ``None`` (every tuple), a ``{field: literal}``
#: equality conjunction (pseudo-field ``value`` for ``SET<Atomic>``),
#: a bare literal (matches ``SET<Atomic>`` elements), or a Python
#: predicate over reconstructed values.
Where = Union[None, Dict[str, Any], Callable[[Any], bool], Any]


class Transaction:
    """A multi-statement unit of work over one pinned catalog epoch.

    ``db.begin()`` pins a pool snapshot: every :meth:`query` of this
    transaction reads that one epoch, however many statements run and
    whatever concurrent writers commit in between.  Mutations --
    :meth:`insert` / :meth:`update` / :meth:`delete`, one signature
    shape, one :class:`MutationResult` type -- are *staged*:
    :meth:`commit` applies them all under the database's write lock
    (``where`` predicates re-evaluated against the live state at commit
    time, so a batch never deletes rows it can no longer see), and
    :meth:`abort` drops them leaving no visible state.  Usable as a
    context manager: clean exit commits, an exception aborts.
    """

    def __init__(self, db: "MirrorDBMS"):
        self.db = db
        self.snapshot = db.pool.read_snapshot()
        #: The pinned catalog epoch every read of this transaction sees.
        self.epoch: Optional[int] = getattr(self.snapshot, "epoch", None)
        self.state = "open"  # "open" | "committed" | "aborted"
        self._staged: List[Tuple[str, str, Any, Where]] = []

    # -- reads ---------------------------------------------------------
    def query(
        self,
        text: Union[str, moa_ast.Expr],
        params: Optional[Dict[str, Any]] = None,
        **modes,
    ) -> QueryResult:
        """Run a Moa query against the pinned snapshot (same epoch for
        every statement of the transaction).  Staged mutations are NOT
        visible -- reads see the begin-time state until commit."""
        self._require_open("query")
        return self.db.executor.execute(
            text, params, reader=self.snapshot, **modes
        )

    def count(self, name: str) -> int:
        """Cardinality of *name* at the pinned epoch."""
        self._require_open("count")
        self.db.collection_type(name)
        return collection_count(self.snapshot, name)

    def _target_type(self, name: str) -> MoaType:
        """The element type of a mutation target -- an unknown name is
        an :class:`UnknownMutationTarget` (the shared mutation-error
        vocabulary), not a bare type error."""
        try:
            return self.db.collection_type(name)
        except MoaTypeError as exc:
            raise UnknownMutationTarget(str(exc)) from None

    # -- staged mutations ---------------------------------------------
    def insert(self, name: str, values: Sequence[Any], *,
               where: Where = None) -> MutationResult:
        """Stage an insert of *values* into collection *name*."""
        self._require_open("insert")
        if where is not None:
            raise InvalidMutationBatch("insert takes no where clause")
        self._target_type(name)
        values = list(values)
        self._staged.append(("insert", name, values, None))
        return MutationResult(name, "insert", len(values), self.epoch)

    def delete(self, name: str, *, where: Where = None) -> MutationResult:
        """Stage a delete of the tuples of *name* matching *where*.
        The reported ``count`` previews the match against the pinned
        snapshot; commit re-evaluates against the live state."""
        self._require_open("delete")
        ty = self._target_type(name)
        preview = len(_where_positions(self.snapshot, name, ty, where))
        self._staged.append(("delete", name, None, where))
        return MutationResult(name, "delete", preview, self.epoch)

    def update(self, name: str, assignments: Any, *,
               where: Where = None) -> MutationResult:
        """Stage a patch: set *assignments* (a ``{field: value}`` dict
        for TUPLE elements, a bare value for ``SET<Atomic>``) on the
        tuples matching *where*.  ``count`` previews as in
        :meth:`delete`."""
        self._require_open("update")
        ty = self._target_type(name)
        _check_assignments(name, ty, assignments)
        preview = len(_where_positions(self.snapshot, name, ty, where))
        self._staged.append(("update", name, assignments, where))
        return MutationResult(name, "update", preview, self.epoch)

    # -- outcome -------------------------------------------------------
    def commit(self) -> MutationResult:
        """Apply every staged mutation under the database's write lock,
        in staging order, and publish.  Returns the summary result with
        per-op results in ``applied``."""
        self._require_open("commit")
        applied: List[MutationResult] = []
        with self.db.write_lock:
            for kind, name, payload, where in self._staged:
                ty = self.db.collection_type(name)
                if kind == "insert":
                    count = self.db._insert_locked(name, ty, payload)
                elif kind == "delete":
                    count = self.db._delete_locked(name, ty, where)
                else:
                    count = self.db._update_locked(name, ty, payload, where)
                applied.append(
                    MutationResult(name, kind, count, self.db.pool.epoch)
                )
            epoch = self.db.pool.epoch
        self.state = "committed"
        self._staged = []
        return MutationResult(
            "", "commit", sum(r.count for r in applied), epoch, tuple(applied)
        )

    def abort(self) -> MutationResult:
        """Drop every staged mutation; nothing becomes visible."""
        self._require_open("abort")
        dropped = len(self._staged)
        self._staged = []
        self.state = "aborted"
        return MutationResult("", "abort", dropped, self.epoch)

    def _require_open(self, verb: str) -> None:
        if self.state != "open":
            raise TransactionError(
                f"cannot {verb} on a {self.state} transaction"
            )

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state == "open":
            if exc_type is None:
                self.commit()
            else:
                self.abort()


class MirrorDBMS:
    """Schema + buffer pool + executor, with persistence.

    ``fragment_threshold`` turns on transparent horizontal
    fragmentation: attribute BATs loaded with at least that many BUNs
    are stored as fragments (see :mod:`repro.monet.fragments`), and
    compiled query plans execute them fragment-parallel end-to-end (the
    MIL interpreter dispatches to the fragment kernel; the optional
    ``fragment_policy`` governs intermediate re-fragmentation).

    One MirrorDBMS is safe to share across threads (the query service
    runs every session against a single instance): the read path --
    :meth:`query` and friends -- takes no lock (compilation snapshots
    the schema, the pool's own lock guards catalog access), while the
    write path (:meth:`define`, :meth:`insert`, :meth:`replace`,
    :meth:`delete`, :meth:`save`) serializes on :attr:`write_lock` so
    concurrent read-modify-write loads cannot interleave.
    """

    def __init__(
        self,
        pool: Optional[BATBufferPool] = None,
        *,
        fragment_threshold: Optional[int] = None,
        fragment_policy: Optional[FragmentationPolicy] = None,
    ):
        self.pool = pool if pool is not None else BATBufferPool()
        self.schema: Dict[str, MoaType] = {}
        #: Serializes DDL and bulk loads; reads never take it.
        self.write_lock = threading.RLock()
        self._executor = MoaExecutor(
            self.pool,
            self.schema,
            fragment_threshold=fragment_threshold,
            fragment_policy=fragment_policy,
        )

    @property
    def fragment_threshold(self) -> Optional[int]:
        return self._executor.fragment_threshold

    @fragment_threshold.setter
    def fragment_threshold(self, value: Optional[int]) -> None:
        self._executor.fragment_threshold = value

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def define(self, ddl: str) -> List[str]:
        """Execute one or more ``define`` statements; returns the names."""
        parsed = parse_schema(ddl)
        with self.write_lock:
            for name, ty in parsed.items():
                self.schema[name] = ty
        return list(parsed)

    def collection_type(self, name: str) -> MoaType:
        try:
            return self.schema[name]
        except KeyError:
            raise MoaTypeError(f"no collection named {name!r}") from None

    def collections(self) -> List[str]:
        return sorted(self.schema)

    def ddl(self) -> str:
        """The whole schema as DDL text."""
        return "\n".join(
            render_define(name, ty) for name, ty in sorted(self.schema.items())
        )

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Open a :class:`Transaction`: one pinned catalog epoch for
        every read, staged insert/update/delete applied atomically (all
        under the write lock) at commit, dropped wholesale at abort."""
        return Transaction(self)

    def insert(self, name: str, values: Sequence[Any]) -> int:
        """Insert *values* into collection *name*; returns the new
        cardinality.

        Thin auto-commit delegate over the :class:`Transaction` path
        (``begin(); insert(...); commit()``) -- prefer :meth:`begin`
        when several mutations or epoch-stable reads belong together.

        When the collection is already loaded and every mapper in its
        type tree supports incremental append, the commit takes the
        O(batch) delta path: new tuples get the next dense oids and
        every attribute BAT grows an append tail through the pool's
        copy-on-write/WAL machinery, so in-flight snapshot readers keep
        seeing the pre-insert state.  Otherwise (first load, or an
        extension structure without an append hook, e.g. CONTREP) it
        falls back to the bulk reconstruct+reload path."""
        txn = self.begin()
        txn.insert(name, values)
        txn.commit()
        return self.count(name)

    def execute(self, script: str) -> List[str]:
        """Run a mixed DDL/DML script (``define``, ``insert``,
        ``delete`` and ``update`` statements, in order); returns one
        summary line per statement.  Insert rows bind positionally to
        the element type's TUPLE fields (or a single literal for
        ``SET<Atomic<...>>``); delete/update predicates are single
        field-equality tests (see :mod:`repro.moa.ddl`)."""
        outcomes: List[str] = []
        with self.write_lock:
            for statement in parse_script(script):
                if isinstance(statement, DefineStatement):
                    self.schema[statement.name] = statement.ty
                    outcomes.append(f"defined {statement.name}")
                elif isinstance(statement, InsertStatement):
                    ty = self.collection_type(statement.name)
                    rows = _bind_rows(statement.name, ty, statement.rows)
                    count = self.insert(statement.name, rows)
                    outcomes.append(
                        f"inserted {len(rows)} into {statement.name} "
                        f"(count {count})"
                    )
                elif isinstance(statement, DeleteStatement):
                    where = dict([statement.where]) if statement.where else None
                    removed = self.delete(statement.name, where=where)
                    outcomes.append(
                        f"deleted {removed} from {statement.name}"
                    )
                elif isinstance(statement, UpdateStatement):
                    where = dict([statement.where]) if statement.where else None
                    ty = self.collection_type(statement.name)
                    assignments: Any = statement.assignments
                    if isinstance(getattr(ty, "element", None), AtomicType):
                        assignments = _atomic_assignment(
                            statement.name, assignments
                        )
                    touched = self.update(
                        statement.name, assignments, where=where
                    )
                    outcomes.append(
                        f"updated {touched} in {statement.name}"
                    )
        return outcomes

    def replace(self, name: str, values: Sequence[Any]) -> int:
        """Replace the contents of collection *name* entirely."""
        ty = self.collection_type(name)
        with self.write_lock:
            self._executor.load(name, ty, list(values))
        return len(values)

    def delete(self, name: str, predicate: Optional[str] = None, *,
               where: Where = None) -> int:
        """Delete tuples of *name*; returns how many were removed.

        The primary form is ``where=`` -- ``None`` (all), a
        ``{field: literal}`` equality dict, a bare literal for
        ``SET<Atomic>`` elements, or a Python predicate -- which is an
        auto-commit delegate over the :class:`Transaction` path and
        takes the O(changed) tombstone-delta route when the type tree
        supports it.

        The positional *predicate* form (a Moa boolean expression
        against ``THIS``) is the legacy surface, kept for callers that
        predate the unified mutation API; it recomputes the survivors
        with a compiled ``select[not(...)]`` and reloads.  Prefer
        ``where=``.
        """
        if predicate is not None:
            if where is not None:
                raise InvalidMutationBatch(
                    "delete takes a Moa predicate or where=, not both"
                )
            if not isinstance(predicate, str):
                where = predicate
            else:
                with self.write_lock:
                    before = self.count(name)
                    survivors = self.query(
                        f"select[not ({predicate})]({name});"
                    ).value
                    self.replace(name, survivors)
                return before - len(survivors)
        txn = self.begin()
        txn.delete(name, where=where)
        result = txn.commit()
        return result.applied[0].count

    def update(self, name: str, assignments: Any, *,
               where: Where = None) -> int:
        """Patch tuples of *name*: set *assignments* (``{field: value}``
        for TUPLE elements, a bare value for ``SET<Atomic>``) on the
        tuples matching *where*; returns how many were patched.
        Auto-commit delegate over the :class:`Transaction` path; the
        patch-delta route copies only the touched fragments' tails."""
        txn = self.begin()
        txn.update(name, assignments, where=where)
        result = txn.commit()
        return result.applied[0].count

    # -- commit-time internals (hold write_lock when calling) ----------
    def _insert_locked(self, name: str, ty: MoaType,
                       values: List[Any]) -> int:
        inserted = len(values)
        if self.pool.exists(f"{name}.__extent__"):
            appended = self._executor.append(name, ty, values)
            if appended is not None:
                return inserted
            values = reconstruct_collection(self.pool, name, ty) + values
        self._executor.load(name, ty, values)
        return inserted

    def _delete_locked(self, name: str, ty: MoaType, where: Where) -> int:
        positions = _where_positions(self.pool, name, ty, where)
        if not positions:
            return 0
        if self._executor.delete(name, ty, positions) is None:
            doomed = set(positions)
            survivors = [
                v
                for i, v in enumerate(
                    reconstruct_collection(self.pool, name, ty)
                )
                if i not in doomed
            ]
            self._executor.load(name, ty, survivors)
        return len(positions)

    def _update_locked(self, name: str, ty: MoaType, assignments: Any,
                       where: Where) -> int:
        positions = _where_positions(self.pool, name, ty, where)
        if not positions:
            return 0
        values = [assignments] * len(positions)
        if self._executor.update(name, ty, positions, values) is None:
            existing = reconstruct_collection(self.pool, name, ty)
            for position in positions:
                if isinstance(assignments, dict):
                    existing[position] = {
                        **existing[position], **assignments
                    }
                else:
                    existing[position] = assignments
            self._executor.load(name, ty, existing)
        return len(positions)

    def count(self, name: str) -> int:
        self.collection_type(name)
        return collection_count(self.pool, name)

    def contents(self, name: str) -> List[Any]:
        """Reconstruct the collection as Python values."""
        return reconstruct_collection(self.pool, name, self.collection_type(name))

    def bat_names(self, name: str) -> List[str]:
        """Physical BATs the collection occupies."""
        return attribute_bat_names(name, self.collection_type(name))

    # ------------------------------------------------------------------
    # Statistics (the `stats` query parameter)
    # ------------------------------------------------------------------
    def stats(self, collection: str, attribute: str) -> CollectionStats:
        """Collection statistics for a CONTREP attribute."""
        self.collection_type(collection)
        return CollectionStats.from_pool(self.pool, f"{collection}.{attribute}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def executor(self) -> MoaExecutor:
        return self._executor

    def query(
        self,
        text: Union[str, moa_ast.Expr],
        params: Optional[Dict[str, Any]] = None,
        **modes,
    ) -> QueryResult:
        """Run a Moa query through the full compiled pipeline."""
        return self._executor.execute(text, params, **modes)

    def query_interpreted(
        self,
        text: Union[str, moa_ast.Expr],
        params: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Run a query with the tuple-at-a-time reference interpreter
        over reconstructed data (slow; benchmarking/testing)."""
        data = {name: self.contents(name) for name in self.schema
                if self.pool.exists(f"{name}.__extent__")}
        return self._executor.execute_interpreted(text, data, params)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Persist pool + schema to *directory*."""
        directory = Path(directory)
        with self.write_lock:
            self.pool.save(directory)
            replace_text(directory / "schema.ddl", self.ddl() + "\n")

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "MirrorDBMS":
        """Restore a database saved with :meth:`save`."""
        directory = Path(directory)
        db = cls(BATBufferPool.load(directory))
        ddl_path = directory / "schema.ddl"
        if ddl_path.exists():
            db.define(ddl_path.read_text())
        return db


def _bind_rows(name: str, ty: MoaType, rows: List[List[Any]]) -> List[Any]:
    """Bind positional insert-statement literal rows to the element
    type of collection *name*: dicts by field order for TUPLE elements,
    bare values for Atomic elements."""
    element_ty = getattr(ty, "element", None)
    if isinstance(element_ty, TupleType):
        fields = [field_name for field_name, _ in element_ty.fields]
        values: List[Any] = []
        for row in rows:
            if len(row) != len(fields):
                raise MoaTypeError(
                    f"insert into {name}: expected {len(fields)} literals "
                    f"per row, got {len(row)}"
                )
            values.append(dict(zip(fields, row)))
        return values
    if isinstance(element_ty, AtomicType):
        for row in rows:
            if len(row) != 1:
                raise MoaTypeError(
                    f"insert into {name}: expected one literal per row "
                    f"for {element_ty.render()} elements, got {len(row)}"
                )
        return [row[0] for row in rows]
    rendered = element_ty.render() if element_ty is not None else ty.render()
    raise MoaTypeError(
        f"insert into {name}: no literal row form for {rendered} elements"
    )


def _atomic_assignment(name: str, assignments: Dict[str, Any]) -> Any:
    """Unwrap a DDL ``set value = lit`` assignment dict for a
    ``SET<Atomic>`` collection into the bare element value."""
    if set(assignments) != {"value"}:
        raise InvalidMutationBatch(
            f"update {name}: atomic-element collections take exactly "
            "'set value = ...'"
        )
    return assignments["value"]


def _check_assignments(name: str, ty: MoaType, assignments: Any) -> None:
    """Validate an update's assignments against the element type at
    stage time, so commit cannot fail on a malformed field name."""
    element_ty = getattr(ty, "element", None)
    if isinstance(element_ty, TupleType):
        if not isinstance(assignments, dict) or not assignments:
            raise InvalidMutationBatch(
                f"update {name}: TUPLE elements take a non-empty "
                "{field: value} dict"
            )
        fields = {field_name for field_name, _ in element_ty.fields}
        unknown = set(assignments) - fields
        if unknown:
            raise InvalidMutationBatch(
                f"update {name}: unknown field(s) {sorted(unknown)}"
            )
    elif isinstance(element_ty, AtomicType):
        if isinstance(assignments, dict):
            raise InvalidMutationBatch(
                f"update {name}: {element_ty.render()} elements take a "
                "bare value, not a dict"
            )


def _attribute_tails(reader: Any, bat_name: str) -> List[Any]:
    """Tail values of an attribute BAT through any pool-like reader
    (live pool, PoolSnapshot, namespace), coalescing fragments."""
    if reader.is_fragmented(bat_name):
        return reader.lookup_fragments(bat_name).to_bat().tail_list()
    return reader.lookup(bat_name).tail_list()


def _where_positions(
    reader: Any, name: str, ty: MoaType, where: Where
) -> List[int]:
    """Extent positions (== dense oids) of collection *name* matching
    *where*, evaluated against *reader* (a live pool at commit time, a
    pinned snapshot for previews).  Equality follows the kernel's
    comparison rule: a NIL literal matches nothing."""
    count = collection_count(reader, name)
    if where is None:
        return list(range(count))
    if callable(where):
        values = reconstruct_collection(reader, name, ty)
        return [i for i, v in enumerate(values) if where(v)]
    element_ty = getattr(ty, "element", None)
    if not isinstance(where, dict):
        if isinstance(element_ty, AtomicType):
            where = {"value": where}
        else:
            raise InvalidMutationBatch(
                f"{name}: where must be None, a {{field: literal}} dict "
                "or a predicate for TUPLE elements"
            )
    if not where:
        return list(range(count))
    positions: Optional[set] = None
    tuple_fields = (
        {field_name for field_name, _ in element_ty.fields}
        if isinstance(element_ty, TupleType)
        else None
    )
    for field_name, literal in where.items():
        if isinstance(element_ty, AtomicType) or field_name == "value":
            if not isinstance(element_ty, AtomicType):
                raise InvalidMutationBatch(
                    f"{name}: pseudo-field 'value' only addresses "
                    "SET<Atomic> elements"
                )
            bat_name = f"{name}.{VALUE_SUFFIX}"
        else:
            if tuple_fields is not None and field_name not in tuple_fields:
                raise InvalidMutationBatch(
                    f"{name}: unknown where field {field_name!r}"
                )
            bat_name = f"{name}.{field_name}"
        if literal is None:
            hits: set = set()  # NIL equals nothing (comparison rule)
        else:
            tails = _attribute_tails(reader, bat_name)
            hits = {
                i for i, v in enumerate(tails)
                if v is not None and v == literal
            }
        positions = hits if positions is None else positions & hits
        if not positions:
            return []
    return sorted(positions) if positions is not None else []
