"""End-to-end Moa query execution.

``MoaExecutor`` drives the full pipeline of the Mirror DBMS's logical
layer::

    text -> parse -> typecheck -> optimize -> flatten to MIL -> run
         -> reconstruct nested Python values

Parameters are bound by Python value: a ``list[str]`` binds a
``SET<Atomic<str>>`` (the paper's ``query``), a
:class:`repro.ir.stats.CollectionStats` binds ``stats``.  Execution
modes select the benchmark configurations:

* ``optimize=True, eager_columns=False`` -- the real system;
* ``optimize=False, eager_columns=True`` -- the unoptimized plan
  (bench E5);
* :meth:`MoaExecutor.execute_interpreted` -- the tuple-at-a-time
  reference baseline (bench E4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.ir.stats import CollectionStats
from repro.moa import ast
from repro.moa.compiler import (
    AtomCol,
    CompiledCollection,
    CompiledQuery,
    CompiledScalar,
    Compiler,
    ConstCol,
    ContrepCols,
    ContrepLazy,
    LazyCol,
    LazyNestedSet,
    NestedSet,
    Rep,
    TupleCols,
)
from repro.moa.errors import MoaRuntimeError, MoaTypeError
from repro.moa.interpreter import Interpreter
from repro.moa.optimizer import optimize as optimize_ast
from repro.moa.parser import parse_query
from repro.moa.typecheck import typecheck
from repro.moa.types import AtomicType, MoaType, SetType, StatsType
from repro.monet.bat import dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy
from repro.monet.mil import MILInterpreter


@dataclass
class QueryResult:
    """Outcome of an executed Moa query."""

    value: Any
    plan: str
    operator_counts: Dict[str, int] = field(default_factory=dict)
    compiled: Optional[CompiledQuery] = None
    #: Catalog epoch the plan's snapshot was pinned at (the
    #: transaction's epoch when run through one).
    epoch: Optional[int] = None


def infer_param_type(value: Any) -> MoaType:
    """Moa type of a Python parameter value."""
    if isinstance(value, CollectionStats):
        return StatsType()
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, str) for v in value):
            return SetType(AtomicType("str"))
        if all(isinstance(v, bool) for v in value):
            return SetType(AtomicType("bit"))
        if all(isinstance(v, int) for v in value):
            return SetType(AtomicType("int"))
        if all(isinstance(v, (int, float)) for v in value):
            return SetType(AtomicType("float"))
        raise MoaTypeError("parameter collections must be homogeneous atoms")
    raise MoaTypeError(
        f"cannot infer a Moa type for parameter of type {type(value).__name__}"
    )


class MoaExecutor:
    """Executes Moa queries against a BAT buffer pool.

    ``fragment_threshold`` is the executor's physical-layout knob: when
    set, bulk loads performed through this executor's facade (see
    :meth:`load` and :class:`repro.core.mirror.MirrorDBMS`) register
    attribute BATs of at least that many BUNs as horizontal fragments
    (:mod:`repro.monet.fragments`).  The MIL interpreter executes
    fragment-aware: plans over fragmented attributes run their hot
    operators fragment-parallel end-to-end (``fragment_policy`` is
    threaded through to govern intermediate re-fragmentation), and only
    the final result reconstruction materializes.

    One executor is safe to share across threads: compilation
    snapshots the schema dict, each run builds its own environment, and
    the MIL interpreter instance carries no per-run state.  The only
    caveat is the write path -- :meth:`load` (and the MirrorDBMS DDL /
    bulk-load facade above it) must be externally serialized, which
    :class:`repro.core.mirror.MirrorDBMS` does with its own lock.
    """

    def __init__(
        self,
        pool: BATBufferPool,
        schema: Dict[str, MoaType],
        *,
        fragment_threshold: Optional[int] = None,
        fragment_policy: Optional[FragmentationPolicy] = None,
    ):
        self.pool = pool
        self.schema = schema
        self.fragment_threshold = fragment_threshold
        self.fragment_policy = fragment_policy
        self.mil = MILInterpreter(pool, fragment_policy=fragment_policy)

    def load(self, name: str, ty: MoaType, values: List[Any]) -> None:
        """Load a collection under this executor's fragmentation
        threshold (delegates to :func:`repro.moa.mapping.load_collection`)."""
        from repro.moa.mapping import fragmentation, load_collection

        if self.fragment_threshold is None:
            load_collection(self.pool, name, ty, values)
        else:
            with fragmentation(self.fragment_threshold, self.fragment_policy):
                load_collection(self.pool, name, ty, values)

    def append(self, name: str, ty: MoaType, values: List[Any]) -> Optional[int]:
        """Append tuples to a loaded collection in O(batch) through the
        pool's copy-on-write delta path (delegates to
        :func:`repro.moa.mapping.append_collection`).  Returns the new
        cardinality, or ``None`` when the type tree has a mapper without
        an append hook -- the caller must fall back to a full reload.
        Like :meth:`load`, calls must be externally serialized."""
        from repro.moa.mapping import append_collection, fragmentation

        if self.fragment_threshold is None:
            return append_collection(self.pool, name, ty, values)
        with fragmentation(self.fragment_threshold, self.fragment_policy):
            return append_collection(self.pool, name, ty, values)

    def delete(self, name: str, ty: MoaType, positions: List[int]) -> Optional[int]:
        """Delete the tuples at extent *positions* through the pool's
        tombstone-delta path (delegates to
        :func:`repro.moa.mapping.delete_collection`).  Returns the new
        cardinality, or ``None`` when the type tree has a mapper without
        a delete hook -- the caller must fall back to a full reload.
        Like :meth:`load`, calls must be externally serialized."""
        from repro.moa.mapping import delete_collection

        return delete_collection(self.pool, name, ty, positions)

    def update(
        self, name: str, ty: MoaType, positions: List[int], values: List[Any]
    ) -> Optional[int]:
        """Patch the tuples at extent *positions* through the pool's
        patch-delta path (delegates to
        :func:`repro.moa.mapping.update_collection`).  Returns the
        cardinality, or ``None`` on a type tree without update hooks."""
        from repro.moa.mapping import update_collection

        return update_collection(self.pool, name, ty, positions, values)

    # ------------------------------------------------------------------
    def prepare(
        self,
        query: Union[str, ast.Expr],
        params: Optional[Dict[str, Any]] = None,
        *,
        optimize: bool = True,
        eager_columns: bool = False,
        cse: bool = True,
    ) -> CompiledQuery:
        """Parse/typecheck/optimize/compile without running."""
        params = params or {}
        param_types = {name: infer_param_type(v) for name, v in params.items()}
        node = parse_query(query) if isinstance(query, str) else query
        # Snapshot the schema: the service layer shares one executor
        # across sessions, and a concurrent `define` mutating the dict
        # mid-typecheck must not corrupt this compilation.
        schema = dict(self.schema)
        typed = typecheck(node, schema, param_types)
        if optimize:
            typed = optimize_ast(typed)
            typed = typecheck(typed, schema, param_types)
        compiler = Compiler(
            schema, param_types, eager_columns=eager_columns, cse=cse
        )
        compiled = compiler.compile_query(typed)
        _finalize(compiler, compiled)
        compiled.program = compiler.program()
        return compiled

    def execute(
        self,
        query: Union[str, ast.Expr],
        params: Optional[Dict[str, Any]] = None,
        *,
        optimize: bool = True,
        eager_columns: bool = False,
        cse: bool = True,
        checkpoint: Optional[Callable[[], None]] = None,
        reader: Any = None,
    ) -> QueryResult:
        """Full pipeline: compile, run the MIL plan, reconstruct.

        *checkpoint* is the per-query cancellation/deadline hook passed
        through to the MIL interpreter loop (see
        :meth:`repro.monet.mil.MILInterpreter.run_program`); *reader*
        is an already-pinned catalog snapshot for transaction-scoped
        reads (one epoch across several statements)."""
        params = params or {}
        compiled = self.prepare(
            query,
            params,
            optimize=optimize,
            eager_columns=eager_columns,
            cse=cse,
        )
        return self.run_compiled(
            compiled, params, checkpoint=checkpoint, reader=reader
        )

    def run_compiled(
        self,
        compiled: CompiledQuery,
        params: Optional[Dict[str, Any]] = None,
        *,
        checkpoint: Optional[Callable[[], None]] = None,
        reader: Any = None,
    ) -> QueryResult:
        """Run an already-compiled plan (prepared-query path)."""
        env = self._bind(params or {})
        result = self.mil.run(
            compiled.program, env, checkpoint=checkpoint, reader=reader
        )
        value = _reconstruct_result(compiled.result, result.env)
        return QueryResult(
            value=value,
            plan=compiled.program,
            operator_counts=dict(result.stats),
            compiled=compiled,
            epoch=result.epoch,
        )

    def execute_interpreted(
        self,
        query: Union[str, ast.Expr],
        data: Dict[str, List[Any]],
        params: Optional[Dict[str, Any]] = None,
        *,
        optimize: bool = False,
    ) -> Any:
        """Reference tuple-at-a-time evaluation over Python *data*
        (the [BWK98] baseline; no BATs involved)."""
        params = params or {}
        param_types = {name: infer_param_type(v) for name, v in params.items()}
        node = parse_query(query) if isinstance(query, str) else query
        schema = dict(self.schema)
        typed = typecheck(node, schema, param_types)
        if optimize:
            typed = optimize_ast(typed)
            typed = typecheck(typed, schema, param_types)
        return Interpreter(data, params).run(typed)

    # ------------------------------------------------------------------
    def _bind(self, params: Dict[str, Any]) -> Dict[str, Any]:
        env: Dict[str, Any] = {}
        for name, value in params.items():
            if isinstance(value, CollectionStats):
                env.update(value.mil_bindings(name))
            elif isinstance(value, (list, tuple)):
                atom = infer_param_type(value).element.atom  # type: ignore[union-attr]
                env[name] = dense_bat(atom, list(value))
            else:
                raise MoaTypeError(
                    f"cannot bind parameter {name!r} of type "
                    f"{type(value).__name__}"
                )
        return env


# ----------------------------------------------------------------------
# Result finalization and reconstruction
# ----------------------------------------------------------------------


def _finalize(compiler: Compiler, compiled: CompiledQuery) -> None:
    """Force every lazy/const rep in the result so the executor only
    meets materialized variables."""
    result = compiled.result
    if isinstance(result, CompiledScalar):
        return
    result.elem = _finalize_rep(compiler, result.elem, result.spine, result)


def _finalize_rep(
    compiler: Compiler, rep: Rep, head_source: str, cc: CompiledCollection
) -> Rep:
    if isinstance(rep, AtomCol):
        return rep
    if isinstance(rep, LazyCol):
        var = compiler.emit(f'{rep.gather}.join(bat("{rep.bat_name}"))', "c")
        return AtomCol(var, rep.atom)
    if isinstance(rep, ConstCol):
        from repro.moa.compiler import _literal_mil

        var = compiler.emit(
            f'const({head_source}, "{rep.atom}", {_literal_mil(rep.value, rep.atom)})',
            "c",
        )
        return AtomCol(var, rep.atom)
    if isinstance(rep, TupleCols):
        return TupleCols(
            {
                name: _finalize_rep(compiler, r, head_source, cc)
                for name, r in rep.fields.items()
            }
        )
    if isinstance(rep, LazyNestedSet):
        forced = compiler.force_nested(rep, cc)
        return _finalize_rep(compiler, forced, head_source, cc)
    if isinstance(rep, NestedSet):
        elem = _finalize_rep(compiler, rep.elem, rep.parent, cc)
        return NestedSet(parent=rep.parent, elem=elem)
    if isinstance(rep, ContrepLazy):
        return compiler.force_contrep(rep, cc)
    if isinstance(rep, ContrepCols):
        return rep
    # Extension reps may provide their own materialization hook; the
    # result must again be finalizable (typically AtomCols/TupleCols or
    # a rep with a `reconstruct(env, count)` method).
    finalize_hook = getattr(rep, "finalize_rep", None)
    if finalize_hook is not None:
        return _finalize_rep(compiler, finalize_hook(compiler), head_source, cc)
    if hasattr(rep, "reconstruct"):
        return rep
    raise MoaRuntimeError(f"cannot finalize rep {type(rep).__name__}")


def _reconstruct_result(
    result: Union[CompiledCollection, CompiledScalar], env: Dict[str, Any]
) -> Any:
    if isinstance(result, CompiledScalar):
        return env[result.var]
    count = len(env[result.spine])
    return _reconstruct_rep(result.elem, env, count)


def _reconstruct_rep(rep: Rep, env: Dict[str, Any], count: int) -> List[Any]:
    if isinstance(rep, AtomCol):
        bat = env[rep.var]
        values = bat.tail_list()
        if len(values) != count:
            raise MoaRuntimeError(
                f"column {rep.var} has {len(values)} values, expected {count}"
            )
        return values
    if isinstance(rep, TupleCols):
        columns = {
            name: _reconstruct_rep(r, env, count)
            for name, r in rep.fields.items()
        }
        return [
            {name: columns[name][i] for name in columns} for i in range(count)
        ]
    if isinstance(rep, NestedSet):
        parent_bat = env[rep.parent]
        pair_count = len(parent_bat)
        inner = _reconstruct_rep(rep.elem, env, pair_count)
        out: List[List[Any]] = [[] for _ in range(count)]
        parents = parent_bat.tail_values()
        for pair in range(pair_count):
            out[int(parents[pair])].append(inner[pair])
        return out
    if isinstance(rep, ContrepCols):
        from repro.moa.structures.contrep import ContentRepresentation

        owners = env[rep.owner].tail_values()
        terms = env[rep.term].tail_values()
        tfs = env[rep.tf].tail_values()
        lengths = env[rep.doclen].tail_values()
        per_doc: List[Dict[str, int]] = [dict() for _ in range(count)]
        for i in range(len(owners)):
            per_doc[int(owners[i])][terms[i]] = int(tfs[i])
        return [
            ContentRepresentation(per_doc[i], int(lengths[i]))
            for i in range(count)
        ]
    reconstruct_hook = getattr(rep, "reconstruct", None)
    if reconstruct_hook is not None:
        return reconstruct_hook(env, count)
    raise MoaRuntimeError(f"cannot reconstruct rep {type(rep).__name__}")
