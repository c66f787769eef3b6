"""Horizontal BAT fragmentation with fragment-parallel kernel operators.

A :class:`FragmentedBAT` represents one logical BAT as an ordered list
of horizontal *fragments*, each a normal (usually void-headed)
:class:`repro.monet.bat.BAT`.  Fragmentation is the classic physical
lever for parallelism: the logical algebra is untouched, while the hot
kernel operators fan out over fragments on a shared
:class:`~concurrent.futures.ThreadPoolExecutor` (numpy releases the GIL
on its bulk paths) and the results are recombined in BUN order.

The pool (:func:`map_fragments`) is created lazily and belongs to the
process that created it: a forked child builds its own.

Two split strategies are supported through
:class:`FragmentationPolicy`:

``range``
    contiguous BUN ranges of at most ``target_size`` BUNs.  Fragment
    order *is* BUN order, so recombination is plain concatenation.
``roundrobin``
    BUN ``i`` goes to fragment ``i % n_fragments``.  Each fragment
    remembers the global BUN positions of its rows so results can be
    merged back into BUN order.

Every operator here is the exact fragment-parallel counterpart of a
:mod:`repro.monet.kernel`, :mod:`repro.monet.groups` or
:mod:`repro.monet.aggregates` operator;
``tests/monet/test_fragment_differential.py`` asserts BUN-for-BUN
identity against the monolithic kernel and against naive pure-Python
references, ``tests/monet/test_mil_fragments.py`` does the same for
whole MIL programs, and ``tests/monet/test_mil_fuzz.py`` fuzzes the
composition space with randomized pipelines.  The operator set covers
everything the MIL dispatch layer (:mod:`repro.monet.mil.builtins`)
routes here -- including the order-sensitive operators
(``sort``/``tsort``, ``unique``/``kunique``/``tunique``, ``refine``),
whose per-fragment parallel passes meet in a **sample-sort merge**
(pivots cut the key space so every output partition builds
independently, in parallel; :func:`_sample_sort_merge`) or a
candidate-set resolution, and the set operators
(``kunion``/``kintersect``, plus the ``semijoin``/``kdiff`` fast
path), which probe a shared head-membership build
(:func:`_member_build`) per fragment -- so a pipeline like
``select -> kunion -> sort -> unique -> aggregate`` runs
fragment-parallel end-to-end with at most one coalesce at result
return.  The tuning defaults (fragment size, serial-execution floor,
merge fan-out) derive from the live core count and can be replaced by
measured values (:func:`set_default_tuning`; see the calibration pass
in ``benchmarks/bench_fragments.py``), which persist next to the BBP
catalog (:meth:`repro.monet.bbp.BATBufferPool.save`) so a restarted
server skips the measurement pass.

Property flags on recombined results are maintained *conservatively*:
a flag is only ``True`` when the concatenation provably preserves it
(e.g. consecutive void heads fuse back into one void head).
"""

from __future__ import annotations

import heapq
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.monet import aggregates as _agg
from repro.monet import kernel as _kernel
from repro.monet.atoms import atom
from repro.monet.bat import (
    BAT,
    AnyColumn,
    Column,
    VoidColumn,
    _normalize_positions,
    bat_from_pairs,
    dense_bat,
)
from repro.monet.errors import InvalidMutationBatch, KernelError


def _derive_fragment_size(cores: Optional[int] = None) -> int:
    """Default BUN count per fragment, derived from the live core count.

    Two pressures: a fragment of int64 tails should stay inside an
    L2-sized working set (64Ki BUNs ~ 0.5 MB), and a moderately large
    BAT (1M BUNs) should still yield at least two fragments per core so
    the pool saturates.  Many-core hosts therefore get smaller
    fragments; the floor keeps per-fragment dispatch overhead
    negligible.  ``REPRO_FRAGMENT_SIZE`` overrides the derivation, and
    :func:`set_default_tuning` installs measured values (see the
    calibration pass in ``benchmarks/bench_fragments.py``).
    """
    cores = cores or os.cpu_count() or 1
    cache_resident = 64 * 1024
    saturating = (1 << 20) // max(1, 2 * cores)
    return max(8 * 1024, min(cache_resident, saturating))


def _derive_parallel_min(fragment_size: int, cores: Optional[int] = None) -> int:
    """Serial-execution floor, derived from the fragment size and core
    count: parallel dispatch starts paying off once a BAT spans a few
    fragments; with more cores the thread-pool cost amortizes earlier.
    ``REPRO_PARALLEL_MIN_BUNS`` overrides."""
    cores = cores or os.cpu_count() or 1
    return fragment_size * max(2, 8 // max(1, cores))


def _derive_merge_fanout(cores: Optional[int] = None) -> int:
    """Upper bound on the number of range partitions the sample-sort
    merge phase builds in parallel.  The cap is cache-driven at least
    as much as core-driven: even on one core, partition merges whose
    key+position working set stays L2-resident beat the old streaming
    tournament (measured ~1.37x -> ~1.17x single-core overhead on
    duplicate-heavy 1M-BUN sorts), so the floor is generous; extra
    cores raise it further for genuine parallelism.  The actual
    partition count also respects a ~64k-BUN-per-partition floor
    (:func:`_merge_partition_count`), so small BATs never shatter.
    ``REPRO_MERGE_FANOUT`` overrides the derivation, and
    :func:`set_default_tuning` installs measured values."""
    cores = cores or os.cpu_count() or 1
    return max(16, 4 * cores)


#: Default BUN count per fragment (cores-derived; see
#: :func:`_derive_fragment_size`).
DEFAULT_FRAGMENT_SIZE = (
    int(os.environ.get("REPRO_FRAGMENT_SIZE", 0)) or _derive_fragment_size()
)

#: Worker floor: even on a single-core host we keep two threads so the
#: fragment fan-out code path is always exercised.
DEFAULT_WORKERS = max(2, os.cpu_count() or 1)

#: Below this many total BUNs an operator runs its fragments serially
#: (unless a worker count is pinned): the numpy work is in the tens of
#: microseconds there and thread dispatch would dominate it.
PARALLEL_MIN_BUNS = (
    int(os.environ.get("REPRO_PARALLEL_MIN_BUNS", 0))
    or _derive_parallel_min(DEFAULT_FRAGMENT_SIZE)
)

#: Cap on sample-sort merge partitions (cores-derived; see
#: :func:`_derive_merge_fanout`).
MERGE_FANOUT = (
    int(os.environ.get("REPRO_MERGE_FANOUT", 0)) or _derive_merge_fanout()
)


def _derive_join_fanout(cores: Optional[int] = None) -> int:
    """Upper bound on the number of radix partitions of the grace hash
    join.  Same two pressures as the merge fan-out: enough partitions
    that the per-partition builds saturate the pool and their key
    working sets stay cache-resident, but not so many that dispatch
    and gather overhead dominate.  ``REPRO_JOIN_FANOUT`` overrides the
    derivation, and :func:`set_default_tuning` installs measured
    values (the ``--calibrate`` pass sweeps a few candidates)."""
    cores = cores or os.cpu_count() or 1
    return max(16, 4 * cores)


#: Cap on grace-join radix partitions (cores-derived; see
#: :func:`_derive_join_fanout`).  Read live, like ``MERGE_FANOUT``.
JOIN_FANOUT = int(os.environ.get("REPRO_JOIN_FANOUT", 0)) or _derive_join_fanout()

#: Partition floor of the grace join: roughly one radix partition per
#: this many build-side BUNs, so small builds never shatter into
#: per-partition dispatch overhead.  A module constant (not an env
#: knob): tests monkeypatch it to force multi-partition execution on
#: tiny inputs.
JOIN_PARTITION_MIN_BUNS = 64 * 1024

#: Build sides above this many BUNs spill their radix partitions to
#: disk as npz units through the BBP scratch directory
#: (:func:`repro.monet.bbp.write_spill_unit`) and are then processed
#: one partition at a time, so a BAT-x-BAT join's resident build state
#: is capped near this threshold instead of the whole build side.
#: ``REPRO_JOIN_SPILL_BUNS`` overrides -- ``0`` forces every
#: partitioned build to spill (what the spill-forced differential
#: tests pin); an unset/empty variable keeps the static default.
_JOIN_SPILL_ENV = os.environ.get("REPRO_JOIN_SPILL_BUNS")
JOIN_SPILL_BUNS = int(_JOIN_SPILL_ENV) if _JOIN_SPILL_ENV else 4 * 1024 * 1024

#: True once :func:`set_default_tuning` installed measured values (as
#: opposed to the cores-derived defaults above).  Measured tuning is
#: worth persisting: :meth:`repro.monet.bbp.BATBufferPool.save` writes
#: it next to the catalog and ``load`` reinstalls it, so a restarted
#: server skips the measurement pass.
_TUNING_MEASURED = False


def set_default_tuning(
    *,
    fragment_size: Optional[int] = None,
    parallel_min: Optional[int] = None,
    merge_fanout: Optional[int] = None,
    join_fanout: Optional[int] = None,
    join_spill: Optional[int] = None,
) -> None:
    """Install measured tuning values for the module defaults.

    The calibration pass of ``benchmarks/bench_fragments.py`` calls this
    after timing real operators; policies built afterwards (including
    the per-call defaults of every operator here) pick the new values
    up.  Explicitly constructed policies are unaffected.
    ``merge_fanout``, ``join_fanout`` and ``join_spill`` are read live
    (not captured by policies), so they take effect on in-flight handles
    too."""
    global DEFAULT_FRAGMENT_SIZE, PARALLEL_MIN_BUNS, MERGE_FANOUT
    global JOIN_FANOUT, JOIN_SPILL_BUNS
    global _TUNING_MEASURED
    if fragment_size is not None:
        if fragment_size < 1:
            raise KernelError("fragment_size must be at least 1")
        DEFAULT_FRAGMENT_SIZE = int(fragment_size)
        _TUNING_MEASURED = True
    if parallel_min is not None:
        if parallel_min < 0:
            raise KernelError("parallel_min must be non-negative")
        PARALLEL_MIN_BUNS = int(parallel_min)
        _TUNING_MEASURED = True
    if merge_fanout is not None:
        if merge_fanout < 1:
            raise KernelError("merge_fanout must be at least 1")
        MERGE_FANOUT = int(merge_fanout)
        _TUNING_MEASURED = True
    if join_fanout is not None:
        if join_fanout < 1:
            raise KernelError("join_fanout must be at least 1")
        JOIN_FANOUT = int(join_fanout)
        _TUNING_MEASURED = True
    if join_spill is not None:
        if join_spill < 0:
            raise KernelError("join_spill must be non-negative")
        JOIN_SPILL_BUNS = int(join_spill)
        _TUNING_MEASURED = True


def default_tuning() -> dict:
    """The current module tuning plus whether it came from measurement
    (the persistence layer only writes measured values to disk)."""
    return {
        "fragment_size": DEFAULT_FRAGMENT_SIZE,
        "parallel_min": PARALLEL_MIN_BUNS,
        "merge_fanout": MERGE_FANOUT,
        "join_fanout": JOIN_FANOUT,
        "join_spill": JOIN_SPILL_BUNS,
        "measured": _TUNING_MEASURED,
    }


@dataclass(frozen=True)
class FragmentationPolicy:
    """How a BAT is split: fragment size, strategy and worker count.

    ``target_size=None`` (the default) resolves to the current module
    default at construction time, so policies made after a
    :func:`set_default_tuning` calibration see the measured value."""

    target_size: Optional[int] = None
    strategy: str = "range"
    workers: Optional[int] = None

    def __post_init__(self):
        if self.target_size is None:
            object.__setattr__(self, "target_size", DEFAULT_FRAGMENT_SIZE)
        if self.target_size < 1:
            raise KernelError("fragment target_size must be at least 1")
        if self.strategy not in ("range", "roundrobin"):
            raise KernelError(
                f"unknown fragmentation strategy {self.strategy!r}; "
                "expected 'range' or 'roundrobin'"
            )


def _default_policy() -> FragmentationPolicy:
    """A fresh policy carrying the *current* module defaults.

    Always constructed at use, never cached at import: a frozen policy
    resolves ``target_size`` at construction, so a module-level
    constant would silently pin pre-calibration values after
    :func:`set_default_tuning`."""
    return FragmentationPolicy()


# ----------------------------------------------------------------------
# The shared thread pool
# ----------------------------------------------------------------------

_EXECUTOR: Optional[ThreadPoolExecutor] = None
_EXECUTOR_LOCK = threading.Lock()


def _shared_executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    if _EXECUTOR is None:
        with _EXECUTOR_LOCK:
            if _EXECUTOR is None:
                _EXECUTOR = ThreadPoolExecutor(
                    max_workers=DEFAULT_WORKERS, thread_name_prefix="fragment"
                )
    return _EXECUTOR


def map_fragments(
    fn: Callable[[Any], Any], items: Sequence[Any], workers: Optional[int] = None
) -> List[Any]:
    """Apply *fn* to every item, fanning out on the shared thread pool.

    ``workers=0``/``workers=1`` forces serial execution; an explicit
    ``workers >= 2`` uses a dedicated pool of that size (benchmarks pin
    worker counts this way); ``None`` uses the shared pool.
    """
    items = list(items)
    if len(items) <= 1 or (workers is not None and workers <= 1):
        return [fn(item) for item in items]
    if workers is None:
        return list(_shared_executor().map(fn, items))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _forget_pool_after_fork() -> None:
    """A forked child must not touch the pool it shares with its parent:
    drop the handle (without joining) so the child lazily builds its
    own executor.  The lock is re-created too -- a parent thread may
    have held it at fork time, and nothing in the child would ever
    release that copy."""
    global _EXECUTOR, _EXECUTOR_LOCK
    _EXECUTOR = None
    _EXECUTOR_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


# ----------------------------------------------------------------------
# The fragmented BAT
# ----------------------------------------------------------------------


class FragmentedBAT:
    """An ordered list of horizontal fragments of one logical BAT.

    ``positions`` is ``None`` when fragment order is BUN order (range
    split); otherwise it holds, per fragment, the global BUN positions
    of that fragment's rows (round-robin split and results derived from
    one).
    """

    __slots__ = ("fragments", "positions", "policy", "name", "_coalesced")

    def __init__(
        self,
        fragments: Sequence[BAT],
        positions: Optional[Sequence[np.ndarray]] = None,
        *,
        policy: Optional[FragmentationPolicy] = None,
        name: Optional[str] = None,
    ):
        policy = policy or _default_policy()
        fragments = list(fragments)
        if not fragments:
            raise KernelError("a FragmentedBAT needs at least one fragment")
        if len({f.htype for f in fragments}) > 1 or len({f.ttype for f in fragments}) > 1:
            raise KernelError("all fragments must share head/tail atom types")
        if positions is not None:
            positions = [np.asarray(p, dtype=np.int64) for p in positions]
            if len(positions) != len(fragments):
                raise KernelError("one position array per fragment required")
            for frag, pos in zip(fragments, positions):
                if len(frag) != len(pos):
                    raise KernelError("fragment/position length mismatch")
        self.fragments = fragments
        self.positions = positions
        self.policy = policy
        self.name = name
        self._coalesced: Optional[BAT] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(f) for f in self.fragments)

    @property
    def count(self) -> int:
        return len(self)

    @property
    def nfragments(self) -> int:
        return len(self.fragments)

    @property
    def htype(self) -> str:
        return self.fragments[0].htype

    @property
    def ttype(self) -> str:
        return self.fragments[0].ttype

    def fragment_sizes(self) -> List[int]:
        return [len(f) for f in self.fragments]

    def global_positions(self, index: int) -> np.ndarray:
        """Global BUN positions of fragment *index*'s rows."""
        if self.positions is not None:
            return self.positions[index]
        offset = sum(len(f) for f in self.fragments[:index])
        return np.arange(offset, offset + len(self.fragments[index]), dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "tmp"
        return (
            f"FragmentedBAT({label})[{self.htype},{self.ttype}]"
            f"#{len(self)}/{self.nfragments}frags"
        )

    # ------------------------------------------------------------------
    # Recombination
    # ------------------------------------------------------------------
    def to_bat(self) -> BAT:
        """The monolithic BAT this fragmentation represents (cached)."""
        if self._coalesced is None:
            self._coalesced = self._build_monolithic()
        return self._coalesced

    def _build_monolithic(self) -> BAT:
        frags = self.fragments
        if len(frags) == 1 and self.positions is None:
            single = frags[0]
            if self.name is not None and single.name is None:
                single.name = self.name
            return single
        head_atom = frags[0].head.atom_type
        tail_atom = frags[0].tail.atom_type
        if self.positions is None:
            order = None
        else:
            all_positions = np.concatenate(self.positions)
            order = np.argsort(all_positions, kind="stable")
        head = _concat_columns([f.head for f in frags], head_atom, order)
        tail = _concat_columns([f.tail for f in frags], tail_atom, order)
        flags = _concat_flags(frags, order is None)
        return BAT(head, tail, name=self.name, **flags)

    # Convenience delegates used by catalog/reconstruction code that
    # does not care about fragment boundaries.  They all go through the
    # cached :meth:`to_bat`, so a FragmentedBAT coalesces at most once
    # no matter how many of these a result consumer calls.
    def head_values(self) -> np.ndarray:
        return self.to_bat().head_values()

    def tail_values(self) -> np.ndarray:
        return self.to_bat().tail_values()

    def tail_list(self) -> List[Any]:
        return self.to_bat().tail_list()

    def head_list(self) -> List[Any]:
        return self.to_bat().head_list()

    def to_pairs(self) -> List[Tuple[Any, Any]]:
        return self.to_bat().to_pairs()

    # ------------------------------------------------------------------
    # Copy-on-write append: the delta tail
    # ------------------------------------------------------------------
    def append(
        self,
        pairs: Optional[Sequence[Tuple[Any, Any]]] = None,
        *,
        tails: Optional[Sequence[Any]] = None,
    ) -> "FragmentedBAT":
        """A new FragmentedBAT with the given BUNs appended.

        The committed prefix fragments are *shared by reference* with
        the receiver (copy-on-write at fragment granularity): only the
        tail delta fragment is rebuilt, so appending a batch costs
        O(tail + batch), never O(total).  While the current tail is
        below the policy target size the batch is folded into it;
        a full tail starts a fresh delta fragment instead (the merge
        daemon later splits any oversized delta back to policy size,
        see :func:`fold_tail`).  Works for both layouts: range splits
        extend BUN order, round-robin splits extend the tail fragment's
        global position list with the new trailing positions.
        """
        if (pairs is None) == (tails is None):
            raise KernelError("append takes pairs or tails=, not both/neither")
        last = self.fragments[-1]
        if tails is not None and not last.head.is_void:
            # Round-robin fragments carry materialized oid heads
            # (seqbase + global position); recover the seqbase and
            # append explicit pairs continuing the dense sequence.
            seqbase = self._dense_seqbase()
            total = len(self)
            pairs = [(seqbase + total + i, v) for i, v in enumerate(tails)]
            tails = None
        batch = len(pairs) if pairs is not None else len(tails)  # type: ignore[arg-type]
        if batch == 0:
            return self
        grow_tail = len(last) < self.policy.target_size
        if grow_tail:
            if tails is not None:
                delta = last.append(tails=tails)
            else:
                delta = last.append(list(pairs))
            new_fragments = [*self.fragments[:-1], delta]
        else:
            if tails is not None:
                delta = dense_bat(
                    self.ttype,
                    list(tails),
                    seqbase=last.head.seqbase + len(last),
                )
            else:
                delta = bat_from_pairs(self.htype, self.ttype, list(pairs))
            new_fragments = [*self.fragments, delta]
        new_positions = None
        if self.positions is not None:
            total = len(self)
            appended = np.arange(total, total + batch, dtype=np.int64)
            if grow_tail:
                new_positions = [
                    *self.positions[:-1],
                    np.concatenate([self.positions[-1], appended]),
                ]
            else:
                new_positions = [*self.positions, appended]
        return FragmentedBAT(
            new_fragments, new_positions, policy=self.policy, name=self.name
        )

    def _dense_seqbase(self) -> int:
        """Seqbase of a logically dense oid head carried as materialized
        fragment heads (round-robin layout); raises when the head is not
        recoverably dense."""
        if self.htype != "oid":
            raise KernelError(
                "append(tails=...) needs a dense oid head; pass explicit pairs"
            )
        for index, fragment in enumerate(self.fragments):
            if len(fragment) == 0:
                continue
            heads = fragment.head.materialize()
            positions = self.global_positions(index)
            seqbase = int(heads[0]) - int(positions[0])
            if not np.array_equal(heads, seqbase + positions):
                break
            return seqbase
        raise KernelError(
            "append(tails=...) needs a dense oid head; pass explicit pairs"
        )

    # ------------------------------------------------------------------
    # Copy-on-write delete / update: tombstone and patch delta kinds
    # ------------------------------------------------------------------
    def delete(self, positions) -> "FragmentedBAT":
        """A new FragmentedBAT with the BUNs at the given *global*
        positions removed -- the tombstone delta kind.

        Copy-on-write at fragment granularity, the mirror image of
        :meth:`append`: a fragment with no tombstoned row shares its
        tail array by reference with the receiver; only touched
        fragments gather their survivors.  The result is never a
        coalesce -- every fragment-parallel operator sees the smaller
        fragments and masks the tombstones structurally, with no
        tombstone bitmap to consult on the read path.

        Logically dense oid heads are *re-densified* across the whole
        BAT so Moa's positional-fetchjoin discipline survives: range
        layouts shift each untouched fragment's void seqbase (O(1) per
        fragment), round-robin layouts renumber the surviving global
        positions through one searchsorted shift.  Heads that carry
        data (non-dense) are left untouched.  Fragments emptied by the
        delete are dropped, so operators never dispatch on
        tombstone-only fragments; :func:`fold_tail` later compacts runs
        of starved survivors back to policy size.
        """
        deleted = _normalize_positions(positions, len(self))
        if len(deleted) == 0:
            return self
        if self.positions is None:
            return self._delete_range(deleted)
        return self._delete_roundrobin(deleted)

    def _delete_range(self, deleted: np.ndarray) -> "FragmentedBAT":
        offsets = [0]
        for frag in self.fragments:
            offsets.append(offsets[-1] + len(frag))
        dense_heads = all(f.head.is_void for f in self.fragments)
        out: List[BAT] = []
        for index, frag in enumerate(self.fragments):
            lo = int(np.searchsorted(deleted, offsets[index]))
            hi = int(np.searchsorted(deleted, offsets[index + 1]))
            local = deleted[lo:hi] - offsets[index]
            shift = lo  # tombstones before this fragment's window
            if len(local) == 0:
                survivor = frag
            else:
                survivor = frag.delete_positions(local)
                if len(survivor) == 0:
                    continue
            if dense_heads and shift:
                survivor = BAT(
                    VoidColumn(survivor.head.seqbase - shift, len(survivor)),
                    survivor.tail,
                    hsorted=survivor.hsorted,
                    tsorted=survivor.tsorted,
                    hkey=survivor.hkey,
                    tkey=survivor.tkey,
                )
            out.append(survivor)
        if not out:
            out = [
                self.fragments[0].take_positions(
                    np.empty(0, dtype=np.int64)
                )
            ]
        return FragmentedBAT(out, None, policy=self.policy, name=self.name)

    def _delete_roundrobin(self, deleted: np.ndarray) -> "FragmentedBAT":
        try:
            seqbase: Optional[int] = self._dense_seqbase()
        except KernelError:
            seqbase = None
        out_frags: List[BAT] = []
        out_pos: List[np.ndarray] = []
        for index, frag in enumerate(self.fragments):
            pos = self.positions[index]
            idx = np.searchsorted(deleted, pos)
            hit = np.zeros(len(pos), dtype=bool)
            in_range = idx < len(deleted)
            hit[in_range] = deleted[idx[in_range]] == pos[in_range]
            keep = np.nonzero(~hit)[0]
            if len(keep) == 0:
                continue
            new_pos = pos[keep] - np.searchsorted(deleted, pos[keep])
            survivor = frag if len(keep) == len(pos) else frag.take_positions(keep)
            if seqbase is not None:
                # Re-densify: heads are seqbase + global position by
                # contract, and the surviving positions just shifted.
                survivor = BAT(
                    Column(atom("oid"), seqbase + new_pos),
                    survivor.tail,
                    hsorted=True,  # positions arrays are sorted unique
                    hkey=True,
                    tsorted=survivor.tsorted,
                    tkey=survivor.tkey,
                )
            out_frags.append(survivor)
            out_pos.append(new_pos)
        if not out_frags:
            out_frags = [
                self.fragments[0].take_positions(np.empty(0, dtype=np.int64))
            ]
            out_pos = [np.empty(0, dtype=np.int64)]
        return FragmentedBAT(
            out_frags, out_pos, policy=self.policy, name=self.name
        )

    def update(self, positions, values) -> "FragmentedBAT":
        """A new FragmentedBAT with the tail values at the given
        *global* positions replaced -- the patch delta kind.

        Copy-on-write at fragment granularity: untouched fragments
        (heads, tails, positions) are shared by reference; each touched
        fragment patches its tail through
        :meth:`repro.monet.bat.BAT.update_positions` (O(changed) flag
        maintenance; ``tkey`` conservatively cleared, ``tsorted``
        rechecked only on the patched pairs).  Heads and global
        positions never change, so the fragmentation -- and any
        same-fragmentation alignment with sibling BATs -- survives.
        Duplicate positions resolve last-wins.
        """
        final_pos, final_vals = _aligned_updates(positions, values, len(self))
        if len(final_pos) == 0:
            return self
        if self.positions is None:
            offsets = [0]
            for frag in self.fragments:
                offsets.append(offsets[-1] + len(frag))
            out: List[BAT] = []
            for index, frag in enumerate(self.fragments):
                lo = int(np.searchsorted(final_pos, offsets[index]))
                hi = int(np.searchsorted(final_pos, offsets[index + 1]))
                if lo == hi:
                    out.append(frag)
                    continue
                local = final_pos[lo:hi] - offsets[index]
                out.append(frag.update_positions(local, final_vals[lo:hi]))
            return FragmentedBAT(out, None, policy=self.policy, name=self.name)
        out_frags: List[BAT] = []
        for index, frag in enumerate(self.fragments):
            pos = self.positions[index]
            idx = np.searchsorted(final_pos, pos)
            hit = np.zeros(len(pos), dtype=bool)
            in_range = idx < len(final_pos)
            hit[in_range] = final_pos[idx[in_range]] == pos[in_range]
            rows = np.nonzero(hit)[0]
            if len(rows) == 0:
                out_frags.append(frag)
                continue
            vals = [final_vals[i] for i in idx[rows]]
            out_frags.append(frag.update_positions(rows, vals))
        return FragmentedBAT(
            out_frags, self.positions, policy=self.policy, name=self.name
        )

    def items(self):
        return self.to_bat().items()

    def find(self, head_value) -> Any:
        return self.to_bat().find(head_value)

    def exists(self, head_value) -> bool:
        return self.to_bat().exists(head_value)


def _aligned_updates(
    positions, values, count: int
) -> Tuple[np.ndarray, List[Any]]:
    """Normalize an update batch: positions validated against *count*,
    values aligned, duplicates resolved last-wins, result sorted by
    position (the shape both layouts' searchsorted mapping needs)."""
    arr = _normalize_positions(positions, count, unique=False)
    value_list = list(values)
    if len(value_list) != len(arr):
        raise InvalidMutationBatch(
            f"update needs one value per position: "
            f"{len(value_list)} values for {len(arr)} positions"
        )
    if len(arr) == 0:
        return arr, []
    order = np.argsort(arr, kind="stable")
    sorted_pos = arr[order]
    keep = np.empty(len(sorted_pos), dtype=bool)
    keep[:-1] = sorted_pos[1:] != sorted_pos[:-1]
    keep[-1] = True
    kept = order[keep]
    return arr[kept], [value_list[i] for i in kept]


def _concat_columns(
    columns: Sequence[AnyColumn],
    atom_type,
    order: Optional[np.ndarray],
) -> AnyColumn:
    """Concatenate fragment columns, fusing consecutive void columns
    back into one void column when possible."""
    if order is None and all(c.is_void for c in columns):
        base = columns[0].seqbase
        expected = base
        contiguous = True
        for column in columns:
            if column.seqbase != expected:
                contiguous = False
                break
            expected += len(column)
        if contiguous:
            return VoidColumn(base, expected - base)
    arrays = [c.materialize() for c in columns]
    if atom_type.dtype == np.dtype(object):
        total = sum(len(a) for a in arrays)
        out = np.empty(total, dtype=object)
        at = 0
        for array in arrays:
            out[at: at + len(array)] = array
            at += len(array)
    else:
        out = np.concatenate(arrays) if arrays else atom_type.make_array([])
    if order is not None:
        out = out[order]
        # A position-merge can land back on a dense sequence; detect it
        # so voidness survives a round-robin round-trip.
        if (
            atom_type.name == "oid"
            and out.dtype == np.dtype(np.int64)
            and (len(out) == 0 or bool(np.all(np.diff(out) == 1)))
        ):
            return VoidColumn(int(out[0]) if len(out) else 0, len(out))
    return Column(atom_type, out)


def _concat_flags(frags: Sequence[BAT], ordered: bool) -> dict:
    """Conservative property flags for a fragment concatenation."""
    if not ordered:
        # Position-merged rows: nothing is guaranteed (voidness is
        # re-detected in _concat_columns and re-asserts its own flags).
        return dict(hsorted=False, tsorted=False, hkey=False, tkey=False)
    return dict(
        hsorted=all(f.hsorted for f in frags)
        and _boundaries_nondecreasing(frags, head=True),
        tsorted=all(f.tsorted for f in frags)
        and _boundaries_nondecreasing(frags, head=False),
        # Keyness across fragments is only guaranteed by dense heads,
        # which the BAT constructor re-derives from voidness.
        hkey=len(frags) == 1 and frags[0].hkey,
        tkey=len(frags) == 1 and frags[0].tkey,
    )


def _boundaries_nondecreasing(frags: Sequence[BAT], *, head: bool) -> bool:
    previous = None
    for frag in frags:
        if len(frag) == 0:
            continue
        column = frag.head if head else frag.tail
        first = column.python_value(0)
        last = column.python_value(len(frag) - 1)
        if first is None or last is None:
            return False
        if previous is not None:
            try:
                if not previous <= first:
                    return False
            except TypeError:
                return False
        previous = last
    return True


# ----------------------------------------------------------------------
# Fragmentation
# ----------------------------------------------------------------------


def fragment_bat(bat: BAT, policy: Optional[FragmentationPolicy] = None) -> FragmentedBAT:
    """Split *bat* horizontally according to *policy*."""
    policy = policy or _default_policy()
    n = len(bat)
    if n <= policy.target_size:
        return FragmentedBAT([bat], policy=policy, name=bat.name)
    if policy.strategy == "range":
        fragments = [
            _slice_view(bat, start, min(n, start + policy.target_size))
            for start in range(0, n, policy.target_size)
        ]
        return FragmentedBAT(fragments, policy=policy, name=bat.name)
    nfrag = -(-n // policy.target_size)  # ceil division
    fragments = []
    positions = []
    for k in range(nfrag):
        pos = np.arange(k, n, nfrag, dtype=np.int64)
        fragments.append(bat.take_positions(pos))
        positions.append(pos)
    return FragmentedBAT(fragments, positions, policy=policy, name=bat.name)


def _slice_view(bat: BAT, start: int, stop: int) -> BAT:
    """Contiguous fragment sharing the parent's arrays (numpy slicing
    views; no copy, unlike ``BAT.slice``'s positional gather)."""
    head = _slice_column(bat.head, start, stop)
    tail = _slice_column(bat.tail, start, stop)
    return BAT(
        head,
        tail,
        hsorted=bat.hsorted,
        tsorted=bat.tsorted,
        hkey=bat.hkey,
        tkey=bat.tkey,
    )


def _slice_column(column: AnyColumn, start: int, stop: int) -> AnyColumn:
    if column.is_void:
        return VoidColumn(column.seqbase + start, stop - start)
    return Column(column.atom_type, column.values[start:stop])


# ----------------------------------------------------------------------
# Fragment-parallel operators: selections
# ----------------------------------------------------------------------


def _subset_op(
    fb: FragmentedBAT,
    mask_fn: Callable[[BAT], np.ndarray],
    workers: Optional[int],
) -> FragmentedBAT:
    """Generic row-subset operator: evaluate a predicate mask per
    fragment in parallel and keep the qualifying BUNs."""

    def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, Optional[np.ndarray]]:
        index, frag = indexed
        keep = np.nonzero(mask_fn(frag))[0]
        out = frag.take_positions(keep)
        if fb.positions is None:
            return out, None
        return out, fb.positions[index][keep]

    results = map_fragments(one, list(enumerate(fb.fragments)), workers)
    fragments = [r[0] for r in results]
    positions = None if fb.positions is None else [r[1] for r in results]
    return FragmentedBAT(fragments, positions, policy=fb.policy)


def _resolve_workers(fb: FragmentedBAT, workers: Optional[int]) -> Optional[int]:
    if workers is not None:
        return workers
    if fb.policy.workers is not None:
        return fb.policy.workers
    if len(fb) < PARALLEL_MIN_BUNS:
        return 1
    return None


def select(
    fb: FragmentedBAT,
    low: Any,
    high: Any = _kernel._UNSET,
    *,
    include_low: bool = True,
    include_high: bool = True,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.select`."""
    workers = _resolve_workers(fb, workers)
    if high is _kernel._UNSET:
        return _subset_op(fb, lambda frag: _kernel.equal_mask(frag, low), workers)
    return _subset_op(
        fb,
        lambda frag: _kernel.range_mask(frag, low, high, include_low, include_high),
        workers,
    )


def uselect(
    fb: FragmentedBAT,
    low: Any,
    high: Any = _kernel._UNSET,
    *,
    workers: Optional[int] = None,
    **flags,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.uselect`: qualifying
    heads with the tail replaced by a dense oid sequence in BUN order."""
    selected = select(
        fb,
        low,
        high,
        include_low=flags.get("include_low", True),
        include_high=flags.get("include_high", True),
        workers=workers,
    )
    return _renumber_tails(selected, 0)


def likeselect(
    fb: FragmentedBAT, pattern: str, *, workers: Optional[int] = None
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.likeselect`."""
    workers = _resolve_workers(fb, workers)
    return _subset_op(fb, lambda frag: _kernel.like_mask(frag, pattern), workers)


# ----------------------------------------------------------------------
# Fragment-parallel operators: join family
# ----------------------------------------------------------------------


def _probe_dtype(fb: FragmentedBAT) -> bool:
    """True when *fb* carries object (str) tails.

    The one sanctioned ``fb.fragments[0]`` probe: the constructor
    enforces the >=1-fragment invariant (pinned by regression tests),
    and a void tail reads as non-object, so degenerate all-empty
    fragmentations probe safely."""
    return _kernel._is_object_column(fb.fragments[0].tail)


def _dense_window_starts(right: FragmentedBAT) -> Optional[List[int]]:
    """Per-fragment seqbase starts (plus the global end) of a
    range-partitioned fragmented right operand whose void heads form
    one contiguous ascending sequence -- exactly the case where its
    coalesced head would fuse back into a single void column -- or
    ``None`` when seqbase routing does not apply."""
    if right.positions is not None:
        return None
    starts: List[int] = []
    expected: Optional[int] = None
    for frag in right.fragments:
        if not frag.hdense:
            return None
        seqbase = frag.head.seqbase
        if expected is not None and seqbase != expected:
            return None
        starts.append(seqbase)
        expected = seqbase + len(frag)
    starts.append(expected)
    return starts


def fetchjoin(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel positional join against a shared void-headed
    right operand.  A range-partitioned fragmented dense right stays
    fragmented: seqbase arithmetic routes every probe to its owning
    right fragment, so neither side coalesces."""
    if isinstance(right, FragmentedBAT):
        starts = _dense_window_starts(right)
        if starts is not None:
            return _fetchjoin_fragmented(fb, right, starts, workers)
        # Round-robin or non-contiguous rights coalesce (and may then
        # legitimately fail the voidness check below), as before.
        right = right.to_bat()
    if not right.hdense:
        raise KernelError("fetchjoin requires a void-headed right operand")
    workers = _resolve_workers(fb, workers)

    def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, Optional[np.ndarray]]:
        index, frag = indexed
        tails = frag.tail_values()
        targets = tails - right.head.seqbase
        valid = (targets >= 0) & (targets < len(right))
        keep = np.nonzero(valid)[0]
        head = frag.head.take(keep)
        tail = right.tail.take(targets[keep])
        out = BAT(head, tail, hkey=frag.hkey)
        if fb.positions is None:
            return out, None
        return out, fb.positions[index][keep]

    results = map_fragments(one, list(enumerate(fb.fragments)), workers)
    positions = None if fb.positions is None else [r[1] for r in results]
    return FragmentedBAT([r[0] for r in results], positions, policy=fb.policy)


def _fetchjoin_fragmented(
    fb: FragmentedBAT,
    right: FragmentedBAT,
    starts: List[int],
    workers: Optional[int],
) -> FragmentedBAT:
    """Positional join against a fragmented dense right operand: each
    probe resolves to (owning right fragment, local offset) by binary
    search over the seqbase windows, gathers fan out per owner, and a
    stable scatter restores probe order."""
    workers = _resolve_workers(fb, workers)
    offsets = np.asarray(starts, dtype=np.int64)
    tails_object = _kernel._is_object_column(right.fragments[0].tail)
    tail_values = [frag.tail_values() for frag in right.fragments]
    tail_atom = right.ttype

    def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, Optional[np.ndarray]]:
        index, frag = indexed
        probes = frag.tail_values()
        valid = (probes >= offsets[0]) & (probes < offsets[-1])
        keep = np.nonzero(valid)[0]
        targets = probes[keep]
        owners = np.searchsorted(offsets, targets, side="right") - 1
        row_chunks: List[np.ndarray] = []
        value_chunks: List[np.ndarray] = []
        for owner in range(right.nfragments):
            rows = np.nonzero(owners == owner)[0]
            if len(rows) == 0:
                continue
            row_chunks.append(rows)
            value_chunks.append(tail_values[owner][targets[rows] - offsets[owner]])
        if row_chunks:
            rows = np.concatenate(row_chunks)
            values = _concat_raw(value_chunks, tails_object)
            order = np.argsort(rows, kind="stable")
            values = values[order]
        else:
            values = (
                np.empty(0, dtype=object)
                if tails_object
                else tail_values[0][:0]
            )
        out = BAT(frag.head.take(keep), Column(tail_atom, values), hkey=frag.hkey)
        if fb.positions is None:
            return out, None
        return out, fb.positions[index][keep]

    results = map_fragments(one, list(enumerate(fb.fragments)), workers)
    positions = None if fb.positions is None else [r[1] for r in results]
    return FragmentedBAT([r[0] for r in results], positions, policy=fb.policy)


# ----------------------------------------------------------------------
# Radix-partitioned (grace) hash join
#
# The value join partitions BOTH operands by a radix of the join key
# (kernel.join_partition_ids; NIL BUNs drop first, comparison rule):
# per-fragment key extraction fans out like the membership builds, so a
# fragmented right operand never coalesces; per-partition match indexes
# build in parallel; every probe fragment probes partition-locally; and
# a build side past JOIN_SPILL_BUNS spills its partitions through the
# BBP scratch directory as npz units and is processed one partition at
# a time, capping the resident build state.  A key lives in exactly one
# partition, so a stable per-fragment sort on probe position
# reassembles the exact monolithic kernel.join order.
# ----------------------------------------------------------------------


def _concat_raw(chunks: List[np.ndarray], object_dtype: bool) -> np.ndarray:
    """Concatenate raw value arrays (object-dtype aware)."""
    if len(chunks) == 1:
        return chunks[0]
    if object_dtype:
        total = sum(len(chunk) for chunk in chunks)
        out = np.empty(total, dtype=object)
        at = 0
        for chunk in chunks:
            out[at: at + len(chunk)] = chunk
            at += len(chunk)
        return out
    return np.concatenate(chunks)


def _join_fanout(build_n: int) -> int:
    """Radix partition count for a *build_n*-BUN build side: enough
    partitions to parallelize and stay cache-resident, floored so small
    builds never shatter, capped at the live :data:`JOIN_FANOUT`."""
    by_floor = -(-build_n // max(1, JOIN_PARTITION_MIN_BUNS))
    return max(1, min(JOIN_FANOUT, by_floor))


def _build_side(
    right: Union[BAT, FragmentedBAT],
) -> Tuple[List[BAT], List[np.ndarray]]:
    """The build side as (fragments, per-fragment global BUN
    positions), monolithic rights being one fragment of themselves."""
    if isinstance(right, FragmentedBAT):
        return list(right.fragments), [
            right.global_positions(index) for index in range(right.nfragments)
        ]
    return [right], [np.arange(len(right), dtype=np.int64)]


def _assemble_join_partition(
    key_chunks: List[np.ndarray],
    gpos_chunks: List[np.ndarray],
    tail_chunks: List[np.ndarray],
    keys_object: bool,
    tails_object: bool,
):
    """One resident build partition: rows restored to global BUN order
    (round-robin fragments arrive permuted; the probe output must match
    the monolithic kernel, which builds in BUN order), then indexed via
    the shared match-index machinery.  ``None`` for an empty partition."""
    if not key_chunks:
        return None
    keys = _concat_raw(key_chunks, keys_object)
    gpos = np.concatenate(gpos_chunks)
    tails = _concat_raw(tail_chunks, tails_object)
    if len(gpos) > 1 and not bool(np.all(np.diff(gpos) >= 0)):
        order = np.argsort(gpos, kind="stable")
        keys = keys[order]
        tails = tails[order]
    return _kernel.build_match_index(keys, keys_object), tails


def _grace_matches(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    workers: Optional[int],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The grace-join core shared by :func:`join` and
    :func:`outerjoin`: per probe fragment, the matching
    (probe_positions, build tail values) ordered exactly like the
    monolithic ``kernel.join`` (ascending probe position; per probe
    BUN, matches in ascending build BUN order)."""
    keyspace = _kernel.set_keyspace(fb.fragments[0].tail, _head_columns(right)[0])
    object_dtype = keyspace == "object"
    build_frags, build_gpos = _build_side(right)
    tails_object = _kernel._is_object_column(build_frags[0].tail)
    build_n = sum(len(frag) for frag in build_frags)
    fanout = _join_fanout(build_n)
    spill = build_n > JOIN_SPILL_BUNS
    if spill:
        # Partitions sized to the spill threshold, so the resident
        # build state stays near the cap (bounded fanout keeps the
        # unit count sane when the threshold is tiny).
        per_partition = max(1, JOIN_SPILL_BUNS)
        fanout = max(fanout, min(256, -(-build_n // per_partition)))
    empty_positions = np.empty(0, dtype=np.int64)
    empty_tails = (
        np.empty(0, dtype=object)
        if tails_object
        else build_frags[0].tail_values()[:0]
    )

    def probe_parts(frag: BAT) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys, valid = _kernel.join_keys(frag.tail, keyspace)
        positions = np.nonzero(valid)[0]
        ids = _kernel.join_partition_ids(keys, fanout, object_dtype)[positions]
        return keys, positions, ids

    if spill:
        matches = _grace_matches_spilled(
            fb,
            build_frags,
            build_gpos,
            keyspace,
            fanout,
            probe_parts,
            tails_object,
            workers,
        )
    else:
        build_keys = [
            _kernel.join_keys(frag.head, keyspace)[0] for frag in build_frags
        ]
        build_tails = [frag.tail_values() for frag in build_frags]
        build_parts = map_fragments(
            lambda frag: _kernel.join_partition_positions(frag.head, keyspace, fanout),
            build_frags,
            workers,
        )

        def one_partition(partition: int):
            key_chunks, gpos_chunks, tail_chunks = [], [], []
            for keys, gpos, tails, parts in zip(
                build_keys, build_gpos, build_tails, build_parts
            ):
                sel = parts[partition]
                if len(sel):
                    key_chunks.append(keys[sel])
                    gpos_chunks.append(gpos[sel])
                    tail_chunks.append(tails[sel])
            return _assemble_join_partition(
                key_chunks, gpos_chunks, tail_chunks, object_dtype, tails_object
            )

        partitions = map_fragments(one_partition, list(range(fanout)), workers)

        def probe_one(frag: BAT) -> Tuple[np.ndarray, np.ndarray]:
            if len(frag) == 0 or build_n == 0:
                return empty_positions, empty_tails
            keys, positions, ids = probe_parts(frag)
            position_chunks, value_chunks = [], []
            for partition in range(fanout):
                part = partitions[partition]
                if part is None:
                    continue
                sel = positions[ids == partition]
                if len(sel) == 0:
                    continue
                index, part_tails = part
                pp, bp = _kernel.probe_match_index(keys[sel], index, object_dtype)
                if len(pp):
                    position_chunks.append(sel[pp])
                    value_chunks.append(part_tails[bp])
            if not position_chunks:
                return empty_positions, empty_tails
            probe_positions = np.concatenate(position_chunks)
            values = _concat_raw(value_chunks, tails_object)
            # One key -> one partition, so the stable sort on probe
            # position cannot reorder same-probe matches: they all came
            # from a single partition, already in build order.
            order = np.argsort(probe_positions, kind="stable")
            return probe_positions[order], values[order]

        matches = map_fragments(probe_one, list(fb.fragments), workers)
    return matches


def _grace_matches_spilled(
    fb: FragmentedBAT,
    build_frags: List[BAT],
    build_gpos: List[np.ndarray],
    keyspace: str,
    fanout: int,
    probe_parts,
    tails_object: bool,
    workers: Optional[int],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Out-of-core grace join: build partitions stream to npz spill
    units fragment by fragment, then load back one partition at a time
    -- the resident build state is one partition, not the build side."""
    from repro.monet import bbp as _bbp

    object_dtype = keyspace == "object"
    empty_positions = np.empty(0, dtype=np.int64)
    empty_tails = (
        np.empty(0, dtype=object)
        if tails_object
        else build_frags[0].tail_values()[:0]
    )
    units: List[List] = [[] for _ in range(fanout)]
    try:
        for frag, gpos in zip(build_frags, build_gpos):
            keys, valid = _kernel.join_keys(frag.head, keyspace)
            positions = np.nonzero(valid)[0]
            ids = _kernel.join_partition_ids(keys, fanout, object_dtype)[positions]
            tails = frag.tail_values()
            for partition in range(fanout):
                sel = positions[ids == partition]
                if len(sel) == 0:
                    continue
                path = _bbp.write_spill_unit(
                    _bbp.new_spill_tag(f"join-p{partition:03d}"),
                    keys=keys[sel],
                    gpos=gpos[sel],
                    tails=tails[sel],
                )
                units[partition].append(path)
            del keys, valid, positions, ids, tails
        probe_data = map_fragments(probe_parts, list(fb.fragments), workers)
        accum: List[Tuple[List[np.ndarray], List[np.ndarray]]] = [
            ([], []) for _ in fb.fragments
        ]
        for partition in range(fanout):
            if not units[partition]:
                continue
            key_chunks, gpos_chunks, tail_chunks = [], [], []
            for path in units[partition]:
                data = _bbp.read_spill_unit(path)
                key_chunks.append(data["keys"])
                gpos_chunks.append(data["gpos"])
                tail_chunks.append(data["tails"])
            part = _assemble_join_partition(
                key_chunks, gpos_chunks, tail_chunks, object_dtype, tails_object
            )
            del key_chunks, gpos_chunks, tail_chunks
            index, part_tails = part

            def probe_into(fragment_index: int):
                keys, positions, ids = probe_data[fragment_index]
                sel = positions[ids == partition]
                if len(sel) == 0:
                    return None
                pp, bp = _kernel.probe_match_index(keys[sel], index, object_dtype)
                if len(pp) == 0:
                    return None
                return sel[pp], part_tails[bp]

            probed = map_fragments(
                probe_into, list(range(len(fb.fragments))), workers
            )
            for fragment_index, result in enumerate(probed):
                if result is not None:
                    accum[fragment_index][0].append(result[0])
                    accum[fragment_index][1].append(result[1])
            del part, index, part_tails
    finally:
        for partition_units in units:
            for path in partition_units:
                _bbp.drop_spill_unit(path)
    matches = []
    for position_chunks, value_chunks in accum:
        if not position_chunks:
            matches.append((empty_positions, empty_tails))
            continue
        probe_positions = np.concatenate(position_chunks)
        values = _concat_raw(value_chunks, tails_object)
        order = np.argsort(probe_positions, kind="stable")
        matches.append((probe_positions[order], values[order]))
    return matches


def _right_hkey(right: Union[BAT, FragmentedBAT]) -> bool:
    """Conservative head-keyness of a join build side (a fragmented
    right only guarantees it with a single fragment)."""
    if isinstance(right, BAT):
        return right.hkey
    return right.nfragments == 1 and right.fragments[0].hkey


def join(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.join`, executed as a
    radix-partitioned (grace) hash join: both sides partition by a
    radix of the join key, per-partition match indexes build in
    parallel, probes stay partition-local, and oversized build sides
    spill through the BBP scratch directory.  Neither operand ever
    coalesces -- a fragmented right contributes per-fragment keys
    exactly like the membership builds."""
    _kernel.check_join_types(fb.ttype, right.htype)
    if isinstance(right, BAT) and right.hdense:
        return fetchjoin(fb, right, workers=workers)
    if isinstance(right, FragmentedBAT) and _dense_window_starts(right) is not None:
        return fetchjoin(fb, right, workers=workers)
    workers = _resolve_workers(fb, workers)
    matches = _grace_matches(fb, right, workers)
    right_hkey = _right_hkey(right)
    tail_atom = right.ttype

    results = []
    for index, frag in enumerate(fb.fragments):
        probe_positions, tail_values = matches[index]
        out = BAT(
            frag.head.take(probe_positions),
            Column(tail_atom, tail_values),
            hkey=frag.hkey and right_hkey,
        )
        positions = (
            None if fb.positions is None else fb.positions[index][probe_positions]
        )
        results.append((out, positions))
    positions = None if fb.positions is None else [r[1] for r in results]
    return FragmentedBAT([r[0] for r in results], positions, policy=fb.policy)


# ----------------------------------------------------------------------
# Fragment-parallel set operators and head-membership predicates
#
# semijoin / kdiff (comparison NIL rule: NIL is never a member) and
# kunion / kintersect (identity NIL rule: all NILs are one set element)
# share one shape: the membership side's head keys are built ONCE --
# per-fragment key extraction fans out, and a fragmented operand never
# coalesces -- then every probe fragment tests against the shared build
# in parallel (mirroring build_match_index/probe_match_index for value
# joins).
# ----------------------------------------------------------------------


def _head_columns(value: Union[BAT, FragmentedBAT]) -> List[AnyColumn]:
    if isinstance(value, FragmentedBAT):
        return [fragment.head for fragment in value.fragments]
    return [value.head]


def _member_build(
    source: Union[BAT, FragmentedBAT], keyspace: str, workers: Optional[int]
):
    """Identity-key membership set over *source*'s heads
    (:func:`kernel.build_member_set`), built once and shared by every
    probe fragment; the per-fragment key extraction fans out."""
    columns = _head_columns(source)
    per_fragment = map_fragments(
        lambda column: _kernel.member_keys(column, keyspace),
        columns,
        workers,
    )
    if keyspace == "object":
        members = set()
        for keys in per_fragment:
            members.update(keys)
        return members
    return _kernel.build_member_set(np.concatenate(per_fragment), keyspace)


def _member_subset(
    fb: FragmentedBAT,
    members,
    keyspace: str,
    *,
    nil_member: bool,
    invert: bool,
    workers: Optional[int],
) -> FragmentedBAT:
    """Row subset of *fb* by head membership in the shared build."""

    def mask_fn(frag: BAT) -> np.ndarray:
        mask = _kernel.probe_member_set(
            _kernel.member_keys(frag.head, keyspace),
            members,
            keyspace,
            nil_member=nil_member,
        )
        return ~mask if invert else mask

    return _subset_op(fb, mask_fn, workers)


def semijoin(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.semijoin`
    (comparison NIL rule; a fragmented right operand contributes its
    head keys without coalescing).

    Numeric keyspaces route through the grace-join radix split: the
    right side's head keys partition per fragment, each partition
    dedupes in parallel, and probe fragments test partition-locally.
    Object keyspaces keep the broadcast-membership path."""
    workers = _resolve_workers(fb, workers)
    if isinstance(right, BAT) and right.hdense:
        return _subset_op(
            fb, lambda frag: _kernel.semijoin_mask(frag, right), workers
        )
    keyspace = _kernel.set_keyspace(fb.fragments[0].head, _head_columns(right)[0])
    if keyspace != "object":
        return _partitioned_semijoin(fb, right, keyspace, workers)
    members = _member_build(right, keyspace, workers)
    return _member_subset(
        fb, members, keyspace, nil_member=False, invert=False, workers=workers
    )


def _partitioned_semijoin(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    keyspace: str,
    workers: Optional[int],
) -> FragmentedBAT:
    """Numeric semijoin through the grace-join partitioned build.  NIL
    build and probe keys drop with the :func:`kernel.join_keys` mask
    (comparison rule: NIL is never a member), so the per-partition
    member arrays carry comparison keys only."""
    columns = _head_columns(right)
    build_n = sum(len(column) for column in columns)
    fanout = _join_fanout(build_n)

    def keyed_parts(column: AnyColumn) -> Tuple[np.ndarray, List[np.ndarray]]:
        keys, valid = _kernel.join_keys(column, keyspace)
        positions = np.nonzero(valid)[0]
        ids = _kernel.join_partition_ids(keys, fanout, False)[positions]
        return keys, [positions[ids == partition] for partition in range(fanout)]

    per_fragment = map_fragments(keyed_parts, columns, workers)
    empty_keys = per_fragment[0][0][:0] if per_fragment else np.empty(0, np.int64)

    def one_partition(partition: int) -> np.ndarray:
        chunks = [
            keys[parts[partition]]
            for keys, parts in per_fragment
            if len(parts[partition])
        ]
        if not chunks:
            return empty_keys
        return np.unique(np.concatenate(chunks))

    members = map_fragments(one_partition, list(range(fanout)), workers)

    def mask_fn(frag: BAT) -> np.ndarray:
        mask = np.zeros(len(frag), dtype=bool)
        if len(frag) == 0 or build_n == 0:
            return mask
        keys, valid = _kernel.join_keys(frag.head, keyspace)
        positions = np.nonzero(valid)[0]
        ids = _kernel.join_partition_ids(keys, fanout, False)[positions]
        for partition in range(fanout):
            sel = positions[ids == partition]
            if len(sel) and len(members[partition]):
                hits = np.isin(keys[sel], members[partition])
                mask[sel[hits]] = True
        return mask

    return _subset_op(fb, mask_fn, workers)


def antijoin(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kdiff`
    (anti-semijoin, comparison NIL rule: NIL heads always survive, so
    the shared build is probed with NIL probes masked out)."""
    workers = _resolve_workers(fb, workers)
    if isinstance(right, BAT) and right.hdense:
        return _subset_op(
            fb, lambda frag: ~_kernel.semijoin_mask(frag, right), workers
        )
    keyspace = _kernel.set_keyspace(fb.fragments[0].head, _head_columns(right)[0])
    members = _member_build(right, keyspace, workers)
    return _member_subset(
        fb, members, keyspace, nil_member=False, invert=True, workers=workers
    )


kdiff = antijoin


def kintersect(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kintersect`: keep
    the left BUNs whose head is in the shared right-head build, under
    the **identity** NIL rule (a NIL head is a member of a head set
    containing any NIL)."""
    workers = _resolve_workers(fb, workers)
    keyspace = _kernel.set_keyspace(fb.fragments[0].head, _head_columns(right)[0])
    members = _member_build(right, keyspace, workers)
    return _member_subset(
        fb, members, keyspace, nil_member=True, invert=False, workers=workers
    )


def kunion(
    fb: FragmentedBAT,
    right: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kunion`: the left
    fragments pass through untouched, the right side filters
    fragment-parallel against a shared membership build of the *left*
    heads (identity NIL rule, so the NIL head never duplicates), and
    the surviving right BUNs append as additional fragments in right
    BUN order -- the result never coalesces mid-plan.  Mismatched atom
    types raise, like the monolithic kernel (a union under the left
    types would silently reinterpret right-side values)."""
    if isinstance(right, BAT):
        right = fragment_bat(right, fb.policy)
    _kernel.check_kunion_types(fb.fragments[0], right.fragments[0])
    workers = _resolve_workers(fb, workers)
    keyspace = _kernel.set_keyspace(fb.fragments[0].head, right.fragments[0].head)
    members = _member_build(fb, keyspace, workers)

    def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, np.ndarray]:
        index, frag = indexed
        mask = _kernel.probe_member_set(
            _kernel.member_keys(frag.head, keyspace),
            members,
            keyspace,
            nil_member=True,
        )
        keep = np.nonzero(~mask)[0]
        return frag.take_positions(keep), right.global_positions(index)[keep]

    results = map_fragments(one, list(enumerate(right.fragments)), workers)
    if sum(len(r[0]) for r in results) == 0:
        return fb
    if fb.positions is None and right.positions is None:
        fragments = fb.fragments + [r[0] for r in results if len(r[0])]
        return FragmentedBAT(fragments, policy=fb.policy)
    # A round-robin side is involved: result positions are the left rows
    # at their global BUN *ranks* (0..len(left)-1), survivors at
    # len(left) + rank among survivors (ordered by right BUN position).
    # Ranks, not raw positions, on both sides: a *derived* subset has
    # sparse position values that would collide with the appended block.
    base = len(fb)
    survivor_rpos = np.concatenate([r[1] for r in results])
    ranks = np.empty(len(survivor_rpos), dtype=np.int64)
    ranks[np.argsort(survivor_rpos, kind="stable")] = np.arange(
        len(survivor_rpos), dtype=np.int64
    )
    fragments = list(fb.fragments)
    if fb.positions is None:
        positions = [fb.global_positions(i) for i in range(fb.nfragments)]
    else:
        left_ranks = _global_ranks(fb)
        positions = []
        left_at = 0
        for fragment in fb.fragments:
            positions.append(left_ranks[left_at: left_at + len(fragment)])
            left_at += len(fragment)
    at = 0
    for frag, rpos in results:
        if len(frag):
            fragments.append(frag)
            positions.append(base + ranks[at: at + len(rpos)])
        at += len(rpos)
    return FragmentedBAT(fragments, positions, policy=fb.policy)


# ----------------------------------------------------------------------
# Fragment-parallel operators: reconstruction
# ----------------------------------------------------------------------


def mark(fb: FragmentedBAT, base: int = 0) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.mark`: the tail
    becomes ``base + global BUN position``, continuous across
    fragments."""
    return _renumber_tails(fb, base)


def _renumber_tails(fb: FragmentedBAT, base: int) -> FragmentedBAT:
    fragments: List[BAT] = []
    if fb.positions is None:
        offset = base
        for frag in fb.fragments:
            fragments.append(
                BAT(
                    frag.head,
                    VoidColumn(offset, len(frag)),
                    hsorted=frag.hsorted,
                    hkey=frag.hkey,
                )
            )
            offset += len(frag)
        return FragmentedBAT(fragments, policy=fb.policy)
    # Round-robin rows: ranks of the global positions are the BUN-order
    # indexes.  When the FragmentedBAT covers a whole input the
    # positions are already 0..n-1; for derived subsets we rank.
    ranks = _global_ranks(fb)
    at = 0
    for frag in fb.fragments:
        tail = Column("oid", base + ranks[at: at + len(frag)])
        fragments.append(BAT(frag.head, tail, hsorted=frag.hsorted, hkey=frag.hkey))
        at += len(frag)
    return FragmentedBAT(fragments, fb.positions, policy=fb.policy)


def number(fb: FragmentedBAT, base: int = 0) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.number`: the head
    becomes ``base + global BUN position`` (``mark`` flipped)."""
    base = int(base)
    fragments: List[BAT] = []
    if fb.positions is None:
        offset = base
        for frag in fb.fragments:
            fragments.append(
                BAT(
                    VoidColumn(offset, len(frag)),
                    frag.tail,
                    tsorted=frag.tsorted,
                    tkey=frag.tkey,
                )
            )
            offset += len(frag)
        return FragmentedBAT(fragments, policy=fb.policy)
    ranks = _global_ranks(fb)
    at = 0
    for frag in fb.fragments:
        head = Column("oid", base + ranks[at: at + len(frag)])
        fragments.append(BAT(head, frag.tail, tsorted=frag.tsorted, tkey=frag.tkey))
        at += len(frag)
    return FragmentedBAT(fragments, fb.positions, policy=fb.policy)


def _global_ranks(fb: FragmentedBAT) -> np.ndarray:
    """BUN-order ranks of all rows, concatenated in fragment order."""
    all_positions = np.concatenate(fb.positions)
    ranks = np.empty(len(all_positions), dtype=np.int64)
    ranks[np.argsort(all_positions, kind="stable")] = np.arange(
        len(all_positions), dtype=np.int64
    )
    return ranks


def reverse(fb: FragmentedBAT) -> FragmentedBAT:
    """Per-fragment :meth:`repro.monet.bat.BAT.reverse` (O(1) views);
    fragment boundaries are head/tail-agnostic, so no data moves."""
    return FragmentedBAT(
        [frag.reverse() for frag in fb.fragments], fb.positions, policy=fb.policy
    )


def mirror(fb: FragmentedBAT) -> FragmentedBAT:
    """Per-fragment :meth:`repro.monet.bat.BAT.mirror` (O(1) views)."""
    return FragmentedBAT(
        [frag.mirror() for frag in fb.fragments], fb.positions, policy=fb.policy
    )


def slice_(fb: FragmentedBAT, start: int, stop: int) -> FragmentedBAT:
    """Fragment-aware :func:`repro.monet.kernel.slice_bat`: the global
    BUN window [start, stop).  Range fragments intersect the window per
    fragment (zero-copy views); round-robin fragments keep the rows
    whose global BUN rank falls inside the window."""
    n = len(fb)
    start = max(0, int(start))
    stop = min(n, int(stop))
    if stop < start:
        stop = start
    if fb.positions is None:
        fragments: List[BAT] = []
        offset = 0
        for frag in fb.fragments:
            lo = max(start - offset, 0)
            hi = min(stop - offset, len(frag))
            if lo < hi:
                fragments.append(_slice_view(frag, lo, hi))
            offset += len(frag)
        if not fragments:
            fragments = [_slice_view(fb.fragments[0], 0, 0)]
        return FragmentedBAT(fragments, policy=fb.policy)
    ranks = _global_ranks(fb)
    at = 0
    fragments = []
    positions: List[np.ndarray] = []
    for index, frag in enumerate(fb.fragments):
        fragment_ranks = ranks[at: at + len(frag)]
        keep = np.nonzero((fragment_ranks >= start) & (fragment_ranks < stop))[0]
        fragments.append(frag.take_positions(keep))
        positions.append(fb.positions[index][keep])
        at += len(frag)
    return FragmentedBAT(fragments, positions, policy=fb.policy)


def topn(
    fb: FragmentedBAT, n: int, *, descending: bool = True,
    workers: Optional[int] = None,
) -> BAT:
    """Fragment-parallel :func:`repro.monet.kernel.topn`.

    Every global top-*n* BUN is a top-*n* BUN of its own fragment, so
    the candidate selection (the O(count) part) fans out per fragment
    and only ``nfragments * n`` candidates meet the final monolithic
    ``topn`` (which also restores the monolithic tie-break by global
    BUN position).  The result is a small monolithic BAT: top-n ends
    the fragment-parallel part of a plan by construction."""
    if n < 0:
        raise KernelError("topn needs a non-negative n")
    n = int(n)
    if _probe_dtype(fb):
        # The monolithic object order reverses the whole stable sort for
        # descending (NILs first, ties latest-first), which per-fragment
        # candidate selection cannot compose with; topn returns a small
        # monolithic BAT anyway, so take the coalesced path.
        return _kernel.topn(fb.to_bat(), n, descending=descending)
    workers = _resolve_workers(fb, workers)

    def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, np.ndarray]:
        index, frag = indexed
        pos = _kernel.topn_positions(frag, min(n, len(frag)), descending=descending)
        return frag.take_positions(pos), fb.global_positions(index)[pos]

    results = map_fragments(one, list(enumerate(fb.fragments)), workers)
    candidates = FragmentedBAT(
        [r[0] for r in results], [r[1] for r in results], policy=fb.policy
    ).to_bat()
    return _kernel.topn(candidates, n, descending=descending)


def const(
    fb: FragmentedBAT, atom_name: str, value: Any, *, workers: Optional[int] = None
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.const_bat`."""
    workers = _resolve_workers(fb, workers)
    fragments = map_fragments(
        lambda frag: _kernel.const_bat(frag, str(atom_name), value),
        fb.fragments,
        workers,
    )
    return FragmentedBAT(fragments, fb.positions, policy=fb.policy)


def outerjoin(
    fb: FragmentedBAT,
    right: Union[BAT, "FragmentedBAT"],
    *,
    workers: Optional[int] = None,
) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.outerjoin`:
    unmatched left BUNs keep NIL tails per fragment, with the matches
    coming from the shared grace-join build.  The build is partitioned
    and indexed once for the whole probe side (the previous
    per-fragment ``outerjoin_parts`` calls re-indexed the right operand
    once per probe fragment), and a fragmented right never coalesces.
    A monolithic dense right keeps the direct seqbase path: it has no
    build to share."""
    workers = _resolve_workers(fb, workers)
    if isinstance(right, BAT) and right.hdense:

        def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, Optional[np.ndarray]]:
            index, frag = indexed
            left_positions, tail = _kernel.outerjoin_parts(frag, right)
            out = BAT(
                frag.head.take(left_positions), tail, hkey=frag.hkey and right.hkey
            )
            if fb.positions is None:
                return out, None
            return out, fb.positions[index][left_positions]

        results = map_fragments(one, list(enumerate(fb.fragments)), workers)
        positions = None if fb.positions is None else [r[1] for r in results]
        return FragmentedBAT([r[0] for r in results], positions, policy=fb.policy)

    matches = _grace_matches(fb, right, workers)
    right_hkey = _right_hkey(right)
    tail_atom = atom(right.ttype)
    results = []
    for index, frag in enumerate(fb.fragments):
        probe_positions, tail_values = matches[index]
        matched = np.zeros(len(frag), dtype=bool)
        matched[probe_positions] = True
        unmatched = np.nonzero(~matched)[0]
        nil_tail = tail_atom.make_array([None] * len(unmatched))
        all_positions = np.concatenate((probe_positions, unmatched))
        order = np.argsort(all_positions, kind="stable")
        if len(tail_values) == 0 and len(nil_tail) == 0:
            combined = tail_atom.make_array([])
        else:
            combined = np.concatenate((tail_values, nil_tail))
        left_positions = all_positions[order]
        out = BAT(
            frag.head.take(left_positions),
            Column(tail_atom, combined[order]),
            hkey=frag.hkey and right_hkey,
        )
        results.append(
            (
                out,
                None
                if fb.positions is None
                else fb.positions[index][left_positions],
            )
        )
    positions = None if fb.positions is None else [r[1] for r in results]
    return FragmentedBAT([r[0] for r in results], positions, policy=fb.policy)


# ----------------------------------------------------------------------
# Fragment-parallel grouping
# ----------------------------------------------------------------------


def _group_key(value: Any):
    """Hashable grouping key; NaN (dbl NIL) normalizes to one sentinel
    so every NaN lands in the same group, matching ``np.unique``'s
    treat-NaNs-as-equal behaviour in the monolithic kernel."""
    if isinstance(value, float) and value != value:
        return ("\0nan",)
    return value


def group(fb: FragmentedBAT, *, workers: Optional[int] = None) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.groups.group`.

    Two parallel passes around one tiny serial merge: (1) each fragment
    reports its distinct tail values with their minimal global BUN
    position, (2) the merge orders the distinct values by first global
    appearance -- reproducing the monolithic first-appearance group-oid
    assignment exactly -- and (3) each fragment relabels its tails with
    the global ids.  The result is fragmented identically to the input,
    so a following pump aggregate stays fragment-parallel."""
    workers = _resolve_workers(fb, workers)
    object_dtype = _probe_dtype(fb)

    def local_uniques(indexed: Tuple[int, BAT]) -> List[Tuple[Any, int]]:
        index, frag = indexed
        tails = frag.tail_values()
        if len(tails) == 0:
            return []
        gpos = fb.global_positions(index)
        if object_dtype:
            firsts: dict = {}
            for position, value in enumerate(tails.tolist()):
                key = _group_key(value)
                if key not in firsts:
                    firsts[key] = int(gpos[position])
            return list(firsts.items())
        # Per-fragment global positions are increasing, so np.unique's
        # first-occurrence index is the minimal global position.
        uniq, first_idx = np.unique(tails, return_index=True)
        return [
            (_group_key(value), int(position))
            for value, position in zip(uniq.tolist(), gpos[first_idx].tolist())
        ]

    per_fragment = map_fragments(local_uniques, list(enumerate(fb.fragments)), workers)
    firsts: dict = {}
    for entries in per_fragment:
        for key, position in entries:
            previous = firsts.get(key)
            if previous is None or position < previous:
                firsts[key] = position
    gid_by_key = {
        key: gid
        for gid, (key, _) in enumerate(sorted(firsts.items(), key=lambda kv: kv[1]))
    }

    def assign(frag: BAT) -> BAT:
        tails = frag.tail_values()
        if len(tails) == 0:
            ids = np.empty(0, dtype=np.int64)
        elif object_dtype:
            ids = np.asarray(
                [gid_by_key[_group_key(v)] for v in tails.tolist()], dtype=np.int64
            )
        else:
            uniq, inverse = np.unique(tails, return_inverse=True)
            local_gids = np.asarray(
                [gid_by_key[_group_key(v)] for v in uniq.tolist()], dtype=np.int64
            )
            ids = local_gids[inverse.astype(np.int64).ravel()]
        return BAT(frag.head, Column("oid", ids), hsorted=frag.hsorted, hkey=frag.hkey)

    fragments = map_fragments(assign, fb.fragments, workers)
    return FragmentedBAT(fragments, fb.positions, policy=fb.policy)


# ----------------------------------------------------------------------
# Fragment-parallel order-sensitive operators: sort / unique / refine
#
# These were the last operators forcing a coalesce inside fragmented
# plans.  The shared shape is two parallel passes around one small
# serial merge: per-fragment work (sort / dedup / local grouping) fans
# out on the thread pool, the merge resolves cross-fragment order or
# duplicates on already-reduced data, and the result is emitted as
# range-partitioned fragments so downstream operators keep running
# fragment-parallel.
# ----------------------------------------------------------------------


def _merge_two_runs(
    a: Tuple[np.ndarray, np.ndarray], b: Tuple[np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two key-sorted (keys, global positions) runs.

    ``side='right'`` makes the left run win ties; since range fragments
    hold strictly increasing global position blocks, that is exactly
    the monolithic stable sort's tie-break by BUN position.
    ``searchsorted`` gallops, so merging two runs costs
    O(len(b) * log(len(a))) comparisons plus one linear scatter.
    """
    keys_a, gpos_a = a
    keys_b, gpos_b = b
    if len(keys_a) == 0:
        return b
    if len(keys_b) == 0:
        return a
    insert = np.searchsorted(keys_a, keys_b, side="right")
    total = len(keys_a) + len(keys_b)
    positions_b = insert + np.arange(len(keys_b), dtype=np.int64)
    keys = np.empty(total, dtype=keys_a.dtype)
    gpos = np.empty(total, dtype=np.int64)
    keys[positions_b] = keys_b
    gpos[positions_b] = gpos_b
    from_a = np.ones(total, dtype=bool)
    from_a[positions_b] = False
    keys[from_a] = keys_a
    gpos[from_a] = gpos_a
    return keys, gpos


def _merge_runs(
    runs: List[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """k-way merge by pairwise tournament: log2(k) levels, each a
    linear pass, so the whole merge is O(n log k) after the per-run
    sorts."""
    while len(runs) > 1:
        merged = [
            _merge_two_runs(runs[i], runs[i + 1])
            for i in range(0, len(runs) - 1, 2)
        ]
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
    return runs[0]


def _merge_partition_count(n: int, policy: FragmentationPolicy) -> int:
    """Output partitions for the sample-sort merge phase: at least
    enough to keep output fragments near the target size, and more when
    the data outgrows a cache-resident working set (~64k BUNs per
    partition keeps each merge's key+position arrays in L2, which is
    where the single-core win over the old streaming tournament comes
    from) -- capped at the merge fan-out (:data:`MERGE_FANOUT` is read
    live, so calibrated values apply to in-flight handles
    immediately)."""
    by_target = -(-n // policy.target_size)
    by_cache = n // (64 * 1024)
    return max(1, min(MERGE_FANOUT, max(by_target, by_cache)))


def _concat_values(columns: Sequence[AnyColumn], atom_type) -> np.ndarray:
    """Materialized concatenation of fragment columns -- the shared
    gather source the per-partition merge workers index by global BUN
    position."""
    arrays = [column.materialize() for column in columns]
    if atom_type.dtype == np.dtype(object):
        total = sum(len(a) for a in arrays)
        out = np.empty(total, dtype=object)
        at = 0
        for array in arrays:
            out[at: at + len(array)] = array
            at += len(array)
        return out
    if not arrays:
        return atom_type.make_array([])
    return np.concatenate(arrays)


def _sample_sort_merge(
    fb: FragmentedBAT,
    runs: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    workers: Optional[int],
) -> FragmentedBAT:
    """Parallel merge of key-sorted per-fragment runs by sample-sort
    partitioning.

    Pivots sampled from the runs (:func:`kernel.sample_pivots` over the
    monotone partition keys) cut every run at the same key boundaries
    (:func:`kernel.run_cut_points`), so each inter-pivot range touches
    a disjoint slice of every run and builds its output fragment
    **independently**: the per-partition galloping merges, the tail
    gathers and the output fragment construction all fan out on the
    thread pool.  Within a partition the run slices still hold strictly
    increasing global-position blocks, so the pairwise merge's
    left-run-wins tie-break reproduces the monolithic stable sort
    exactly.  Degenerate pivot samples (all-equal keys) dedupe to fewer
    partitions and in the limit fall back to the serial tournament
    merge -- correct, just less parallel."""
    head_atom = fb.fragments[0].head.atom_type
    tail_atom = fb.fragments[0].tail.atom_type
    target = fb.policy.target_size
    partitions = _merge_partition_count(len(fb), fb.policy)
    pivots = _kernel.sample_pivots(
        [pkeys for _, pkeys, _ in runs], partitions
    )
    if len(pivots) == 0:
        keys, gpos = _merge_runs([(keys, gpos) for keys, _, gpos in runs])
        head = Column(head_atom, keys)
        tail = _concat_columns([f.tail for f in fb.fragments], tail_atom, gpos)
        return _output_fragments(
            head,
            tail,
            fb.policy,
            hsorted=True,
            hkey=fb.nfragments == 1 and fb.fragments[0].hkey,
            tkey=fb.nfragments == 1 and fb.fragments[0].tkey,
        )
    bounds = [
        np.concatenate(
            ([0], _kernel.run_cut_points(pkeys, pivots), [len(keys)])
        )
        for keys, pkeys, _ in runs
    ]
    tails_concat = _concat_values([f.tail for f in fb.fragments], tail_atom)

    def build(partition: int) -> List[BAT]:
        slices = [
            (
                keys[bounds[r][partition]: bounds[r][partition + 1]],
                gpos[bounds[r][partition]: bounds[r][partition + 1]],
            )
            for r, (keys, _, gpos) in enumerate(runs)
        ]
        slices = [s for s in slices if len(s[0])]
        if not slices:
            return []
        keys_p, gpos_p = _merge_runs(slices)
        head = Column(head_atom, keys_p)
        tail = Column(tail_atom, tails_concat[gpos_p])
        return [
            BAT(
                _slice_column(head, start, min(len(keys_p), start + target)),
                _slice_column(tail, start, min(len(keys_p), start + target)),
                hsorted=True,
            )
            for start in range(0, len(keys_p), target)
        ]

    parts = map_fragments(build, list(range(len(pivots) + 1)), workers)
    fragments = [fragment for part in parts for fragment in part]
    return FragmentedBAT(fragments, policy=fb.policy)


def _output_fragments(
    head: AnyColumn,
    tail: AnyColumn,
    policy: FragmentationPolicy,
    *,
    hsorted: bool = False,
    tsorted: bool = False,
    hkey: bool = False,
    tkey: bool = False,
) -> FragmentedBAT:
    """Range-partition fully-built result columns into fragments of the
    policy's target size (zero-copy views)."""
    n = len(head)
    fragments: List[BAT] = []
    for start in range(0, n, policy.target_size):
        stop = min(n, start + policy.target_size)
        fragments.append(
            BAT(
                _slice_column(head, start, stop),
                _slice_column(tail, start, stop),
                hsorted=hsorted,
                tsorted=tsorted,
                hkey=hkey,
                tkey=tkey,
            )
        )
    if not fragments:
        fragments = [
            BAT(
                _slice_column(head, 0, 0),
                _slice_column(tail, 0, 0),
                hsorted=hsorted,
                tsorted=tsorted,
                hkey=hkey,
                tkey=tkey,
            )
        ]
    return FragmentedBAT(fragments, policy=policy)


def _rows_in_order(
    fb: FragmentedBAT, gather: np.ndarray, *, hsorted: bool = False
) -> FragmentedBAT:
    """Range-partitioned copy of *fb*'s rows in the order given by
    *gather*, an index array into the fragment-concatenation space."""
    frags = fb.fragments
    head = _concat_columns([f.head for f in frags], frags[0].head.atom_type, gather)
    tail = _concat_columns([f.tail for f in frags], frags[0].tail.atom_type, gather)
    return _output_fragments(head, tail, fb.policy, hsorted=hsorted)


def sort(fb: FragmentedBAT, *, workers: Optional[int] = None) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.sort`: every
    fragment sorts its head in its own thread (numpy's sorts release
    the GIL), then a **sample-sort merge** combines the runs: pivots
    sampled from the sorted runs range-partition the key space and each
    output partition merges its run slices independently, also in
    parallel (:func:`_sample_sort_merge`) -- no coalesce, no serial
    merge phase, and the plan around it stays fragment-parallel.  Equal
    heads keep global BUN order, exactly like the monolithic stable
    sort.  Already-sorted inputs (flagged or detected, fragment
    boundaries included) return unchanged.  Round-robin inputs scatter
    stably to BUN order first and sort the range-partitioned copy --
    run-order merging cannot break their interleaved ties correctly;
    object (str) heads merge via per-partition ``heapq``, parallel
    across partitions."""
    if len(fb) == 0:
        return fb
    if _kernel._is_object_column(fb.fragments[0].head):
        return _sort_object(fb, _resolve_workers(fb, workers))
    if fb.positions is not None:
        return _sort_scatter(fb, workers)
    if all(f.hsorted for f in fb.fragments) and _boundaries_nondecreasing(
        fb.fragments, head=True
    ):
        return fb
    workers = _resolve_workers(fb, workers)

    def one(indexed: Tuple[int, BAT]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        index, frag = indexed
        keys = frag.head_values()
        gpos = fb.global_positions(index)
        if not (frag.hsorted or _nondecreasing(keys)):
            order = np.argsort(keys, kind="stable")
            keys, gpos = keys[order], gpos[order]
        return keys, _kernel.partition_keys(keys), gpos

    runs = map_fragments(one, list(enumerate(fb.fragments)), workers)
    return _sample_sort_merge(fb, runs, workers)


def tsort(fb: FragmentedBAT, *, workers: Optional[int] = None) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.tsort`
    (``reverse . sort . reverse``; the reverses are O(1) views)."""
    return reverse(sort(reverse(fb), workers=workers))


def _nondecreasing(values: np.ndarray) -> bool:
    """Cheap actual-sortedness check (a NaN anywhere fails it, which
    just means the fragment argsorts -- correctness over shortcut)."""
    if len(values) <= 1:
        return True
    return bool(np.all(values[1:] >= values[:-1]))


def _sort_scatter(fb: FragmentedBAT, workers: Optional[int]) -> FragmentedBAT:
    """Sort a round-robin split: stably scatter the rows back into BUN
    order (a range-partitioned copy) and sort that.  The range
    sample-sort then breaks equal-key ties by position in the scattered
    copy, which *is* global BUN order -- exactly the monolithic stable
    sort -- while run-order merging over the original interleaved runs
    could not.  Positions of derived subsets are sparse, so the scatter
    goes through their ranks, not through the position values."""
    bun_order = np.argsort(np.concatenate(fb.positions), kind="stable")
    return sort(_rows_in_order(fb, bun_order), workers=workers)


def _object_pivots(
    runs: List[List[Tuple[bool, Any, int, int]]], partitions: int,
    *, oversample: int = 4,
) -> List[Tuple[bool, Any]]:
    """Sampled (is-NIL, value) pivot prefixes for the object merge:
    :func:`kernel.sample_pivots` over Python tuples.  A 2-tuple prefix
    compares below every full run entry sharing it, so ``bisect_left``
    cuts runs exactly like ``searchsorted(..., side='left')`` -- equal
    keys never straddle a partition boundary."""
    if partitions <= 1:
        return []
    samples: List[Tuple[bool, Any]] = []
    for run in runs:
        if not run:
            continue
        picks = _kernel.pivot_sample_positions(
            len(run), partitions, oversample=oversample
        )
        if picks is None:
            samples.extend(entry[:2] for entry in run)
        else:
            samples.extend(run[int(i)][:2] for i in picks)
    if not samples:
        return []
    samples.sort()
    return sorted(
        {
            samples[int(q)]
            for q in _kernel.pivot_quantile_positions(len(samples), partitions)
        }
    )


def _sort_object(fb: FragmentedBAT, workers: Optional[int]) -> FragmentedBAT:
    """Object (str) heads: per-fragment Python sorts partitioned at
    sampled pivots, every partition ``heapq``-merged in its own worker.
    The (is-NIL, value, global position) entry key reproduces the
    monolithic object sort exactly -- NILs last, ties in BUN order --
    and because the global position is *inside* the comparison key, the
    per-partition merges are order-correct for interleaved (round-robin)
    runs too."""
    import bisect

    offsets = np.concatenate(([0], np.cumsum(fb.fragment_sizes())))

    def one(indexed: Tuple[int, BAT]) -> List[Tuple[bool, Any, int, int]]:
        index, frag = indexed
        gpos = fb.global_positions(index)
        base = int(offsets[index])
        return sorted(
            (value is None, "" if value is None else value, int(position),
             base + local)
            for local, (value, position) in enumerate(
                zip(frag.head_values().tolist(), gpos.tolist())
            )
        )

    runs = map_fragments(one, list(enumerate(fb.fragments)), workers)
    pivots = _object_pivots(runs, _merge_partition_count(len(fb), fb.policy))
    if not pivots:
        gather = np.fromiter(
            (entry[3] for entry in heapq.merge(*runs)), dtype=np.int64,
            count=len(fb),
        )
        return _rows_in_order(fb, gather, hsorted=True)
    bounds = [
        [0] + [bisect.bisect_left(run, pivot) for pivot in pivots] + [len(run)]
        for run in runs
    ]

    def build(partition: int) -> np.ndarray:
        slices = [
            run[bounds[r][partition]: bounds[r][partition + 1]]
            for r, run in enumerate(runs)
        ]
        return np.fromiter(
            (entry[3] for entry in heapq.merge(*slices)), dtype=np.int64
        )

    gathers = map_fragments(build, list(range(len(pivots) + 1)), workers)
    return _rows_in_order(fb, np.concatenate(gathers), hsorted=True)


def unique(fb: FragmentedBAT, *, workers: Optional[int] = None) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.unique`: each
    fragment dedupes locally in its thread, the merge resolves
    cross-fragment duplicates on the reduced candidate set only
    (winner = smallest global BUN position, preserving first-seen
    order), and a parallel filter drops the losers in place -- the
    fragmentation shape survives."""
    workers = _resolve_workers(fb, workers)
    keep = _first_global_occurrences(fb, workers, heads=True, tails=True)
    return _keep_positions(fb, keep, workers)


def kunique(fb: FragmentedBAT, *, workers: Optional[int] = None) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.kunique` (duplicate
    *head* elimination, first BUN per head wins)."""
    if fb.nfragments == 1 and fb.fragments[0].hkey:
        return fb
    workers = _resolve_workers(fb, workers)
    keep = _first_global_occurrences(fb, workers, heads=True, tails=False)
    result = _keep_positions(fb, keep, workers)
    fragments = [
        BAT(f.head, f.tail, hsorted=f.hsorted, tsorted=f.tsorted, hkey=True,
            tkey=f.tkey)
        for f in result.fragments
    ]
    return FragmentedBAT(fragments, result.positions, policy=fb.policy)


def tunique(fb: FragmentedBAT, *, workers: Optional[int] = None) -> FragmentedBAT:
    """Fragment-parallel :func:`repro.monet.kernel.tunique`
    (``reverse . kunique . reverse``)."""
    return reverse(kunique(reverse(fb), workers=workers))


def _first_global_occurrences(
    fb: FragmentedBAT, workers: Optional[int], *, heads: bool, tails: bool
) -> np.ndarray:
    """Sorted global BUN positions of the first occurrence of every
    distinct key (head, tail, or both).  NILs dedupe under the identity
    rule -- one NaN/None survives -- matching the monolithic kernel
    (see the NIL semantics note in :mod:`repro.monet.kernel`)."""
    first = fb.fragments[0]
    object_dtype = (heads and _kernel._is_object_column(first.head)) or (
        tails and _kernel._is_object_column(first.tail)
    )
    if object_dtype:

        def candidates(indexed: Tuple[int, BAT]) -> dict:
            index, frag = indexed
            gpos = fb.global_positions(index)
            head_values = frag.head_list() if heads else None
            tail_values = frag.tail_list() if tails else None
            firsts: dict = {}
            for position in range(len(frag)):
                key = ()
                if heads:
                    key += (_kernel.nil_dedup_key(head_values[position]),)
                if tails:
                    key += (_kernel.nil_dedup_key(tail_values[position]),)
                if key not in firsts:
                    firsts[key] = int(gpos[position])
            return firsts

        per_fragment = map_fragments(
            candidates, list(enumerate(fb.fragments)), workers
        )
        winners: dict = {}
        for firsts in per_fragment:
            for key, position in firsts.items():
                previous = winners.get(key)
                if previous is None or position < previous:
                    winners[key] = position
        return np.sort(np.asarray(list(winners.values()), dtype=np.int64))

    def candidates(indexed: Tuple[int, BAT]) -> List[np.ndarray]:
        index, frag = indexed
        keys = []
        if heads:
            keys.append(_kernel.dedup_keys(frag.head))
        if tails:
            keys.append(_kernel.dedup_keys(frag.tail))
        firsts = _kernel.first_occurrences(*keys)
        gpos = fb.global_positions(index)
        return [key[firsts] for key in keys] + [gpos[firsts]]

    per_fragment = map_fragments(candidates, list(enumerate(fb.fragments)), workers)
    merged = [
        np.concatenate([p[i] for p in per_fragment])
        for i in range(len(per_fragment[0]))
    ]
    *key_arrays, gpos_concat = merged
    if len(gpos_concat) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort(tuple([gpos_concat] + list(reversed(key_arrays))))
    new_block = np.zeros(len(order), dtype=bool)
    new_block[0] = True
    for key in key_arrays:
        sorted_key = key[order]
        new_block[1:] |= sorted_key[1:] != sorted_key[:-1]
    return np.sort(gpos_concat[order[new_block]])


def _keep_positions(
    fb: FragmentedBAT, keep: np.ndarray, workers: Optional[int]
) -> FragmentedBAT:
    """Filter *fb* to the rows whose global BUN positions are in the
    sorted *keep* array, fragment-parallel and shape-preserving."""
    if fb.positions is None:
        offsets = np.concatenate(([0], np.cumsum(fb.fragment_sizes())))

        def one(indexed: Tuple[int, BAT]) -> BAT:
            index, frag = indexed
            lo = np.searchsorted(keep, offsets[index], side="left")
            hi = np.searchsorted(keep, offsets[index + 1], side="left")
            return frag.take_positions(keep[lo:hi] - offsets[index])

        fragments = map_fragments(one, list(enumerate(fb.fragments)), workers)
        return FragmentedBAT(fragments, policy=fb.policy)

    def one(indexed: Tuple[int, BAT]) -> Tuple[BAT, np.ndarray]:
        index, frag = indexed
        mine = fb.positions[index]
        found = np.searchsorted(keep, mine, side="left")
        hits = np.nonzero(found < len(keep))[0]
        member = np.zeros(len(mine), dtype=bool)
        if len(hits):
            member[hits] = keep[found[hits]] == mine[hits]
        local = np.nonzero(member)[0]
        return frag.take_positions(local), mine[local]

    results = map_fragments(one, list(enumerate(fb.fragments)), workers)
    return FragmentedBAT(
        [r[0] for r in results], [r[1] for r in results], policy=fb.policy
    )


def refine(
    grouping: FragmentedBAT,
    bat: Union[BAT, FragmentedBAT],
    *,
    workers: Optional[int] = None,
) -> Union[BAT, FragmentedBAT]:
    """Fragment-parallel :func:`repro.monet.groups.refine`: the same
    two parallel passes around a tiny serial merge as :func:`group`,
    over (old group id, value) pairs.  A monolithic *bat* operand is
    window-sliced to the grouping's fragments (range splits); anything
    misaligned falls back to the monolithic refine over coalesced
    views."""
    from repro.monet import groups as _groups

    if isinstance(bat, BAT):
        if grouping.positions is None and len(bat) == len(grouping):
            offsets = [0]
            for size in grouping.fragment_sizes():
                offsets.append(offsets[-1] + size)
            bat = FragmentedBAT(
                [
                    _slice_view(bat, offsets[k], offsets[k + 1])
                    for k in range(grouping.nfragments)
                ],
                policy=grouping.policy,
            )
        else:
            return _groups.refine(coalesce(grouping), bat)
    if not same_fragmentation(grouping, bat):
        return _groups.refine(coalesce(grouping), coalesce(bat))
    workers = _resolve_workers(grouping, workers)
    object_dtype = _kernel._is_object_column(bat.fragments[0].tail)

    def local(indexed: Tuple[int, Tuple[BAT, BAT]]):
        index, (group_frag, value_frag) = indexed
        old = group_frag.tail_values().astype(np.int64, copy=False)
        gpos = grouping.global_positions(index)
        if len(old) == 0:
            return [], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if object_dtype:
            codes = np.empty(len(old), dtype=np.int64)
            rep_keys: List[Tuple[int, Any]] = []
            rep_gpos: List[int] = []
            seen: dict = {}
            for position, (old_id, value) in enumerate(
                zip(old.tolist(), value_frag.tail_list())
            ):
                key = (old_id, _kernel.nil_dedup_key(value))
                code = seen.get(key)
                if code is None:
                    code = len(rep_keys)
                    seen[key] = code
                    rep_keys.append(key)
                    rep_gpos.append(int(gpos[position]))
                codes[position] = code
            return rep_keys, np.asarray(rep_gpos, dtype=np.int64), codes
        value_keys = _kernel.dedup_keys(value_frag.tail)
        order = np.lexsort((value_keys, old))
        sorted_old = old[order]
        sorted_values = value_keys[order]
        new_block = np.zeros(len(order), dtype=bool)
        new_block[0] = True
        new_block[1:] = (sorted_old[1:] != sorted_old[:-1]) | (
            sorted_values[1:] != sorted_values[:-1]
        )
        starts = np.nonzero(new_block)[0]
        codes = np.empty(len(order), dtype=np.int64)
        codes[order] = np.cumsum(new_block) - 1
        rep_keys = list(
            zip(sorted_old[starts].tolist(), sorted_values[starts].tolist())
        )
        # Stable lexsort keeps each block in local (therefore global)
        # position order, so the block start is the minimal position.
        return rep_keys, gpos[order[starts]], codes

    per_fragment = map_fragments(
        local, list(enumerate(zip(grouping.fragments, bat.fragments))), workers
    )
    firsts: dict = {}
    for rep_keys, rep_gpos, _ in per_fragment:
        for key, position in zip(rep_keys, rep_gpos.tolist()):
            previous = firsts.get(key)
            if previous is None or position < previous:
                firsts[key] = position
    gid_by_key = {
        key: gid
        for gid, (key, _) in enumerate(sorted(firsts.items(), key=lambda kv: kv[1]))
    }

    def assign(pair: Tuple[BAT, Tuple[list, np.ndarray, np.ndarray]]) -> BAT:
        group_frag, (rep_keys, _, codes) = pair
        if rep_keys:
            lookup = np.asarray([gid_by_key[key] for key in rep_keys], dtype=np.int64)
            ids = lookup[codes]
        else:
            ids = np.empty(0, dtype=np.int64)
        return BAT(
            group_frag.head,
            Column("oid", ids),
            hsorted=group_frag.hsorted,
            hkey=group_frag.hkey,
        )

    fragments = map_fragments(
        assign, list(zip(grouping.fragments, per_fragment)), workers
    )
    return FragmentedBAT(fragments, grouping.positions, policy=grouping.policy)


# ----------------------------------------------------------------------
# Fragment-parallel multiplex
# ----------------------------------------------------------------------


def same_fragmentation(a: FragmentedBAT, b: FragmentedBAT) -> bool:
    """True when *a* and *b* cover the same BUNs with identical
    fragment boundaries (the precondition for per-fragment positional
    alignment)."""
    if a.fragment_sizes() != b.fragment_sizes():
        return False
    if (a.positions is None) != (b.positions is None):
        return False
    if a.positions is not None:
        return all(
            np.array_equal(pa, pb) for pa, pb in zip(a.positions, b.positions)
        )
    return True


def coalesce(value: Any) -> Any:
    """FragmentedBAT -> monolithic BAT; anything else passes through."""
    return value.to_bat() if isinstance(value, FragmentedBAT) else value


def multiplex(op: str, *operands: Any, workers: Optional[int] = None):
    """Fragment-parallel :func:`repro.monet.multiplex.multiplex`.

    Runs per fragment when every FragmentedBAT operand shares one
    fragmentation; monolithic BAT operands are positionally sliced to
    the fragment windows (range splits only).  Any misalignment falls
    back to the monolithic multiplex over coalesced operands."""
    from repro.monet.multiplex import multiplex as monolithic_multiplex

    fbs = [x for x in operands if isinstance(x, FragmentedBAT)]
    if not fbs:
        return monolithic_multiplex(op, *operands)
    ref = fbs[0]
    aligned = all(same_fragmentation(ref, fb) for fb in fbs[1:])
    plain_bats = [x for x in operands if isinstance(x, BAT)]
    # Monolithic operands are positionally window-sliced, which is only
    # meaningful for range splits and equal lengths; anything else
    # coalesces so the monolithic multiplex applies its own alignment
    # guards (length/seqbase mismatches must keep raising).
    sliceable = ref.positions is None and all(
        len(x) == len(ref) for x in plain_bats
    )
    if not aligned or (plain_bats and not sliceable):
        return monolithic_multiplex(op, *(coalesce(x) for x in operands))
    workers = _resolve_workers(ref, workers)
    offsets = [0]
    for size in ref.fragment_sizes():
        offsets.append(offsets[-1] + size)

    def one(k: int) -> BAT:
        frag_operands = []
        for x in operands:
            if isinstance(x, FragmentedBAT):
                frag_operands.append(x.fragments[k])
            elif isinstance(x, BAT):
                frag_operands.append(_slice_view(x, offsets[k], offsets[k + 1]))
            else:
                frag_operands.append(x)
        return monolithic_multiplex(op, *frag_operands)

    fragments = map_fragments(one, list(range(ref.nfragments)), workers)
    return FragmentedBAT(fragments, ref.positions, policy=ref.policy)


# ----------------------------------------------------------------------
# Re-fragmentation of drifted intermediates
# ----------------------------------------------------------------------


def fold_tail(
    fb: FragmentedBAT,
    policy: Optional[FragmentationPolicy] = None,
    *,
    compact: bool = False,
) -> FragmentedBAT:
    """Fold drifted delta fragments back to policy size without
    coalescing.

    Two purely local passes; healthy fragments are shared by reference
    with the input in both:

    * every fragment larger than twice the policy target (the residue
      of bulk appends) is sliced into target-sized view fragments
      (numpy views -- no data copy);
    * with ``compact=True``, runs of adjacent *starved* fragments (the
      residue of tombstone deletes shrinking fragments below half the
      target) are concatenated back up to at most target size -- a
      bounded local concat per run, never a coalesce of the whole BAT.
      Compaction is opt-in because plan intermediates routinely carry
      small fragments (every selection shrinks them) and must not pay
      a copy per operator; only the merge daemon's registered-BAT pass
      (:func:`rebalance`) asks for it.

    This is the cheap half of reorganization: the merge daemon runs it
    continuously so deltas of both kinds fold back to the policy size
    while readers keep their snapshots."""
    policy = policy or fb.policy
    target = policy.target_size
    sizes = fb.fragment_sizes()
    oversized = max(sizes) > 2 * target
    starved = compact and len(sizes) > 1 and min(sizes) * 2 < target
    if not oversized and not starved:
        return fb
    out_fragments: List[BAT] = []
    out_positions: List[np.ndarray] = []
    for index, fragment in enumerate(fb.fragments):
        if len(fragment) <= 2 * target:
            out_fragments.append(fragment)
            if fb.positions is not None:
                out_positions.append(fb.positions[index])
            continue
        for start in range(0, len(fragment), target):
            stop = min(start + target, len(fragment))
            out_fragments.append(_slice_view(fragment, start, stop))
            if fb.positions is not None:
                out_positions.append(fb.positions[index][start:stop])
    if starved:
        out_fragments, out_positions = _compact_starved(
            out_fragments,
            out_positions if fb.positions is not None else None,
            target,
        )
    return FragmentedBAT(
        out_fragments,
        out_positions if fb.positions is not None else None,
        policy=policy,
        name=fb.name,
    )


def _compact_starved(
    fragments: List[BAT],
    positions: Optional[List[np.ndarray]],
    target: int,
) -> Tuple[List[BAT], List[np.ndarray]]:
    """Greedily merge runs of adjacent fragments whose combined size
    stays within *target*; empty fragments are dropped outright.  Each
    merge is one bounded concatenation (round-robin runs re-sort their
    merged positions so the sorted-positions invariant survives)."""
    out_frags: List[BAT] = []
    out_pos: List[np.ndarray] = []
    group: List[BAT] = []
    group_pos: List[np.ndarray] = []
    group_size = 0

    def flush() -> None:
        nonlocal group, group_pos, group_size
        if not group:
            return
        if len(group) == 1:
            out_frags.append(group[0])
            if positions is not None:
                out_pos.append(group_pos[0])
        else:
            merged, merged_positions = _merge_fragment_run(
                group, group_pos if positions is not None else None
            )
            out_frags.append(merged)
            if positions is not None:
                out_pos.append(merged_positions)
        group, group_pos, group_size = [], [], 0

    for index, fragment in enumerate(fragments):
        if len(fragment) == 0:
            continue
        if group and group_size + len(fragment) > target:
            flush()
        group.append(fragment)
        if positions is not None:
            group_pos.append(positions[index])
        group_size += len(fragment)
    flush()
    if not out_frags:
        out_frags = [
            fragments[0].take_positions(np.empty(0, dtype=np.int64))
        ]
        out_pos = [np.empty(0, dtype=np.int64)]
    return out_frags, out_pos


def _merge_fragment_run(
    frags: List[BAT], poss: Optional[List[np.ndarray]]
) -> Tuple[BAT, Optional[np.ndarray]]:
    """Concatenate an adjacent run of fragments into one (the local
    mirror of :meth:`FragmentedBAT._build_monolithic`, bounded by the
    run size)."""
    if poss is None:
        order = None
        merged_positions = None
    else:
        all_positions = np.concatenate(poss)
        order = np.argsort(all_positions, kind="stable")
        merged_positions = all_positions[order]
    head = _concat_columns(
        [f.head for f in frags], frags[0].head.atom_type, order
    )
    tail = _concat_columns(
        [f.tail for f in frags], frags[0].tail.atom_type, order
    )
    flags = _concat_flags(frags, order is None)
    return BAT(head, tail, **flags), merged_positions


def rebalance(
    fb: FragmentedBAT, policy: Optional[FragmentationPolicy] = None
) -> FragmentedBAT:
    """The merge daemon's reorganization pass for registered BATs:
    fold and compact locally, then re-partition when the balance has
    skewed beyond what local passes can repair.

    ``fold_tail`` fixes oversized fragments and *adjacent* starved
    runs, but a round-robin split whose delta tail keeps absorbing
    appends drifts into a persistent skew it cannot see: every
    fragment stays under twice the target and no starved run is
    adjacent, yet one fragment holds many times the rows of another,
    so fragment-parallel operators tail on the big one.  When the
    max/min spread exceeds one target unit -- or the fragment count has
    drifted past four times what the cardinality warrants -- this
    re-splits once through :func:`fragment_bat`, the one reorganization
    that *does* coalesce, which is why only the merge daemon calls it,
    under the same per-name CAS swap-in as the fold."""
    policy = policy or fb.policy
    folded = fold_tail(fb, policy, compact=True)
    sizes = folded.fragment_sizes()
    n = len(folded)
    ideal = max(1, -(-n // policy.target_size))
    count_drift = folded.nfragments > max(4, 4 * ideal)
    skew = (
        folded.positions is not None
        and len(sizes) > 1
        and max(sizes) - min(sizes) > policy.target_size
    )
    if not count_drift and not skew:
        return folded
    return fragment_bat(folded.to_bat(), policy)


def refragment(
    fb: FragmentedBAT, policy: Optional[FragmentationPolicy] = None
) -> FragmentedBAT:
    """Re-split *fb* when its fragmentation has drifted far from
    *policy* (defaults to the BAT's own policy).

    Selections shrink fragments and joins/appends grow them; most drift
    is harmless, so this only rebuilds when a fragment exceeds twice the
    target size (losing cache residency) or the fragment count exceeds
    four times what the current cardinality warrants (dispatch overhead
    dominating).  Oversized fragments are first folded by
    :func:`fold_tail` (slice views, no coalesce) -- the append path's
    delta tails resolve there; only when the fragment *count* has
    drifted does this coalesce once and re-split.  The MIL dispatch
    layer calls this on intermediates so whole pipelines keep a healthy
    fragmentation without per-operator tuning."""
    policy = policy or fb.policy
    n = len(fb)
    ideal = max(1, -(-n // policy.target_size))
    count_bound = max(4, 4 * ideal)
    if max(fb.fragment_sizes()) > 2 * policy.target_size:
        folded = fold_tail(fb, policy)
        if folded.nfragments <= count_bound:
            return folded
        fb = folded
    if fb.nfragments <= count_bound:
        return fb
    return fragment_bat(fb.to_bat(), policy)


# ----------------------------------------------------------------------
# Fragment-parallel aggregates
# ----------------------------------------------------------------------


def count(fb: FragmentedBAT) -> int:
    """Fragment count aggregate (trivially the sum of fragment sizes)."""
    return len(fb)


def sum_(fb: FragmentedBAT, *, workers: Optional[int] = None) -> Any:
    """Fragment-parallel :func:`repro.monet.aggregates.sum_`."""
    workers = _resolve_workers(fb, workers)
    partials = map_fragments(_agg.sum_, fb.fragments, workers)
    total = sum(partials)
    return float(total) if fb.ttype == "dbl" else int(total)


def max_(fb: FragmentedBAT, *, workers: Optional[int] = None) -> Any:
    """Fragment-parallel :func:`repro.monet.aggregates.max_`."""
    return _scalar_extreme(fb, workers, maximum=True)


def min_(fb: FragmentedBAT, *, workers: Optional[int] = None) -> Any:
    """Fragment-parallel :func:`repro.monet.aggregates.min_`."""
    return _scalar_extreme(fb, workers, maximum=False)


def _scalar_extreme(fb: FragmentedBAT, workers: Optional[int], *, maximum: bool) -> Any:
    workers = _resolve_workers(fb, workers)
    monolithic = _agg.max_ if maximum else _agg.min_
    partials = [p for p in map_fragments(monolithic, fb.fragments, workers) if p is not None]
    if not partials:
        return None
    if fb.ttype == "dbl":
        # np.max/np.min propagate NaN (dbl NIL) like the monolithic
        # kernel; Python's max()/min() would drop it order-dependently.
        reduced = np.max(np.asarray(partials, dtype=np.float64)) if maximum else np.min(
            np.asarray(partials, dtype=np.float64)
        )
        return float(reduced)
    return max(partials) if maximum else min(partials)


def avg(fb: FragmentedBAT, *, workers: Optional[int] = None) -> Optional[float]:
    """Fragment-parallel :func:`repro.monet.aggregates.avg` via partial
    (sum, count) pairs."""
    _agg._require_numeric(fb.fragments[0], "avg")
    workers = _resolve_workers(fb, workers)

    def one(frag: BAT) -> Tuple[float, int]:
        tails = frag.tail_values()
        return (float(tails.sum()) if len(tails) else 0.0, len(tails))

    partials = map_fragments(one, fb.fragments, workers)
    total = sum(p[0] for p in partials)
    n = sum(p[1] for p in partials)
    return total / n if n else None


def _check_aligned(values: FragmentedBAT, grouping: FragmentedBAT) -> None:
    if values.fragment_sizes() != grouping.fragment_sizes():
        raise KernelError(
            "fragmented pump aggregate requires identically fragmented "
            "values and grouping"
        )
    if (values.positions is None) != (grouping.positions is None):
        raise KernelError("fragmented pump aggregate: mismatched split strategies")
    if values.positions is not None:
        for a, b in zip(values.positions, grouping.positions):
            if not np.array_equal(a, b):
                raise KernelError(
                    "fragmented pump aggregate: fragments cover different BUNs"
                )


def _global_n_groups(
    grouping: FragmentedBAT, explicit: Optional[int], workers: Optional[int]
) -> int:
    if explicit is not None:
        return explicit
    maxima = map_fragments(
        lambda frag: int(frag.tail_values().max()) if len(frag) else -1,
        grouping.fragments,
        workers,
    )
    return max(maxima) + 1 if maxima else 0


def grouped_sum(
    values: FragmentedBAT,
    grouping: FragmentedBAT,
    n_groups: Optional[int] = None,
    *,
    workers: Optional[int] = None,
) -> BAT:
    """Fragment-parallel ``{sum}``: per-fragment partial sums combined
    by addition."""
    _check_aligned(values, grouping)
    workers = _resolve_workers(values, workers)
    size = _global_n_groups(grouping, n_groups, workers)
    partials = map_fragments(
        lambda pair: _agg.grouped_sum(pair[0], pair[1], n_groups=size).tail_values(),
        list(zip(values.fragments, grouping.fragments)),
        workers,
    )
    combined = np.sum(partials, axis=0) if partials else np.zeros(0)
    if values.ttype == "int":
        return BAT(VoidColumn(0, size), Column("int", combined.astype(np.int64)))
    return BAT(VoidColumn(0, size), Column("dbl", np.asarray(combined, dtype=np.float64)))


def grouped_count(
    values: FragmentedBAT,
    grouping: FragmentedBAT,
    n_groups: Optional[int] = None,
    *,
    workers: Optional[int] = None,
) -> BAT:
    """Fragment-parallel ``{count}``."""
    _check_aligned(values, grouping)
    workers = _resolve_workers(values, workers)
    size = _global_n_groups(grouping, n_groups, workers)
    partials = map_fragments(
        lambda pair: _agg.grouped_count(pair[0], pair[1], n_groups=size).tail_values(),
        list(zip(values.fragments, grouping.fragments)),
        workers,
    )
    combined = np.sum(partials, axis=0).astype(np.int64) if partials else np.zeros(0, np.int64)
    return BAT(VoidColumn(0, size), Column("int", combined))


def grouped_max(
    values: FragmentedBAT,
    grouping: FragmentedBAT,
    n_groups: Optional[int] = None,
    *,
    workers: Optional[int] = None,
) -> BAT:
    """Fragment-parallel ``{max}``; empty groups keep their NIL."""
    return _grouped_extreme(values, grouping, n_groups, workers, maximum=True)


def grouped_min(
    values: FragmentedBAT,
    grouping: FragmentedBAT,
    n_groups: Optional[int] = None,
    *,
    workers: Optional[int] = None,
) -> BAT:
    """Fragment-parallel ``{min}``; empty groups keep their NIL."""
    return _grouped_extreme(values, grouping, n_groups, workers, maximum=False)


def _grouped_extreme(values, grouping, n_groups, workers, *, maximum: bool) -> BAT:
    _check_aligned(values, grouping)
    _agg._require_numeric(values.fragments[0], "{extreme}")
    workers = _resolve_workers(values, workers)
    size = _global_n_groups(grouping, n_groups, workers)
    ufunc = np.maximum if maximum else np.minimum
    identity = -np.inf if maximum else np.inf

    # Partials mirror the monolithic kernel exactly: an NaN member
    # poisons its group (np.maximum/np.minimum propagate it, unlike
    # fmax/fmin), and a group empty everywhere stays at the +-inf
    # identity, which the monolithic isinf -> NIL rule then catches.
    def one(pair: Tuple[BAT, BAT]) -> np.ndarray:
        value_frag, group_frag = pair
        ids = _agg._aligned_group_ids(value_frag, group_frag)
        out = np.full(size, identity, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # NaN members poison their group
            ufunc.at(out, ids, value_frag.tail_values().astype(np.float64))
        return out

    partials = map_fragments(one, list(zip(values.fragments, grouping.fragments)), workers)
    out = np.full(size, identity, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        for partial in partials:
            out = ufunc(out, partial)
    out[np.isinf(out)] = np.nan  # empty group -> dbl NIL
    if values.ttype == "int":
        ints = np.where(np.isnan(out), np.iinfo(np.int64).min, out).astype(np.int64)
        return BAT(VoidColumn(0, size), Column("int", ints))
    return BAT(VoidColumn(0, size), Column("dbl", out))


def grouped_avg(
    values: FragmentedBAT,
    grouping: FragmentedBAT,
    n_groups: Optional[int] = None,
    *,
    workers: Optional[int] = None,
) -> BAT:
    """Fragment-parallel ``{avg}`` via partial (sum, count) pairs."""
    _check_aligned(values, grouping)
    _agg._require_numeric(values.fragments[0], "{avg}")
    workers = _resolve_workers(values, workers)
    size = _global_n_groups(grouping, n_groups, workers)

    def one(pair: Tuple[BAT, BAT]) -> Tuple[np.ndarray, np.ndarray]:
        value_frag, group_frag = pair
        ids = _agg._aligned_group_ids(value_frag, group_frag)
        tails = value_frag.tail_values().astype(np.float64)
        return (
            np.bincount(ids, weights=tails, minlength=size),
            np.bincount(ids, minlength=size),
        )

    partials = map_fragments(one, list(zip(values.fragments, grouping.fragments)), workers)
    sums = np.sum([p[0] for p in partials], axis=0) if partials else np.zeros(0)
    counts = np.sum([p[1] for p in partials], axis=0) if partials else np.zeros(0)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.asarray(sums, dtype=np.float64) / counts
    return BAT(VoidColumn(0, size), Column("dbl", means))
