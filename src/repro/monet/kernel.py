"""The BAT operator kernel: Monet's set-at-a-time algebra.

Every operator consumes and produces whole BATs; there is no
tuple-at-a-time path anywhere in this module.  This is the property the
Mirror paper leans on ("allows often for set-at-a-time processing of
complex query expressions", section 2) and that [BWK98] shows to be the
performance foundation of the architecture.

Operator vocabulary (Monet names kept):

=================  ====================================================
``select``         BUNs whose tail lies in a value/range predicate
``uselect``        like ``select`` but tail replaced by void (head set)
``likeselect``     tail matches a substring pattern (for str tails)
``join``           natural join on left.tail = right.head
``fetchjoin``      positional join against a void-headed right operand
``outerjoin``      left outer variant of ``join`` (NIL-padded)
``semijoin``       BUNs of left whose *head* occurs in right's head
``antijoin``       BUNs of left whose head does *not* occur (``kdiff``)
``kintersect``     BUNs of left whose head occurs in right's head
``kunion``         left plus the right BUNs with unseen heads
``mark``           tail replaced by a fresh dense oid sequence
``number``         head replaced by a fresh dense oid sequence
``sort``           stable sort on head
``tsort``          stable sort on tail
``unique``         duplicate BUN elimination
``kunique``        duplicate head elimination (first BUN wins)
``slice_bat``      positional BUN range
=================  ====================================================

NIL semantics (two rules, both Monet-faithful):

* *Comparisons* -- select predicates and the join family, including
  ``semijoin``/``kdiff`` -- follow "NIL equals nothing": a NIL probe
  or build value (NaN for dbl, ``None`` for str) never matches, not
  even another NIL.  The radix-partitioned (grace) hash join applies
  the rule *before* partitioning: :func:`join_keys` masks NIL BUNs
  out ahead of the radix split, so no partition -- resident or
  spilled -- ever carries a NIL key and the partition-local probes
  need no NIL handling of their own.
* *Identity* operators -- ``unique``/``kunique``/``tunique`` here,
  ``group``/``refine`` in :mod:`repro.monet.groups`, **and the set
  operators ``kunion``/``kintersect``** -- treat all NILs of a column
  as **one value** (SQL DISTINCT / GROUP BY / UNION style): one NIL
  survives duplicate elimination, every NIL lands in the same group,
  and a NIL head *is* a member of a head set that contains a NIL.
  :func:`dedup_keys` encodes this rule for the vectorized paths (NaN
  keys collapse to a single sentinel); :func:`member_mask` applies it
  to set membership, so e.g. ``kunion`` does not duplicate NIL heads
  and ``kintersect`` keeps a NIL head when both sides have one.  The
  set operators previously inherited the comparison rule from the
  semijoin machinery, which silently duplicated NaN heads in unions --
  the identity rule makes them consistent with ``kunique`` (whose
  output is the natural "key set" the k-prefixed operators work on).
* *Appends/deltas introduce no third rule.*  A NIL appended into a
  delta tail (:meth:`BAT.append` / ``FragmentedBAT.append`` /
  ``BATBufferPool.append``, WAL replay included) is stored as the
  ordinary NIL representation of its atom (NaN for dbl, ``None`` for
  str, the int sentinel for int/oid) and thereafter follows exactly
  the split above: comparison operators never match it, identity
  operators fold it with every other NIL of the column -- whether the
  NIL arrived by bulk load or by append is indistinguishable to every
  operator.  The only append-specific caveat is *property flags*: an
  appended NIL conservatively clears ``tsorted``/``tkey`` (NaN is
  incomparable, so sortedness cannot be extended across it), which
  can only disable optimizations, never change results.
* *Tombstones and patches follow the same two rules.*  Deleting a BUN
  whose tail is NIL (:meth:`BAT.delete_positions` /
  ``FragmentedBAT.delete``) is an ordinary positional delete -- NIL
  confers no protection and needs no special casing, because deletion
  selects by *position*, never by value.  A delete is a monotone
  gather of the surviving BUNs, so all four property flags
  (``hsorted``/``tsorted``/``hkey``/``tkey``) survive unchanged:
  removing elements can break neither sortedness nor key-ness.
  Updating a BUN *to* NIL (:meth:`BAT.update_positions` /
  ``FragmentedBAT.update``) conservatively clears ``tkey`` (the new
  NIL may collide with an existing one under the identity rule) and
  clears ``tsorted`` unless the locally checked neighbour pairs still
  compare ordered -- a NaN patch value always fails that check, so a
  NIL patch clears ``tsorted`` too.  Head flags are untouched: patches
  rewrite tails only.  As with appends, the cleared flags can only
  disable optimizations, never change results.
"""

from __future__ import annotations

import zlib
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.monet.atoms import coerce_value
from repro.monet.bat import BAT, AnyColumn, Column, VoidColumn
from repro.monet.errors import KernelError

# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------


def _is_object_column(column: AnyColumn) -> bool:
    return not column.is_void and column.atom_type.dtype == np.dtype(object)


def _positions(count: int) -> np.ndarray:
    return np.arange(count, dtype=np.int64)


#: Sentinel equality key shared by every NIL of a column under the
#: identity rule (see the NIL semantics note in the module docstring).
NIL_KEY = ("\0nil",)


def nil_dedup_key(value: Any):
    """Hashable dedup key for a Python-level value: NaN (dbl NIL) and
    ``None`` normalize to one sentinel so NILs compare equal under the
    identity rule, while remaining distinct from every real value."""
    if value is None:
        return NIL_KEY
    if isinstance(value, float) and value != value:
        return NIL_KEY
    return value


def _float_dedup_keys(values: np.ndarray) -> np.ndarray:
    """Monotone IEEE-754 bit transform of float64 values to uint64:
    order is preserved, ``-0.0`` keys equal ``+0.0``, and every NaN
    (dbl NIL) collapses to one maximal key -- sortable *and*
    NIL-equals-NIL, which raw floats are not (NaN != NaN would defeat
    vectorized duplicate detection)."""
    finite = np.where(values == 0.0, 0.0, values)
    bits = finite.astype(np.float64, copy=False).view(np.uint64)
    keys = np.where(
        bits >> np.uint64(63) == 1, ~bits, bits | np.uint64(1 << 63)
    )
    return np.where(np.isnan(values), np.uint64(0xFFFFFFFFFFFFFFFF), keys)


def dedup_keys(column: AnyColumn) -> Optional[np.ndarray]:
    """Integer sort keys over a column's stored values for duplicate
    elimination: equal keys iff the values are duplicates under the
    identity rule, and key order is a valid sort order.  ``None`` for
    object (str) columns, which take the hash-based Python path."""
    if column.is_void:
        return np.arange(
            column.seqbase, column.seqbase + len(column), dtype=np.int64
        )
    if column.atom_type.dtype == np.dtype(object):
        return None
    values = column.materialize()
    if values.dtype.kind == "f":
        return _float_dedup_keys(values)
    return values.astype(np.int64, copy=False)


def first_occurrences(*keys: np.ndarray) -> np.ndarray:
    """Positions of the first row of every distinct key combination,
    ascending -- the vectorized core of ``unique``/``kunique``
    (lexsort + block-boundary detection instead of a per-BUN Python
    loop).  Shared with the fragmented kernel, which applies it per
    fragment before its cross-fragment merge."""
    n = len(keys[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort(tuple(reversed(keys)))
    new_block = np.zeros(n, dtype=bool)
    new_block[0] = True
    for key in keys:
        sorted_key = key[order]
        new_block[1:] |= sorted_key[1:] != sorted_key[:-1]
    return np.sort(order[new_block])


#: Identity-rule key of a dbl NIL under :func:`_float_dedup_keys`: all
#: NaNs collapse to this maximal uint64, which no finite or infinite
#: float maps to (it would need the 0x7FF..F bit pattern, itself a NaN).
DBL_NIL_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)


def set_keyspace(*columns: AnyColumn) -> str:
    """The common key domain for set membership across *columns*:
    ``'object'`` when any column is object (str) dtype, ``'dbl'`` when
    any is float (numeric widening, like the join family), ``'int'``
    otherwise.  Probe and build sides must share one keyspace or their
    keys would not be comparable (int64 vs float-bit keys)."""
    if any(_is_object_column(column) for column in columns):
        return "object"
    if any(
        not column.is_void and column.atom_type.dtype.kind == "f"
        for column in columns
    ):
        return "dbl"
    return "int"


def member_keys(column: AnyColumn, keyspace: str):
    """Identity-rule membership keys of a column's stored values in
    *keyspace*: equal keys iff the values are one set element under the
    identity rule (all NILs collapse to one key, ``-0.0 == +0.0``).
    ``'object'`` yields a list of hashables (:func:`nil_dedup_key`),
    the numeric keyspaces an integer array."""
    if keyspace == "object":
        values = column.materialize()
        return [nil_dedup_key(value) for value in values.tolist()]
    values = column.materialize()
    if keyspace == "dbl":
        return _float_dedup_keys(values.astype(np.float64, copy=False))
    return values.astype(np.int64, copy=False)


def build_member_set(keys, keyspace: str):
    """One-time membership structure over build-side *keys*, probe-able
    via :func:`probe_member_set`.  Separated from the probe so
    fragmented execution builds it once (combining per-fragment key
    arrays) and shares it across probe fragments and across the set
    operators probing the same side."""
    if keyspace == "object":
        return set(keys)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64 if keyspace == "int" else np.uint64)
    return np.unique(keys)


def probe_member_set(
    keys, members, keyspace: str, *, nil_member: bool
) -> np.ndarray:
    """Boolean mask: which probe *keys* occur in *members*.

    ``nil_member=True`` is the identity rule (the set operators): a NIL
    probe is a member of a NIL-containing set, because all NILs are one
    value.  ``nil_member=False`` is the comparison rule (semijoin /
    kdiff): NIL is never a member, not even of a NIL-containing set,
    so NIL probes are masked out.  Int/oid NIL sentinels are ordinary
    integers under both rules (they always equaled themselves)."""
    if keyspace == "object":
        mask = np.fromiter(
            (key in members for key in keys), dtype=bool, count=len(keys)
        )
        if not nil_member and len(keys):
            mask &= np.fromiter(
                (key != NIL_KEY for key in keys), dtype=bool, count=len(keys)
            )
        return mask
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    mask = np.isin(keys, members)
    if not nil_member and keyspace == "dbl":
        mask &= keys != DBL_NIL_KEY
    return mask


def member_mask(
    values: AnyColumn, lookup: AnyColumn, *, nil_member: bool
) -> np.ndarray:
    """Membership mask of *values*' stored values in *lookup*'s, under
    the identity rule (``nil_member=True``; ``kunion``/``kintersect``)
    or the comparison rule (``nil_member=False``; semijoin/kdiff).
    The monolithic composition of :func:`set_keyspace` /
    :func:`member_keys` / :func:`build_member_set` /
    :func:`probe_member_set`; fragmented execution uses the pieces."""
    keyspace = set_keyspace(values, lookup)
    members = build_member_set(member_keys(lookup, keyspace), keyspace)
    return probe_member_set(
        member_keys(values, keyspace), members, keyspace, nil_member=nil_member
    )


# ----------------------------------------------------------------------
# Sample-sort partitioning helpers
#
# Shared by the fragment-parallel merge phase of sort: pick pivots from
# key-sorted runs, cut every run at the pivots, and each inter-pivot
# range becomes one independently mergeable output partition.
# ----------------------------------------------------------------------


def partition_keys(values: np.ndarray) -> np.ndarray:
    """Total-order integer keys for range-partitioning sorted runs: a
    monotone image of the kernel sort order (NaN last, ``-0.0`` equals
    ``+0.0``) with no NaN in the key domain, so pivot selection and
    ``searchsorted`` cuts are well-defined for every dtype.  For
    integer dtypes this is the identity (a view, not a copy)."""
    if values.dtype.kind == "f":
        return _float_dedup_keys(values)
    return values.astype(np.int64, copy=False)


def pivot_sample_positions(
    run_length: int, partitions: int, *, oversample: int = 4
) -> Optional[np.ndarray]:
    """Regularly spaced sample positions for one sorted run of
    *run_length* entries, or ``None`` when the run is small enough to
    contribute every entry.  One scheme shared by the numeric and the
    object (tuple-keyed) sample-sort paths, so tuning the oversampling
    cannot make them drift apart."""
    per_run = oversample * partitions
    if run_length <= per_run:
        return None
    return np.linspace(0, run_length - 1, per_run).astype(np.int64)


def pivot_quantile_positions(pool_size: int, partitions: int) -> np.ndarray:
    """Positions of the *partitions* - 1 pivot quantiles in a sorted
    sample pool of *pool_size* entries (endpoints excluded)."""
    return np.linspace(0, pool_size, partitions + 1).astype(np.int64)[1:-1]


def sample_pivots(
    runs: "list[np.ndarray]", partitions: int, *, oversample: int = 4
) -> np.ndarray:
    """Pivot keys splitting key-sorted *runs* into at most *partitions*
    ranges of near-equal total size: every run contributes regularly
    spaced samples, the combined sample sorts, and the quantiles become
    pivots (classic sample-sort).  Returns <= partitions - 1 ascending
    distinct keys; degenerate inputs (all-equal keys) dedupe to fewer
    pivots -- possibly none -- which simply yields fewer, larger
    partitions (correct, just less parallel)."""
    if partitions <= 1:
        return np.empty(0, dtype=np.int64)
    samples = []
    for keys in runs:
        if len(keys) == 0:
            continue
        picks = pivot_sample_positions(len(keys), partitions, oversample=oversample)
        samples.append(keys if picks is None else keys[picks])
    if not samples:
        return np.empty(0, dtype=np.int64)
    pool = np.sort(np.concatenate(samples))
    return np.unique(pool[pivot_quantile_positions(len(pool), partitions)])


def run_cut_points(keys: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Partition boundaries of one key-sorted run at *pivots*
    (``side='left'``): cut ``i`` starts partition ``i + 1``.  Equal
    keys land at or after their pivot's cut in *every* run, so a key
    value never straddles a partition boundary -- the per-partition
    merges can then restore the global tie-break by BUN position."""
    return np.searchsorted(keys, pivots, side="left")


def build_match_index(build: np.ndarray, object_dtype: bool):
    """One-time index over a join build side, probe-able via
    :func:`probe_match_index`.  Separated from the probe so fragmented
    execution builds it once and shares it across probe fragments.

    Numeric dtypes index by stable sort; object (string) dtypes by a
    dict of positions.  NIL build values (``None`` for str) are left out
    of the index: NIL never joins, not even with another NIL (Monet
    semantics; dbl NIL -- NaN -- is excluded on the probe side instead).
    """
    if object_dtype:
        index: dict = {}
        for position, value in enumerate(build):
            if value is None:
                continue
            index.setdefault(value, []).append(position)
        return index
    order = np.argsort(build, kind="stable")
    return order, build[order]


def probe_match_index(
    probe: np.ndarray, index, object_dtype: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_position, build_position) matches of probe values in
    an indexed build side, ordered by probe position (stable).

    NIL probes never match: ``None`` (str NIL) misses the index by
    construction, and NaN (dbl NIL) probes are masked out -- a sorted
    build side puts its NaNs in one trailing block, which a vectorized
    ``searchsorted`` NaN probe would otherwise "equal", diverging from
    Monet's NIL-never-equals-NIL rule.
    """
    if len(probe) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if object_dtype:
        probe_positions = []
        build_positions = []
        for position, value in enumerate(probe):
            if value is None:
                continue
            hits = index.get(value)
            if hits:
                probe_positions.extend([position] * len(hits))
                build_positions.extend(hits)
        return (
            np.asarray(probe_positions, dtype=np.int64),
            np.asarray(build_positions, dtype=np.int64),
        )
    order, build_sorted = index
    lo = np.searchsorted(build_sorted, probe, side="left")
    hi = np.searchsorted(build_sorted, probe, side="right")
    counts = hi - lo
    if probe.dtype.kind == "f":
        counts[np.isnan(probe)] = 0
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_positions = np.repeat(_positions(len(probe)), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    sorted_positions = np.repeat(lo, counts) + intra
    build_positions = order[sorted_positions]
    return probe_positions, build_positions


def _match_positions(
    probe: np.ndarray, build: np.ndarray, object_dtype: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_position, build_position) matches of probe values in
    build values, ordered by probe position (stable)."""
    if len(probe) == 0 or len(build) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return probe_match_index(probe, build_match_index(build, object_dtype), object_dtype)


def join_keys(column: AnyColumn, keyspace: str) -> Tuple[np.ndarray, np.ndarray]:
    """Comparison-rule join keys of *column*'s values in *keyspace*,
    plus the mask of non-NIL entries.

    NIL keys never join (see the NIL-semantics note in the module
    docstring), so the grace hash join drops masked-out BUNs *before*
    radix partitioning.  The ``"object"`` keyspace returns the raw
    value array (the dict match index consumes values directly); the
    numeric keyspaces return :func:`partition_keys`-style monotone
    transforms widened to the common keyspace, so an int column joined
    against a dbl column partitions and compares in one key domain.
    """
    values = column.materialize()
    if keyspace == "object":
        valid = np.fromiter(
            (value is not None for value in values), dtype=bool, count=len(values)
        )
        return values, valid
    if keyspace == "dbl":
        floats = values.astype(np.float64, copy=False)
        return _float_dedup_keys(floats), ~np.isnan(floats)
    return values.astype(np.int64, copy=False), np.ones(len(values), dtype=bool)


#: Fibonacci-golden-ratio multiplier scattering radix partition ids:
#: consecutive or stride-patterned key ranges (dense oids, foreign-key
#: blocks) spread evenly over any fanout instead of filling partitions
#: one at a time.
_RADIX_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def join_partition_ids(keys: np.ndarray, fanout: int, object_dtype: bool) -> np.ndarray:
    """Radix partition id (``0 .. fanout-1``) of every join key.

    Numeric keys mix through a Fibonacci multiplier before the modulo;
    object (str) keys hash with ``zlib.crc32`` over their UTF-8 bytes,
    which -- unlike Python's per-process randomized ``hash()`` -- is
    deterministic across interpreter runs.  NIL entries get partition
    0; callers drop them beforehand via the :func:`join_keys` mask.
    """
    n = len(keys)
    if fanout <= 1:
        return np.zeros(n, dtype=np.int64)
    if object_dtype:
        # str(value) is the identity for str keys; mixed-type probes
        # (e.g. outerjoin's unchecked operands) hash deterministically
        # instead of crashing, and never match the str build anyway.
        return np.fromiter(
            (
                0
                if value is None
                else zlib.crc32(str(value).encode("utf-8", "surrogatepass")) % fanout
                for value in keys
            ),
            dtype=np.int64,
            count=n,
        )
    unsigned = keys.view(np.uint64) if keys.dtype == np.dtype(np.int64) else keys
    mixed = unsigned.astype(np.uint64, copy=False) * _RADIX_MULTIPLIER
    return (mixed % np.uint64(fanout)).astype(np.int64)


def join_partition_positions(
    column: AnyColumn, keyspace: str, fanout: int
) -> List[np.ndarray]:
    """Grace-join radix split of one fragment: the fragment's local BUN
    positions grouped by join-key partition, NIL keys dropped up front
    (comparison rule)."""
    keys, valid = join_keys(column, keyspace)
    positions = np.nonzero(valid)[0].astype(np.int64)
    ids = join_partition_ids(keys, fanout, keyspace == "object")[positions]
    return [positions[ids == partition] for partition in range(fanout)]


# ----------------------------------------------------------------------
# Selections
# ----------------------------------------------------------------------

#: Distinguishes "no high bound given" (equality select) from an
#: explicit ``high=None`` (open-ended range select).
_UNSET = object()


def select(
    bat: BAT,
    low: Any,
    high: Any = _UNSET,
    *,
    include_low: bool = True,
    include_high: bool = True,
) -> BAT:
    """BUNs of *bat* whose tail satisfies the predicate.

    ``select(b, v)`` is equality selection; ``select(b, lo, hi)`` is an
    inclusive range (bound inclusion controlled by the keyword flags;
    a ``None`` bound means unbounded on that side).
    """
    if high is _UNSET:
        return _select_equal(bat, low)
    return _select_range(bat, low, high, include_low, include_high)


def equal_mask(bat: BAT, value: Any) -> np.ndarray:
    """Boolean mask of BUNs whose tail equals *value* (the predicate of
    the equality :func:`select`, reusable by fragmented execution)."""
    if value is _UNSET:
        raise KernelError("select needs a value or range")
    if len(bat) == 0:
        return np.zeros(0, dtype=bool)
    tails = bat.tail_values()
    if _is_object_column(bat.tail):
        return np.fromiter((t == value for t in tails), dtype=bool, count=len(tails))
    coerced = coerce_value(value, bat.tail.atom_type)
    return tails == coerced


def range_mask(
    bat: BAT,
    low: Any,
    high: Any,
    include_low: bool = True,
    include_high: bool = True,
) -> np.ndarray:
    """Boolean mask of BUNs whose tail lies in the given range (the
    predicate of the range :func:`select`)."""
    if len(bat) == 0:
        return np.zeros(0, dtype=bool)
    tails = bat.tail_values()
    if _is_object_column(bat.tail):
        mask = np.ones(len(tails), dtype=bool)
        for position, value in enumerate(tails):
            if value is None:
                mask[position] = False
                continue
            if low is not None:
                if include_low and not (value >= low):
                    mask[position] = False
                elif not include_low and not (value > low):
                    mask[position] = False
            if mask[position] and high is not None:
                if include_high and not (value <= high):
                    mask[position] = False
                elif not include_high and not (value < high):
                    mask[position] = False
        return mask
    mask = np.ones(len(tails), dtype=bool)
    if low is not None:
        low_c = coerce_value(low, bat.tail.atom_type)
        mask &= (tails >= low_c) if include_low else (tails > low_c)
    if high is not None:
        high_c = coerce_value(high, bat.tail.atom_type)
        mask &= (tails <= high_c) if include_high else (tails < high_c)
    return mask


def like_mask(bat: BAT, pattern: str) -> np.ndarray:
    """Boolean mask of BUNs whose str tail contains *pattern*."""
    if bat.ttype != "str":
        raise KernelError("likeselect requires a str tail")
    tails = bat.tail_values()
    return np.fromiter(
        (t is not None and pattern in t for t in tails), dtype=bool, count=len(tails)
    )


def semijoin_mask(left: BAT, right: BAT) -> np.ndarray:
    """Boolean mask of left BUNs whose head occurs among right's heads
    (shared predicate of :func:`semijoin` and :func:`kdiff`)."""
    if right.hdense:
        heads = left.head_values()
        return (heads >= right.head.seqbase) & (
            heads < right.head.seqbase + len(right)
        )
    return member_mask(left.head, right.head, nil_member=False)


def _select_equal(bat: BAT, value: Any) -> BAT:
    return bat.take_positions(np.nonzero(equal_mask(bat, value))[0])


def _select_range(
    bat: BAT, low: Any, high: Any, include_low: bool, include_high: bool
) -> BAT:
    return bat.take_positions(
        np.nonzero(range_mask(bat, low, high, include_low, include_high))[0]
    )


def uselect(bat: BAT, low: Any, high: Any = _UNSET, **flags) -> BAT:
    """Like :func:`select` but the result tail is void (head-set result).

    Monet uses ``uselect`` when only the qualifying heads matter; the
    caller typically follows with ``.mirror()`` and a join.
    """
    if high is _UNSET:
        selected = _select_equal(bat, low)
    else:
        selected = _select_range(
            bat,
            low,
            high,
            flags.get("include_low", True),
            flags.get("include_high", True),
        )
    return BAT(
        selected.head,
        VoidColumn(0, len(selected)),
        hsorted=selected.hsorted,
        hkey=selected.hkey,
    )


def likeselect(bat: BAT, pattern: str) -> BAT:
    """Substring selection on string tails (Monet's ``likeselect`` with a
    ``%pattern%`` shape)."""
    return bat.take_positions(np.nonzero(like_mask(bat, pattern))[0])


# ----------------------------------------------------------------------
# Join family
# ----------------------------------------------------------------------


def check_join_types(tail_type: str, head_type: str) -> None:
    """Reject un-joinable column types (numeric widening is allowed);
    shared by the monolithic and fragmented join paths."""
    if tail_type != head_type and {tail_type, head_type} - {"int", "oid", "dbl"}:
        raise KernelError(
            f"join type mismatch: left tail {tail_type} vs right head {head_type}"
        )


def join(left: BAT, right: BAT) -> BAT:
    """Natural join on ``left.tail = right.head`` -> [left.head, right.tail].

    Equivalent to Monet's ``join``; preserves left BUN order (stable),
    which makes it double as ``leftjoin``.  When the right head is void
    the join degenerates to a positional fetch (``fetchjoin``).
    """
    check_join_types(left.ttype, right.htype)
    if right.hdense:
        return fetchjoin(left, right)
    probe = left.tail_values()
    build = right.head_values()
    probe_positions, build_positions = _match_positions(
        probe, build, _is_object_column(left.tail) or _is_object_column(right.head)
    )
    head = left.head.take(probe_positions)
    tail = right.tail.take(build_positions)
    return BAT(head, tail, hkey=left.hkey and right.hkey)


def fetchjoin(left: BAT, right: BAT) -> BAT:
    """Positional join: right must have a void (dense) head."""
    if not right.hdense:
        raise KernelError("fetchjoin requires a void-headed right operand")
    tails = left.tail_values()
    positions = tails - right.head.seqbase
    valid = (positions >= 0) & (positions < len(right))
    kept = np.nonzero(valid)[0]
    head = left.head.take(kept)
    tail = right.tail.take(positions[valid])
    return BAT(head, tail, hkey=left.hkey)


def outerjoin_parts(left: BAT, right: BAT) -> Tuple[np.ndarray, Column]:
    """The (left BUN positions, tail column) of the left outer join in
    output order.  Exposed separately so fragmented execution can map
    result rows back to their left rows (for round-robin position
    bookkeeping); :func:`outerjoin` is the plain packaging.

    NIL probes (NaN/None left tails) never match and therefore survive
    with NIL tails, like any other unmatched left BUN.
    """
    probe = left.tail_values()
    if right.hdense:
        positions = probe - right.head.seqbase
        valid = (positions >= 0) & (positions < len(right))
        probe_positions = np.nonzero(valid)[0]
        build_positions = positions[valid]
    else:
        build = right.head_values()
        probe_positions, build_positions = _match_positions(
            probe, build, _is_object_column(left.tail) or _is_object_column(right.head)
        )
    matched = np.zeros(len(left), dtype=bool)
    matched[probe_positions] = True
    unmatched = np.nonzero(~matched)[0]
    atom_type = right.tail.atom_type
    matched_tail = right.tail.take(build_positions).materialize()
    nil_tail = atom_type.make_array([None] * len(unmatched))
    all_positions = np.concatenate((probe_positions, unmatched))
    order = np.argsort(all_positions, kind="stable")
    if len(matched_tail) == 0 and len(nil_tail) == 0:
        combined = atom_type.make_array([])
    else:
        combined = np.concatenate((matched_tail, nil_tail))
    return all_positions[order], Column(atom_type, combined[order])


def outerjoin(left: BAT, right: BAT) -> BAT:
    """Left outer join: unmatched left BUNs survive with NIL tails."""
    left_positions, tail = outerjoin_parts(left, right)
    head = left.head.take(left_positions)
    return BAT(head, tail, hkey=left.hkey and right.hkey)


def semijoin(left: BAT, right: BAT) -> BAT:
    """BUNs of *left* whose **head** occurs among *right*'s heads
    (Monet ``semijoin``)."""
    return left.take_positions(np.nonzero(semijoin_mask(left, right))[0])


def kdiff(left: BAT, right: BAT) -> BAT:
    """BUNs of *left* whose head does **not** occur in *right*'s heads
    (Monet ``kdiff``; the anti-semijoin)."""
    return left.take_positions(np.nonzero(~semijoin_mask(left, right))[0])


def kintersect(left: BAT, right: BAT) -> BAT:
    """BUNs of *left* whose head occurs among *right*'s heads, under
    the **identity** NIL rule: a NIL head is kept when *right* also has
    a NIL head (all NILs are one set element; see the module
    docstring).  This is what distinguishes it from :func:`semijoin`,
    which follows the comparison rule (NIL matches nothing)."""
    mask = member_mask(left.head, right.head, nil_member=True)
    return left.take_positions(np.nonzero(mask)[0])


def check_kunion_types(left: BAT, right: BAT) -> None:
    """Reject un-unionable operands: ``kunion`` concatenates both
    sides' columns under the *left* atom types, so mismatched types
    would silently reinterpret right-side values (e.g. dbl heads
    truncated into an int column).  Shared by the monolithic and
    fragmented paths."""
    if left.htype != right.htype or left.ttype != right.ttype:
        raise KernelError(
            f"kunion type mismatch: [{left.htype},{left.ttype}] vs "
            f"[{right.htype},{right.ttype}]"
        )


def kunion(left: BAT, right: BAT) -> BAT:
    """*left* plus those BUNs of *right* whose head is not in *left*.

    Head membership follows the **identity** NIL rule: a NIL-headed
    right BUN is already "seen" when *left* has any NIL head, so unions
    never duplicate the NIL head (matching ``kunique``, whose output is
    the canonical head set these operators work on)."""
    check_kunion_types(left, right)
    mask = member_mask(right.head, left.head, nil_member=True)
    extra = right.take_positions(np.nonzero(~mask)[0])
    if len(extra) == 0:
        return left
    head = Column(
        left.head.atom_type,
        _concat_arrays(left.head_values(), extra.head_values(), left.head.atom_type),
    )
    tail = Column(
        left.tail.atom_type,
        _concat_arrays(left.tail_values(), extra.tail_values(), left.tail.atom_type),
    )
    return BAT(head, tail, hkey=left.hkey and right.hkey)


def _concat_arrays(a: np.ndarray, b: np.ndarray, atom_type) -> np.ndarray:
    if atom_type.dtype == np.dtype(object):
        out = np.empty(len(a) + len(b), dtype=object)
        out[: len(a)] = a
        out[len(a):] = b
        return out
    return np.concatenate((a, b))


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------


def mark(bat: BAT, base: int = 0) -> BAT:
    """Replace the tail by a fresh dense oid sequence starting at *base*
    (Monet ``mark``) -- the standard way to mint intermediate oids."""
    return BAT(
        bat.head,
        VoidColumn(base, len(bat)),
        hsorted=bat.hsorted,
        hkey=bat.hkey,
    )


def number(bat: BAT, base: int = 0) -> BAT:
    """Replace the head by a fresh dense oid sequence (``mark`` flipped)."""
    return BAT(
        VoidColumn(base, len(bat)),
        bat.tail,
        tsorted=bat.tsorted,
        tkey=bat.tkey,
    )


def sort(bat: BAT) -> BAT:
    """Stable sort on head values (Monet ``sort``)."""
    if bat.hsorted:
        return bat
    heads = bat.head_values()
    if _is_object_column(bat.head):
        order = np.asarray(
            sorted(range(len(heads)), key=lambda i: (heads[i] is None, heads[i])),
            dtype=np.int64,
        )
    else:
        order = np.argsort(heads, kind="stable")
    result = bat.take_positions(order)
    return BAT(result.head, result.tail, hsorted=True, hkey=bat.hkey, tkey=bat.tkey)


def tsort(bat: BAT) -> BAT:
    """Stable sort on tail values (``reverse().sort().reverse()``)."""
    return sort(bat.reverse()).reverse()


def unique(bat: BAT) -> BAT:
    """Duplicate BUN elimination; keeps the first occurrence, preserves
    first-seen order (Monet ``unique``).  NILs dedupe under the
    identity rule (one NaN/None survives; see the module docstring)."""
    if bat.hkey or bat.tkey:
        return bat
    head_keys = dedup_keys(bat.head)
    tail_keys = dedup_keys(bat.tail)
    if head_keys is None or tail_keys is None:
        # Object (str) columns: hash-based first-seen scan.
        seen = set()
        keep = []
        for position, (head, tail) in enumerate(bat.items()):
            key = (nil_dedup_key(head), nil_dedup_key(tail))
            if key not in seen:
                seen.add(key)
                keep.append(position)
        return bat.take_positions(np.asarray(keep, dtype=np.int64))
    return bat.take_positions(first_occurrences(head_keys, tail_keys))


def kunique(bat: BAT) -> BAT:
    """Duplicate *head* elimination; first BUN per head wins.  NIL
    heads dedupe under the identity rule (one survives)."""
    if bat.hkey:
        return bat
    head_keys = dedup_keys(bat.head)
    if head_keys is None:
        seen = set()
        keep = []
        for position, value in enumerate(bat.head_values()):
            key = nil_dedup_key(value)
            if key not in seen:
                seen.add(key)
                keep.append(position)
        positions = np.asarray(keep, dtype=np.int64)
    else:
        positions = first_occurrences(head_keys)
    result = bat.take_positions(positions)
    return BAT(result.head, result.tail, hsorted=result.hsorted, hkey=True,
               tkey=result.tkey)


def tunique(bat: BAT) -> BAT:
    """Duplicate *tail* elimination; first BUN per tail wins."""
    return kunique(bat.reverse()).reverse()


def slice_bat(bat: BAT, start: int, stop: int) -> BAT:
    """Positional BUN range [start, stop) (Monet ``slice``)."""
    return bat.slice(start, stop)


def const_bat(head_like: BAT, atom_name: str, value: Any) -> BAT:
    """[head_like.head, constant] -- Monet's ``project`` (constant tail)."""
    from repro.monet.bat import column_from_values

    tail = column_from_values(atom_name, [value] * len(head_like))
    return BAT(head_like.head, tail, hsorted=head_like.hsorted, hkey=head_like.hkey)


def exist(bat: BAT, head_value: Any) -> bool:
    """Monet ``exist``: membership test on head values."""
    return bat.exists(head_value)


def _topn_sort_keys(tails: np.ndarray, descending: bool) -> np.ndarray:
    """Total-order uint64 sort keys for top-n selection: ascending key
    order is the requested tail order with NILs kept where the raw
    comparisons put them (NaN last in both directions, the int/oid
    sentinels at their numeric extremes).  A total order -- no NaN in
    the key domain -- is what makes the boundary-tie handling below
    exact."""
    keys = partition_keys(tails)
    if keys.dtype != np.uint64:
        # int64 order -> uint64 order by flipping the sign bit.
        keys = keys.view(np.uint64) ^ np.uint64(1 << 63)
    if descending:
        keys = ~keys
        if tails.dtype.kind == "f":
            # NaN (dbl NIL) sorts last under either direction.
            keys[np.isnan(tails)] = np.uint64(0xFFFFFFFFFFFFFFFF)
    return keys


def topn_positions(bat: BAT, n: int, *, descending: bool = True) -> np.ndarray:
    """BUN positions of the top-*n* BUNs by tail, in result order.
    Exposed separately so fragmented execution can run the per-fragment
    candidate selection and keep position bookkeeping.

    Ties on the tail break by BUN position (earlier first) -- including
    **membership** at the selection boundary: among BUNs tied at the
    n-th value, the earliest positions win the remaining slots.  (A
    bare ``argpartition`` would keep an arbitrary subset of the tied
    BUNs, which monolithic and fragmented execution could disagree on;
    the randomized MIL fuzzer caught exactly that.)"""
    if n < 0:
        raise KernelError("topn needs a non-negative n")
    tails = bat.tail_values()
    if _is_object_column(bat.tail):
        order = np.asarray(
            sorted(range(len(tails)), key=lambda i: (tails[i] is None, tails[i])),
            dtype=np.int64,
        )
        if descending:
            order = order[::-1]
        return order[:n]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    count = len(tails)
    keys = _topn_sort_keys(tails, descending)
    if n >= count:
        order = np.lexsort((np.arange(count, dtype=np.int64), keys))
        return order[:n]
    candidates = np.argpartition(keys, n)[:n]
    boundary = keys[candidates].max()
    strict = np.nonzero(keys < boundary)[0]
    tied = np.nonzero(keys == boundary)[0][: n - len(strict)]
    chosen = np.concatenate((strict, tied))
    # Order the selected BUNs; equal keys break by BUN position.
    inner = np.lexsort((chosen, keys[chosen]))
    return chosen[inner]


def topn(bat: BAT, n: int, *, descending: bool = True) -> BAT:
    """First *n* BUNs after sorting by tail (descending by default).

    Not a classical Monet primitive but the standard idiom
    ``b.reverse.sort.reverse.slice(0, n)``, packaged because every IR
    query ends with it.  Numeric tails use a partial sort
    (``argpartition``): O(count + n log n) instead of a full sort.
    """
    return bat.take_positions(topn_positions(bat, n, descending=descending))
