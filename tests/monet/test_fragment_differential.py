"""Differential kernel testing: fragmented vs monolithic vs naive.

For a seeded population of randomized BATs (numeric + object dtypes,
NILs, duplicates, empty inputs) this suite asserts, operator by
operator:

1. the monolithic kernel matches a naive pure-Python reference
   evaluated over the *stored* column values (NIL sentinels included,
   so sentinel arithmetic is part of the contract), and
2. fragmented execution over >= 3 fragments (both range and
   round-robin splits) is BUN-for-BUN identical to the monolithic
   kernel, and
3. the property flags of every produced BAT are *sound* (a flag is
   only ever True when the property actually holds).

Scalar/grouped double aggregates compare with a tiny tolerance: the
fragmented variants combine partial sums, which is equivalent only up
to floating-point addition order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.monet import aggregates as agg
from repro.monet import fragments as fr
from repro.monet import kernel
from repro.monet.bat import BAT, Column, VoidColumn
from repro.monet.fragments import FragmentationPolicy, FragmentedBAT, fragment_bat
from repro.monet.groups import group

N_CASES = 60
STRATEGIES = ("range", "roundrobin")
#: Seed ids of the suites that once also ran a second executor backend
#: keep their ``thread-`` prefix, so recorded test ids stay comparable.
THREAD_SEED_IDS = [f"thread-{seed}" for seed in range(N_CASES)]


# ----------------------------------------------------------------------
# Randomized BAT generation
# ----------------------------------------------------------------------


def _random_bat(rng: np.random.Generator, ttype: str, *, nils: bool = True) -> BAT:
    """A random void-headed BAT; sizes include empty and tiny inputs."""
    n = int(rng.choice([0, 1, 2, 3, 17, 64, 65, 120, 200]))
    seqbase = int(rng.integers(0, 5))
    if ttype == "int":
        values = rng.integers(-20, 20, n).astype(np.int64)
        if nils and n:
            values[rng.random(n) < 0.1] = np.iinfo(np.int64).min
        tail = Column("int", values)
    elif ttype == "oid":
        values = rng.integers(0, 40, n).astype(np.int64)
        tail = Column("oid", values)
    elif ttype == "dbl":
        values = np.round(rng.random(n) * 10, 3)
        if nils and n:
            values[rng.random(n) < 0.1] = np.nan
        tail = Column("dbl", values)
    elif ttype == "str":
        words = ["ape", "bat", "cat", "dog", "eel", "fox", "gnu", "owl"]
        values = np.empty(n, dtype=object)
        for i in range(n):
            if nils and rng.random() < 0.1:
                values[i] = None
            else:
                values[i] = str(rng.choice(words)) + ("x" if rng.random() < 0.3 else "")
        tail = Column("str", values)
    else:  # pragma: no cover - test config error
        raise ValueError(ttype)
    return BAT(VoidColumn(seqbase, n), tail)


def _random_nonvoid_head_bat(rng: np.random.Generator, n: int) -> BAT:
    """A BAT with a materialized (duplicate-rich) oid head."""
    heads = rng.integers(0, max(1, n // 2), n).astype(np.int64)
    tails = rng.integers(-5, 5, n).astype(np.int64)
    return BAT(Column("oid", heads), Column("int", tails))


def _fragment(bat: BAT, strategy: str) -> FragmentedBAT:
    """Split into >= 3 fragments whenever the input has >= 3 BUNs.

    Pinning ``workers=2`` forces the thread-pool fan-out even for tiny
    inputs (which would otherwise take the serial shortcut), so the
    differential comparison covers the parallel code path.
    """
    target = max(1, -(-len(bat) // 4))  # ceil(n/4) -> 4 fragments
    return fragment_bat(
        bat, FragmentationPolicy(target_size=target, strategy=strategy, workers=2)
    )


# ----------------------------------------------------------------------
# Naive pure-Python references (over stored values)
# ----------------------------------------------------------------------


def _raw_pairs(bat: BAT):
    return list(zip(bat.head_values().tolist(), bat.tail_values().tolist()))


def _ref_select_range(pairs, low, high, include_low, include_high):
    out = []
    for h, t in pairs:
        if t is None:
            continue
        if isinstance(t, float) and math.isnan(t):
            continue
        ok = True
        if low is not None:
            ok = t >= low if include_low else t > low
        if ok and high is not None:
            ok = t <= high if include_high else t < high
        if ok:
            out.append((h, t))
    return out


def _ref_select_equal(pairs, value):
    return [(h, t) for h, t in pairs if t is not None and t == value]


def _ref_likeselect(pairs, pattern):
    return [(h, t) for h, t in pairs if t is not None and pattern in t]


def _ref_fetchjoin(pairs, right_seqbase, right_tails):
    out = []
    for h, t in pairs:
        position = t - right_seqbase
        if 0 <= position < len(right_tails):
            out.append((h, right_tails[position]))
    return out


def _is_nil(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _ref_join(pairs, right_pairs):
    """NIL (None/NaN) never joins, not even with itself -- Monet
    semantics, asserted since the kernel drops NIL probes/builds."""
    out = []
    for h, t in pairs:
        if _is_nil(t):
            continue
        for rh, rt in right_pairs:
            if _is_nil(rh):
                continue
            if t == rh:
                out.append((h, rt))
    return out


def _ref_semijoin(pairs, right_heads):
    members = set(right_heads)
    return [(h, t) for h, t in pairs if h in members]


def _ref_antijoin(pairs, right_heads):
    members = set(right_heads)
    return [(h, t) for h, t in pairs if h not in members]


def _ref_mark(pairs, base):
    return [(h, base + i) for i, (h, _) in enumerate(pairs)]


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def assert_pairs_equal(result: BAT, expected) -> None:
    got = _raw_pairs(result)
    assert len(got) == len(expected), f"{len(got)} BUNs, expected {len(expected)}"
    for position, (g, e) in enumerate(zip(got, expected)):
        assert _same_value(g[0], e[0]) and _same_value(g[1], e[1]), (
            f"BUN {position}: got {g}, expected {e}"
        )


def assert_flags_sound(bat: BAT) -> None:
    """Every True property flag must actually hold.

    Sortedness is judged under the kernel's ordering of stored values:
    NaN (dbl NIL) and ``None`` (str NIL) sort last, the int NIL
    sentinel is just a very negative number."""
    heads = bat.head_values().tolist()
    tails = bat.tail_values().tolist()

    def sort_key(value):
        if value is None:
            return (1, "")
        if isinstance(value, float) and math.isnan(value):
            return (1, 0.0)
        return (0, value)

    def nondecreasing(vals):
        try:
            return all(
                sort_key(a) <= sort_key(b) for a, b in zip(vals, vals[1:])
            )
        except TypeError:
            return False

    if bat.hsorted:
        assert nondecreasing(heads), "hsorted flag on unsorted head"
    if bat.tsorted:
        assert nondecreasing(tails), "tsorted flag on unsorted tail"
    if bat.hkey:
        assert len(set(map(repr, heads))) == len(heads), "hkey flag with dup heads"
    if bat.tkey:
        assert len(set(map(repr, tails))) == len(tails), "tkey flag with dup tails"
    if bat.hdense:
        assert bat.head.is_void


def _check_op(monolithic: BAT, reference, fragmented_results) -> None:
    """Full differential check for one operator application."""
    assert_pairs_equal(monolithic, reference)
    assert_flags_sound(monolithic)
    for result in fragmented_results:
        coalesced = result.to_bat()
        assert_pairs_equal(coalesced, reference)
        assert_flags_sound(coalesced)
        for fragment in result.fragments:
            assert_flags_sound(fragment)


# ----------------------------------------------------------------------
# The differential suites
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_CASES), ids=THREAD_SEED_IDS)
def test_select_family_differential(seed):
    rng = np.random.default_rng(seed)
    ttype = ("int", "dbl", "oid", "str")[seed % 4]
    bat = _random_bat(rng, ttype)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]

    if ttype == "str":
        value = "cat"
        _check_op(
            kernel.select(bat, value),
            _ref_select_equal(pairs, value),
            [fr.select(fb, value) for fb in fbs],
        )
        pattern = "a"
        _check_op(
            kernel.likeselect(bat, pattern),
            _ref_likeselect(pairs, pattern),
            [fr.likeselect(fb, pattern) for fb in fbs],
        )
        low, high = "b", "f"
    else:
        value = int(rng.integers(-20, 40)) if ttype != "dbl" else 3.0
        _check_op(
            kernel.select(bat, value),
            _ref_select_equal(pairs, value),
            [fr.select(fb, value) for fb in fbs],
        )
        low, high = (-5, 10) if ttype != "dbl" else (2.0, 7.5)
    include_low = bool(rng.integers(0, 2))
    include_high = bool(rng.integers(0, 2))
    _check_op(
        kernel.select(bat, low, high, include_low=include_low, include_high=include_high),
        _ref_select_range(pairs, low, high, include_low, include_high),
        [
            fr.select(fb, low, high, include_low=include_low, include_high=include_high)
            for fb in fbs
        ],
    )
    # Open-ended range on one side.
    _check_op(
        kernel.select(bat, low, None),
        _ref_select_range(pairs, low, None, True, True),
        [fr.select(fb, low, None) for fb in fbs],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_uselect_and_mark_differential(seed):
    rng = np.random.default_rng(100 + seed)
    bat = _random_bat(rng, "int")
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    selected = _ref_select_range(pairs, -10, 10, True, True)
    _check_op(
        kernel.uselect(bat, -10, 10),
        _ref_mark(selected, 0),
        [fr.uselect(fb, -10, 10) for fb in fbs],
    )
    base = int(rng.integers(0, 100))
    _check_op(
        kernel.mark(bat, base),
        _ref_mark(pairs, base),
        [fr.mark(fb, base) for fb in fbs],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_fetchjoin_differential(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.choice([0, 1, 40, 120]))
    left = BAT(VoidColumn(0, n), Column("oid", rng.integers(-3, 30, n)))
    right_seqbase = int(rng.integers(0, 4))
    right_n = int(rng.integers(0, 25))
    right = BAT(
        VoidColumn(right_seqbase, right_n),
        Column("dbl", np.round(rng.random(right_n), 3)),
    )
    pairs = _raw_pairs(left)
    right_tails = right.tail_values().tolist()
    _check_op(
        kernel.fetchjoin(left, right),
        _ref_fetchjoin(pairs, right_seqbase, right_tails),
        [fr.fetchjoin(_fragment(left, s), right) for s in STRATEGIES],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_join_differential(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.choice([0, 1, 30, 90]))
    if seed % 3 == 2:
        # Object-dtype (string) join, NILs (None) on both sides: the
        # dict index skips them, so NIL never matches NIL.
        words = ["ape", "bat", "cat", "dog", "eel"]
        probe_vals = np.empty(n, dtype=object)
        for i in range(n):
            probe_vals[i] = None if rng.random() < 0.15 else str(rng.choice(words))
        left = BAT(VoidColumn(0, n), Column("str", probe_vals))
        m = int(rng.integers(0, 12))
        build_vals = np.empty(m, dtype=object)
        for i in range(m):
            build_vals[i] = None if rng.random() < 0.15 else str(rng.choice(words))
        right = BAT(Column("str", build_vals), Column("int", rng.integers(0, 9, m)))
    elif seed % 3 == 1:
        # dbl join with NaN (dbl NIL) probes *and* builds: the
        # vectorized path must drop NaN probes (Monet: NIL != NIL).
        probe_vals = np.round(rng.random(n) * 8, 0)
        if n:
            probe_vals[rng.random(n) < 0.2] = np.nan
        left = BAT(VoidColumn(0, n), Column("dbl", probe_vals))
        m = int(rng.integers(0, 12))
        build_vals = np.round(rng.random(m) * 8, 0)
        if m:
            build_vals[rng.random(m) < 0.2] = np.nan
        right = BAT(Column("dbl", build_vals), Column("int", rng.integers(-4, 4, m)))
    else:
        left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 15, n)))
        m = int(rng.integers(0, 12))
        right = BAT(
            Column("oid", rng.integers(0, 15, m).astype(np.int64)),
            Column("int", rng.integers(-4, 4, m)),
        )
    pairs = _raw_pairs(left)
    right_pairs = _raw_pairs(right)
    _check_op(
        kernel.join(left, right),
        _ref_join(pairs, right_pairs),
        [fr.join(_fragment(left, s), right) for s in STRATEGIES],
    )


def test_nil_join_never_matches():
    """Monet NIL semantics: a dbl NIL (NaN) probe matches nothing, a
    NaN build value is unreachable, and an outer join NIL-pads the NaN
    probe like any unmatched BUN -- on the monolithic and the
    fragmented path alike."""
    left = BAT(VoidColumn(0, 4), Column("dbl", np.array([1.0, np.nan, 2.0, np.nan])))
    right = BAT(
        Column("dbl", np.array([np.nan, 1.0, np.nan])),
        Column("int", np.array([7, 8, 9], dtype=np.int64)),
    )
    assert kernel.join(left, right).to_pairs() == [(0, 8)]
    assert kernel.outerjoin(left, right).to_pairs() == [
        (0, 8), (1, None), (2, None), (3, None)
    ]
    for strategy in STRATEGIES:
        fb = _fragment(left, strategy)
        assert fr.join(fb, right).to_bat().to_pairs() == [(0, 8)]
        assert fr.outerjoin(fb, right).to_bat().to_pairs() == [
            (0, 8), (1, None), (2, None), (3, None)
        ]
    # str NIL (None) likewise never matches None.
    sleft = BAT(VoidColumn(0, 2), Column("str", np.array(["a", None], dtype=object)))
    sright = BAT(
        Column("str", np.array([None, "a"], dtype=object)),
        Column("int", np.array([1, 2], dtype=np.int64)),
    )
    assert kernel.join(sleft, sright).to_pairs() == [(0, 2)]
    assert kernel.outerjoin(sleft, sright).to_pairs() == [(0, 2), (1, None)]
    # Head membership (semijoin/kdiff) follows the same rule: a NIL
    # head is never a member, even of a NIL-containing right side.
    hleft = BAT(
        Column("str", np.array(["a", None, "b"], dtype=object)),
        Column("int", np.array([1, 2, 3], dtype=np.int64)),
    )
    hright = BAT(
        Column("str", np.array([None, "a"], dtype=object)),
        Column("int", np.array([0, 0], dtype=np.int64)),
    )
    assert kernel.semijoin(hleft, hright).to_pairs() == [("a", 1)]
    assert kernel.kdiff(hleft, hright).to_pairs() == [(None, 2), ("b", 3)]
    dleft = BAT(
        Column("dbl", np.array([1.0, np.nan])),
        Column("int", np.array([1, 2], dtype=np.int64)),
    )
    dright = BAT(
        Column("dbl", np.array([np.nan, 1.0])),
        Column("int", np.array([0, 0], dtype=np.int64)),
    )
    assert kernel.semijoin(dleft, dright).to_pairs() == [(1.0, 1)]
    assert kernel.kdiff(dleft, dright).head_list() == [None]


@pytest.mark.parametrize("seed", range(N_CASES))
def test_semijoin_antijoin_differential(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.choice([0, 1, 40, 130]))
    left = _random_nonvoid_head_bat(rng, n)
    if seed % 2:
        m = int(rng.integers(0, 20))
        right = BAT(
            Column("oid", rng.integers(0, max(1, n), m).astype(np.int64)),
            Column("int", rng.integers(0, 3, m)),
        )
        right_heads = right.head_values().tolist()
    else:
        seqbase = int(rng.integers(0, 5))
        m = int(rng.integers(0, 20))
        right = BAT(VoidColumn(seqbase, m), Column("int", rng.integers(0, 3, m)))
        right_heads = list(range(seqbase, seqbase + m))
    pairs = _raw_pairs(left)
    _check_op(
        kernel.semijoin(left, right),
        _ref_semijoin(pairs, right_heads),
        [fr.semijoin(_fragment(left, s), right) for s in STRATEGIES],
    )
    _check_op(
        kernel.kdiff(left, right),
        _ref_antijoin(pairs, right_heads),
        [fr.antijoin(_fragment(left, s), right) for s in STRATEGIES],
    )


@pytest.mark.parametrize("seed", range(N_CASES))
def test_scalar_aggregates_differential(seed):
    rng = np.random.default_rng(500 + seed)
    ttype = "int" if seed % 2 else "dbl"
    # NIL-free: int NILs are sentinel ints the kernel sums like any
    # number (covered elsewhere); dbl NaNs poison sums identically in
    # both paths but make tolerance comparison meaningless.
    bat = _random_bat(rng, ttype, nils=False)
    raw = bat.tail_values().tolist()
    fbs = [_fragment(bat, s) for s in STRATEGIES]

    ref_count = len(raw)
    ref_sum = sum(raw) if raw else (0.0 if ttype == "dbl" else 0)
    ref_min = min(raw) if raw else None
    ref_max = max(raw) if raw else None
    ref_avg = (sum(raw) / len(raw)) if raw else None

    assert agg.count(bat) == ref_count
    assert agg.max_(bat) == ref_max
    assert agg.min_(bat) == ref_min
    _assert_scalar_close(agg.sum_(bat), ref_sum)
    _assert_scalar_close(agg.avg(bat), ref_avg)
    for fb in fbs:
        assert fr.count(fb) == ref_count
        assert fr.max_(fb) == ref_max
        assert fr.min_(fb) == ref_min
        _assert_scalar_close(fr.sum_(fb), ref_sum)
        _assert_scalar_close(fr.avg(fb), ref_avg)


def _assert_scalar_close(got, expected):
    if expected is None or got is None:
        assert got is None and expected is None
    else:
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_grouped_aggregates_differential(seed):
    rng = np.random.default_rng(600 + seed)
    n = int(rng.choice([0, 1, 50, 160]))
    values = BAT(VoidColumn(0, n), Column("dbl", np.round(rng.random(n) * 5, 3)))
    keys = BAT(VoidColumn(0, n), Column("int", rng.integers(0, 12, n)))
    grouping = group(keys)

    # Naive per-group reference.
    members: dict = {}
    ids = grouping.tail_values().tolist()
    raw = values.tail_values().tolist()
    for gid, value in zip(ids, raw):
        members.setdefault(gid, []).append(value)
    size = max(ids) + 1 if ids else 0
    ref_sum = [sum(members.get(g, [0.0])) for g in range(size)]
    ref_count = [len(members.get(g, [])) for g in range(size)]
    ref_max = [max(members[g]) if g in members else None for g in range(size)]
    ref_min = [min(members[g]) if g in members else None for g in range(size)]
    ref_avg = [
        (sum(members[g]) / len(members[g])) if g in members else None
        for g in range(size)
    ]

    mono = {
        "sum": agg.grouped_sum(values, grouping),
        "count": agg.grouped_count(values, grouping),
        "max": agg.grouped_max(values, grouping),
        "min": agg.grouped_min(values, grouping),
        "avg": agg.grouped_avg(values, grouping),
    }
    _assert_grouped(mono, ref_sum, ref_count, ref_max, ref_min, ref_avg)
    for strategy in STRATEGIES:
        policy = FragmentationPolicy(
            target_size=max(1, -(-n // 4)), strategy=strategy
        )
        fv = fragment_bat(values, policy)
        fg = fragment_bat(grouping, policy)
        frag = {
            "sum": fr.grouped_sum(fv, fg),
            "count": fr.grouped_count(fv, fg),
            "max": fr.grouped_max(fv, fg),
            "min": fr.grouped_min(fv, fg),
            "avg": fr.grouped_avg(fv, fg),
        }
        _assert_grouped(frag, ref_sum, ref_count, ref_max, ref_min, ref_avg)


def _assert_grouped(results, ref_sum, ref_count, ref_max, ref_min, ref_avg):
    assert results["sum"].tail_values().tolist() == pytest.approx(ref_sum)
    assert results["count"].tail_values().tolist() == ref_count
    assert results["max"].tail_list() == pytest.approx(ref_max)
    assert results["min"].tail_list() == pytest.approx(ref_min)
    assert results["avg"].tail_list() == pytest.approx(ref_avg)


def test_nan_extremes_match_monolithic():
    """dbl NIL (NaN) members poison their group/aggregate exactly like
    the monolithic kernel -- regression for an fmax/fmin-based combine
    that silently dropped NaN partials."""
    values = BAT(
        VoidColumn(0, 4),
        Column("dbl", np.array([np.nan, 1.0, 5.0, 2.0])),
    )
    keys = BAT(VoidColumn(0, 4), Column("int", np.array([0, 1, 0, 1], dtype=np.int64)))
    grouping = group(keys)
    for strategy in STRATEGIES:
        policy = FragmentationPolicy(target_size=2, strategy=strategy, workers=2)
        fv = fragment_bat(values, policy)
        fg = fragment_bat(grouping, policy)
        for mono_fn, frag_fn in (
            (agg.grouped_max, fr.grouped_max),
            (agg.grouped_min, fr.grouped_min),
        ):
            mono = mono_fn(values, grouping).tail_list()
            frag = frag_fn(fv, fg).tail_list()
            assert len(mono) == len(frag) == 2
            for m, f in zip(mono, frag):
                assert _same_value(m, f) or (m is None and f is None), (mono, frag)
        # Scalar extremes: NaN anywhere makes the whole aggregate NaN.
        assert math.isnan(agg.max_(values))
        assert math.isnan(fr.max_(fv))
        assert math.isnan(agg.min_(values))
        assert math.isnan(fr.min_(fv))
    # NaN in the *last* fragment too (order dependence of Python max()).
    tail_nan = BAT(VoidColumn(0, 4), Column("dbl", np.array([5.0, 1.0, 2.0, np.nan])))
    ft = fragment_bat(tail_nan, FragmentationPolicy(target_size=2, workers=2))
    assert math.isnan(fr.max_(ft)) and math.isnan(fr.min_(ft))


# ----------------------------------------------------------------------
# Order-sensitive operators: sort / unique / refine
# ----------------------------------------------------------------------


def _nil_key(value):
    """NILs compare equal under the identity rule (kernel docstring):
    NaN and None normalize to one sentinel for dedup references."""
    if value is None:
        return ("\0nil",)
    if isinstance(value, float) and math.isnan(value):
        return ("\0nil",)
    return value


def _order_key(value):
    """The kernel's sort order over stored values: NaN/None last, the
    int NIL sentinel is simply the most negative int."""
    if value is None:
        return (1, "")
    if isinstance(value, float) and math.isnan(value):
        return (1, 0.0)
    return (0, value)


def _ref_sort(pairs):
    return sorted(pairs, key=lambda p: _order_key(p[0]))


def _ref_tsort(pairs):
    return sorted(pairs, key=lambda p: _order_key(p[1]))


def _ref_unique(pairs):
    seen = set()
    out = []
    for h, t in pairs:
        key = (_nil_key(h), _nil_key(t))
        if key not in seen:
            seen.add(key)
            out.append((h, t))
    return out


def _ref_kunique(pairs):
    seen = set()
    out = []
    for h, t in pairs:
        key = _nil_key(h)
        if key not in seen:
            seen.add(key)
            out.append((h, t))
    return out


def _ref_tunique(pairs):
    seen = set()
    out = []
    for h, t in pairs:
        key = _nil_key(t)
        if key not in seen:
            seen.add(key)
            out.append((h, t))
    return out


def _headed_bat(rng: np.random.Generator, htype: str, n: int, *, nils=True) -> BAT:
    """A duplicate-rich BAT with a materialized head of *htype* and an
    int tail (the shape sort/unique actually reorder)."""
    if htype == "int":
        heads = rng.integers(-8, 8, n).astype(np.int64)
        if nils and n:
            heads[rng.random(n) < 0.15] = np.iinfo(np.int64).min
        head = Column("int", heads)
    elif htype == "oid":
        head = Column("oid", rng.integers(0, 10, n).astype(np.int64))
    elif htype == "dbl":
        heads = np.round(rng.random(n) * 4, 1)
        if nils and n:
            heads[rng.random(n) < 0.2] = np.nan
        head = Column("dbl", heads)
    elif htype == "str":
        words = ["ape", "bat", "cat", "dog"]
        heads = np.empty(n, dtype=object)
        for i in range(n):
            if nils and rng.random() < 0.2:
                heads[i] = None
            else:
                heads[i] = str(rng.choice(words))
        head = Column("str", heads)
    else:  # pragma: no cover - test config error
        raise ValueError(htype)
    tails = rng.integers(-4, 4, n).astype(np.int64)
    if nils and n:
        tails[rng.random(n) < 0.1] = np.iinfo(np.int64).min
    return BAT(head, Column("int", tails))


@pytest.mark.parametrize("seed", range(N_CASES))
def test_sort_differential(seed):
    rng = np.random.default_rng(800 + seed)
    htype = ("int", "dbl", "str", "oid")[seed % 4]
    n = int(rng.choice([0, 1, 2, 17, 64, 120]))
    bat = _headed_bat(rng, htype, n)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    _check_op(kernel.sort(bat), _ref_sort(pairs), [fr.sort(fb) for fb in fbs])
    _check_op(kernel.tsort(bat), _ref_tsort(pairs), [fr.tsort(fb) for fb in fbs])


@pytest.mark.parametrize("seed", range(N_CASES))
def test_unique_family_differential(seed):
    rng = np.random.default_rng(900 + seed)
    htype = ("int", "dbl", "str", "oid")[seed % 4]
    n = int(rng.choice([0, 1, 2, 17, 64, 120]))
    bat = _headed_bat(rng, htype, n)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    _check_op(kernel.unique(bat), _ref_unique(pairs), [fr.unique(fb) for fb in fbs])
    _check_op(
        kernel.kunique(bat), _ref_kunique(pairs), [fr.kunique(fb) for fb in fbs]
    )
    _check_op(
        kernel.tunique(bat), _ref_tunique(pairs), [fr.tunique(fb) for fb in fbs]
    )


@pytest.mark.parametrize(
    "htype,shape",
    [
        (htype, shape)
        for htype in ("int", "dbl", "str", "oid")
        for shape in ("all_equal", "presorted")
    ]
    # int/oid NILs are plain sentinel values for ordering; NaN/None
    # have their own last-place rule, so only dbl/str get the shape.
    + [("dbl", "nil_heavy"), ("str", "nil_heavy")],
)
def test_sort_unique_edge_shapes(htype, shape):
    """The satellite edge shapes: all-equal columns (every BUN ties),
    already-sorted inputs (the merge degenerates to concatenation), and
    NIL-heavy columns (NaN/None ordering and identity-rule dedup)."""
    rng = np.random.default_rng(hash(shape) % 1000)
    n = 90
    if shape == "all_equal":
        bat = _headed_bat(rng, htype, n, nils=False)
        value = bat.head_values()[0]
        if htype == "str":
            head = Column("str", np.full(n, value, dtype=object))
        else:
            head = Column(
                bat.head.atom_type,
                np.full(n, value, dtype=bat.head.atom_type.dtype),
            )
        bat = BAT(head, bat.tail)
    elif shape == "presorted":
        base = _headed_bat(rng, htype, n, nils=False)
        bat = kernel.sort(base)
        bat = BAT(bat.head, bat.tail)  # drop the hsorted flag: detection path
    else:
        bat = _headed_bat(rng, htype, n)
    pairs = _raw_pairs(bat)
    fbs = [_fragment(bat, s) for s in STRATEGIES]
    _check_op(kernel.sort(bat), _ref_sort(pairs), [fr.sort(fb) for fb in fbs])
    _check_op(kernel.unique(bat), _ref_unique(pairs), [fr.unique(fb) for fb in fbs])


def test_nil_dedup_identity_rule():
    """The NIL-dedup decision (recorded in the kernel module
    docstring): joins never match NIL, but unique/kunique treat all
    NILs of a column as one value -- a single NaN/None survives, on the
    monolithic and the fragmented path alike."""
    nan_heads = BAT(
        Column("dbl", np.array([np.nan, 1.0, np.nan, 1.0])),
        Column("int", np.array([7, 8, 7, 8], dtype=np.int64)),
    )
    assert kernel.unique(nan_heads).to_pairs() == [(None, 7), (1.0, 8)]
    assert kernel.kunique(nan_heads).to_pairs() == [(None, 7), (1.0, 8)]
    none_heads = BAT(
        Column("str", np.array([None, "a", None], dtype=object)),
        Column("int", np.array([1, 2, 1], dtype=np.int64)),
    )
    assert kernel.unique(none_heads).to_pairs() == [(None, 1), ("a", 2)]
    assert kernel.kunique(none_heads).to_pairs() == [(None, 1), ("a", 2)]
    for bat in (nan_heads, none_heads):
        for strategy in STRATEGIES:
            fb = _fragment(bat, strategy)
            assert fr.unique(fb).to_bat().to_pairs() == kernel.unique(bat).to_pairs()
            assert (
                fr.kunique(fb).to_bat().to_pairs() == kernel.kunique(bat).to_pairs()
            )


@pytest.mark.parametrize("seed", range(20))
def test_refine_differential(seed):
    from repro.monet.groups import refine

    rng = np.random.default_rng(1000 + seed)
    n = int(rng.choice([0, 1, 50, 160]))
    keys = BAT(VoidColumn(0, n), Column("int", rng.integers(0, 6, n)))
    if seed % 2:
        values_raw = np.round(rng.random(n) * 2, 1)
        if n:
            values_raw[rng.random(n) < 0.2] = np.nan
        values = BAT(VoidColumn(0, n), Column("dbl", values_raw))
    else:
        words = np.empty(n, dtype=object)
        for i in range(n):
            words[i] = None if rng.random() < 0.2 else str(
                rng.choice(["x", "y", "z"])
            )
        values = BAT(VoidColumn(0, n), Column("str", words))
    grouping = group(keys)
    mono = refine(grouping, values)

    # Naive reference: same group iff same (old group, value) pair,
    # ids in first-appearance order, NILs equal under the identity rule.
    ids: dict = {}
    expected = []
    for old, value in zip(grouping.tail_values().tolist(), values.tail_list()):
        key = (old, _nil_key(value))
        if key not in ids:
            ids[key] = len(ids)
        expected.append(ids[key])
    assert mono.tail_values().tolist() == expected

    for strategy in STRATEGIES:
        policy = FragmentationPolicy(
            target_size=max(1, -(-n // 4)), strategy=strategy, workers=2
        )
        fragmented = fr.refine(
            fragment_bat(grouping, policy), fragment_bat(values, policy)
        )
        coalesced = fragmented.to_bat()
        assert coalesced.to_pairs() == mono.to_pairs()
        assert_flags_sound(coalesced)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sort_after_subset_chain(strategy):
    """Sorting a *derived* fragmented subset (whose round-robin
    positions are sparse global BUN positions, not 0..n-1) must rank by
    position, not index by it -- regression for the unique -> sort
    chain."""
    rng = np.random.default_rng(9)
    bat = _headed_bat(rng, "oid", 120, nils=False)
    fb = _fragment(bat, strategy)
    chained = fr.sort(fr.unique(fb)).to_bat()
    expected = kernel.sort(kernel.unique(bat))
    assert chained.to_pairs() == expected.to_pairs()
    assert_flags_sound(chained)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sort_output_stays_fragmented(strategy):
    """Fragmented sort/unique emit fragmented results partitioned at
    the policy's target size -- the property that keeps the rest of the
    plan fragment-parallel."""
    rng = np.random.default_rng(5)
    bat = _headed_bat(rng, "oid", 200, nils=False)
    fb = fragment_bat(
        bat, FragmentationPolicy(target_size=32, strategy=strategy, workers=2)
    )
    result = fr.sort(fb)
    assert isinstance(result, FragmentedBAT)
    assert result.positions is None  # range-partitioned output
    assert max(result.fragment_sizes()) <= 32
    deduped = fr.unique(fb)
    assert isinstance(deduped, FragmentedBAT)
    assert deduped.nfragments == fb.nfragments  # dedup keeps the shape


# ----------------------------------------------------------------------
# Structural invariants of the fragmentation itself
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fragment_roundtrip_identity(seed, strategy):
    rng = np.random.default_rng(700 + seed)
    ttype = ("int", "dbl", "str", "oid")[seed % 4]
    bat = _random_bat(rng, ttype)
    fb = _fragment(bat, strategy)
    if len(bat) >= 4:
        assert fb.nfragments >= 3
    assert len(fb) == len(bat)
    assert_pairs_equal(fb.to_bat(), _raw_pairs(bat))
    assert_flags_sound(fb.to_bat())
    # Coalescing a range split of a void-headed BAT restores voidness.
    if strategy == "range":
        assert fb.to_bat().hdense == bat.hdense


# ----------------------------------------------------------------------
# Set operators: kunion / kintersect (identity NIL rule) and the
# shared-build semijoin / kdiff fast path (comparison NIL rule)
# ----------------------------------------------------------------------


def _comparison_nil(value) -> bool:
    """NILs that match nothing under the comparison rule (NaN/None; the
    int/oid sentinels are ordinary integers that equal themselves)."""
    return value is None or (isinstance(value, float) and math.isnan(value))


def _ref_kunion(pairs, right_pairs):
    members = {_nil_key(h) for h, _ in pairs}
    return list(pairs) + [
        (h, t) for h, t in right_pairs if _nil_key(h) not in members
    ]


def _ref_kintersect(pairs, right_pairs):
    members = {_nil_key(h) for h, _ in right_pairs}
    return [(h, t) for h, t in pairs if _nil_key(h) in members]


def _ref_semijoin_comparison(pairs, right_pairs):
    members = {h for h, _ in right_pairs if not _comparison_nil(h)}
    return [
        (h, t) for h, t in pairs if not _comparison_nil(h) and h in members
    ]


def _ref_kdiff_comparison(pairs, right_pairs):
    members = {h for h, _ in right_pairs if not _comparison_nil(h)}
    return [(h, t) for h, t in pairs if _comparison_nil(h) or h not in members]


@pytest.mark.parametrize("seed", range(N_CASES), ids=THREAD_SEED_IDS)
def test_set_operators_differential(seed):
    """kunion/kintersect (identity rule) and semijoin/kdiff (comparison
    rule) over NIL-heavy heads: monolithic vs identity/comparison
    references vs fragmented execution -- fragmented left against
    monolithic, same-strategy fragmented, and cross-strategy fragmented
    right operands."""
    rng = np.random.default_rng(1500 + seed)
    htype = ("int", "dbl", "str", "oid")[seed % 4]
    n_left = int(rng.choice([0, 1, 2, 17, 64, 120]))
    n_right = int(rng.choice([0, 1, 3, 20, 65, 119]))
    left = _headed_bat(rng, htype, n_left)
    right = _headed_bat(rng, htype, n_right)
    left_pairs, right_pairs = _raw_pairs(left), _raw_pairs(right)
    left_fbs = [_fragment(left, s) for s in STRATEGIES]
    right_fbs = [_fragment(right, s) for s in STRATEGIES]

    def variants(op):
        out = [op(fb, right) for fb in left_fbs]
        out += [op(lf, rf) for lf, rf in zip(left_fbs, right_fbs)]
        out.append(op(left_fbs[0], right_fbs[1]))  # range left, rr right
        out.append(op(left_fbs[1], right_fbs[0]))  # rr left, range right
        return out

    _check_op(
        kernel.kunion(left, right),
        _ref_kunion(left_pairs, right_pairs),
        variants(fr.kunion),
    )
    _check_op(
        kernel.kintersect(left, right),
        _ref_kintersect(left_pairs, right_pairs),
        variants(fr.kintersect),
    )
    _check_op(
        kernel.semijoin(left, right),
        _ref_semijoin_comparison(left_pairs, right_pairs),
        variants(fr.semijoin),
    )
    _check_op(
        kernel.kdiff(left, right),
        _ref_kdiff_comparison(left_pairs, right_pairs),
        variants(fr.kdiff),
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_setops_nil_identity_rule_fragmented(strategy):
    """The PR-4 set-op NIL decision, fragment-parallel: one NaN head on
    each side unions to a single NaN BUN and intersects to the left
    NaN BUN, BUN-identical to the monolithic kernel."""
    left = BAT(
        Column("dbl", np.array([np.nan, 1.0, 2.0])),
        Column("int", np.array([1, 2, 3], dtype=np.int64)),
    )
    right = BAT(
        Column("dbl", np.array([np.nan, 2.0, 9.0])),
        Column("int", np.array([4, 5, 6], dtype=np.int64)),
    )
    lf, rf = _fragment(left, strategy), _fragment(right, strategy)
    union = fr.kunion(lf, rf).to_bat()
    assert_pairs_equal(union, _raw_pairs(kernel.kunion(left, right)))
    nan_heads = [h for h, _ in _raw_pairs(union) if isinstance(h, float) and math.isnan(h)]
    assert len(nan_heads) == 1  # the identity rule: all NILs are one value
    intersection = fr.kintersect(lf, rf).to_bat()
    assert_pairs_equal(intersection, _raw_pairs(kernel.kintersect(left, right)))
    assert _raw_pairs(intersection)[1] == (2.0, 3)


def test_kunion_derived_roundrobin_subset_positions():
    """kunion over *derived* round-robin subsets (sparse positions):
    survivor positions must rank, not reuse raw right positions."""
    rng = np.random.default_rng(7)
    left = _headed_bat(rng, "oid", 90)
    right = _headed_bat(rng, "oid", 84)
    lf = fr.select(_fragment(left, "roundrobin"), -3, 3)
    rf = fr.select(_fragment(right, "roundrobin"), -3, 3)
    mono = kernel.kunion(
        kernel.select(left, -3, 3), kernel.select(right, -3, 3)
    )
    out = fr.kunion(lf, rf)
    assert_pairs_equal(out.to_bat(), _raw_pairs(mono))
    # ... and the result keeps working fragment-parallel downstream.
    assert_pairs_equal(fr.sort(out).to_bat(), _raw_pairs(kernel.sort(mono)))


# ----------------------------------------------------------------------
# Sample-sort merge edge cases
# ----------------------------------------------------------------------


def _explicit_range_fragments(bat: BAT, sizes) -> FragmentedBAT:
    """A range FragmentedBAT with the exact fragment *sizes* (empty
    fragments allowed), pinned to the parallel code path."""
    assert sum(sizes) == len(bat)
    fragments = []
    at = 0
    for size in sizes:
        fragments.append(bat.slice(at, at + size))
        at += size
    policy = FragmentationPolicy(
        target_size=max(1, max(sizes, default=1)), workers=2
    )
    return FragmentedBAT(fragments, policy=policy)


_ALL_EQUAL_HEAD = {
    "int": lambda n: Column("int", np.full(n, 5, dtype=np.int64)),
    "oid": lambda n: Column("oid", np.full(n, 3, dtype=np.int64)),
    "dbl": lambda n: Column("dbl", np.full(n, 0.5)),
    "str": lambda n: Column("str", np.array(["cat"] * n, dtype=object)),
}


@pytest.mark.parametrize("htype", ["int", "oid", "dbl", "str"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_sort_all_equal_keys(htype, strategy):
    """Degenerate pivots: every sampled key is identical, so the pivot
    set dedupes to (at most) one value and a single partition does all
    the work -- the result must still be the stable identity ordering
    by global BUN position."""
    n = 97
    rng = np.random.default_rng(31)
    bat = BAT(
        _ALL_EQUAL_HEAD[htype](n),
        Column("int", rng.permutation(n).astype(np.int64)),
    )
    fb = _fragment(bat, strategy)
    _check_op(kernel.sort(bat), _ref_sort(_raw_pairs(bat)), [fr.sort(fb)])


@pytest.mark.parametrize("htype", ["int", "dbl", "str"])
def test_sample_sort_empty_and_single_fragments(htype):
    """Empty fragments mixed between full ones contribute empty runs
    and empty partition slices; a single fragment degenerates to the
    no-merge path.  Both must stay BUN-identical to the monolithic
    sort."""
    rng = np.random.default_rng(57)
    bat = _headed_bat(rng, htype, 60)
    pairs = _raw_pairs(bat)
    holey = _explicit_range_fragments(bat, [0, 20, 0, 0, 25, 15, 0])
    single = FragmentedBAT(
        [bat], policy=FragmentationPolicy(target_size=len(bat), workers=2)
    )
    _check_op(kernel.sort(bat), _ref_sort(pairs), [fr.sort(holey), fr.sort(single)])
    _check_op(
        kernel.unique(bat),
        _ref_unique(pairs),
        [fr.unique(holey), fr.unique(single)],
    )


@pytest.mark.parametrize("fanout", [1, 3, 64])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_sort_fanout_extremes(fanout, strategy, monkeypatch):
    """MERGE_FANOUT=1 falls back to the serial tournament merge; a
    fan-out far beyond the data yields many tiny (some empty)
    partitions.  Both ends must be BUN-identical to the monolithic
    sort, for numeric and object heads."""
    monkeypatch.setattr(fr, "MERGE_FANOUT", fanout)
    rng = np.random.default_rng(101 + fanout)
    for htype in ("dbl", "str"):
        bat = _headed_bat(rng, htype, 120)
        fb = _fragment(bat, strategy)
        _check_op(kernel.sort(bat), _ref_sort(_raw_pairs(bat)), [fr.sort(fb)])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sample_sort_output_feeds_fragment_parallel_ops(strategy):
    """The sample-sort result is range-partitioned: a following
    fragment-parallel operator (select) over it must agree with the
    monolithic pipeline."""
    rng = np.random.default_rng(77)
    bat = _headed_bat(rng, "int", 150)
    fb = _fragment(bat, strategy)
    sorted_fb = fr.sort(fb)
    assert sorted_fb.positions is None  # range-partitioned output
    got = fr.select(sorted_fb, -2, 4).to_bat()
    expected = kernel.select(kernel.sort(bat), -2, 4)
    assert_pairs_equal(got, _raw_pairs(expected))


# ----------------------------------------------------------------------
# Grace-join differential: fragmented rights, spill, fan-out extremes
# ----------------------------------------------------------------------


def _join_case(rng, flavor: str, n: int, m: int):
    """Random (left, right) join operands of one dtype flavor with
    NIL-heavy bases on both sides."""
    if flavor == "str":
        words = ["ape", "bat", "cat", "dog", "eel"]
        probe_vals = np.empty(n, dtype=object)
        for i in range(n):
            probe_vals[i] = None if rng.random() < 0.2 else str(rng.choice(words))
        left = BAT(VoidColumn(0, n), Column("str", probe_vals))
        build_vals = np.empty(m, dtype=object)
        for i in range(m):
            build_vals[i] = None if rng.random() < 0.2 else str(rng.choice(words))
        right = BAT(Column("str", build_vals), Column("int", rng.integers(0, 9, m)))
    elif flavor == "dbl":
        probe_vals = np.round(rng.random(n) * 8, 0)
        if n:
            probe_vals[rng.random(n) < 0.25] = np.nan
        left = BAT(VoidColumn(0, n), Column("dbl", probe_vals))
        build_vals = np.round(rng.random(m) * 8, 0)
        if m:
            build_vals[rng.random(m) < 0.25] = np.nan
        right = BAT(Column("dbl", build_vals), Column("int", rng.integers(-4, 4, m)))
    else:
        left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 15, n)))
        right = BAT(
            Column("oid", rng.integers(0, 15, m).astype(np.int64)),
            Column("int", rng.integers(-4, 4, m)),
        )
    return left, right


@pytest.mark.parametrize("seed", range(N_CASES), ids=THREAD_SEED_IDS)
def test_join_fragmented_right_differential(seed):
    """The grace hash join with fragmented *right* operands: range x
    round-robin splits of both sides, over NIL-heavy bases --
    BUN-identical to the monolithic kernel for join and outerjoin
    alike, with no coalesce of either operand."""
    rng = np.random.default_rng(1300 + seed)
    n = int(rng.choice([0, 1, 30, 90]))
    m = int(rng.integers(0, 25))
    left, right = _join_case(rng, ("oid", "dbl", "str")[seed % 3], n, m)
    join_variants = [
        fr.join(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ]
    _check_op(
        kernel.join(left, right),
        _ref_join(_raw_pairs(left), _raw_pairs(right)),
        join_variants,
    )
    # outerjoin rides the same shared partitioned build (the reference
    # is the monolithic kernel, itself pinned by test_nil_join_*).
    mono_outer = kernel.outerjoin(left, right)
    outer_variants = [
        fr.outerjoin(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ]
    _check_op(mono_outer, _raw_pairs(mono_outer), outer_variants)


@pytest.mark.parametrize("seed", range(0, N_CASES, 5))
def test_join_spill_forced_differential(seed, monkeypatch):
    """JOIN_SPILL_BUNS=0 forces every partitioned build through the
    BBP npz spill units; results stay BUN-identical and no spill unit
    outlives its join."""
    from repro.monet import bbp

    monkeypatch.setattr(fr, "JOIN_SPILL_BUNS", 0)
    monkeypatch.setattr(fr, "JOIN_PARTITION_MIN_BUNS", 1)
    rng = np.random.default_rng(1400 + seed)
    n = int(rng.choice([1, 30, 90]))
    m = int(rng.integers(1, 25))
    left, right = _join_case(rng, ("oid", "dbl", "str")[seed % 3], n, m)
    variants = [
        fr.join(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ] + [
        fr.outerjoin(_fragment(left, ls), _fragment(right, "range"))
        for ls in STRATEGIES
    ]
    _check_op(
        kernel.join(left, right),
        _ref_join(_raw_pairs(left), _raw_pairs(right)),
        variants[:4],
    )
    mono_outer = kernel.outerjoin(left, right)
    _check_op(mono_outer, _raw_pairs(mono_outer), variants[4:])
    if bbp._SPILL_ROOT is not None:
        assert list(bbp._SPILL_ROOT.iterdir()) == []


@pytest.mark.parametrize("fanout", [1, 64])
@pytest.mark.parametrize("flavor", ["oid", "str"])
def test_join_fanout_extremes(fanout, flavor, monkeypatch):
    """JOIN_FANOUT extremes, with the partition floor disabled so the
    cap actually binds: one partition (a plain shared-index join) and
    more partitions than distinct keys must both reproduce the
    monolithic join."""
    monkeypatch.setattr(fr, "JOIN_FANOUT", fanout)
    monkeypatch.setattr(fr, "JOIN_PARTITION_MIN_BUNS", 1)
    rng = np.random.default_rng(99 + fanout)
    left, right = _join_case(rng, flavor, 120, 30)
    expected = _ref_join(_raw_pairs(left), _raw_pairs(right))
    variants = [
        fr.join(_fragment(left, ls), _fragment(right, rs))
        for ls in STRATEGIES
        for rs in STRATEGIES
    ]
    _check_op(kernel.join(left, right), expected, variants)


def test_fragmented_bat_requires_fragments_and_tolerates_empty_ones():
    """The >=1-fragment constructor invariant that _probe_dtype leans
    on, plus the degenerate case it guards: a fragmentation whose only
    fragment has zero BUNs must still probe (join/topn/group) safely."""
    from repro.monet.errors import KernelError as KE

    with pytest.raises(KE):
        FragmentedBAT([])
    empty = BAT(VoidColumn(0, 0), Column("int", np.empty(0, dtype=np.int64)))
    fb = fragment_bat(empty, FragmentationPolicy(target_size=4, workers=2))
    assert fb.nfragments == 1 and len(fb.fragments[0]) == 0
    right = BAT(
        Column("int", np.array([1, 2], dtype=np.int64)),
        Column("int", np.array([10, 20], dtype=np.int64)),
    )
    assert fr.join(fb, right).to_bat().to_pairs() == []
    assert fr.topn(fb, 3).to_pairs() == []
    assert fr.group(fb).to_bat().to_pairs() == []
    sempty = BAT(VoidColumn(0, 0), Column("str", np.empty(0, dtype=object)))
    sfb = fragment_bat(sempty, FragmentationPolicy(target_size=4, workers=2))
    sright = BAT(
        Column("str", np.array(["a"], dtype=object)),
        Column("int", np.array([1], dtype=np.int64)),
    )
    assert fr.join(sfb, sright).to_bat().to_pairs() == []
    assert fr.topn(sfb, 2).to_pairs() == []


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fetchjoin_fragmented_dense_right(strategy, monkeypatch):
    """A range-partitioned fragmented dense right operand routes by
    seqbase windows (no coalesce); a round-robin one still coalesces
    and keeps the monolithic error behaviour."""
    rng = np.random.default_rng(55)
    n = 160
    left = BAT(VoidColumn(0, n), Column("oid", rng.integers(0, 90, n)))
    dense = BAT(VoidColumn(10, 60), Column("dbl", np.round(rng.random(60), 3)))
    expected = kernel.fetchjoin(left, dense)
    fleft = _fragment(left, strategy)
    fdense = fragment_bat(
        dense, FragmentationPolicy(target_size=16, workers=2)
    )
    # FragmentedBAT uses __slots__, so the no-coalesce tripwire patches
    # the class; undo before coalescing the *results* for comparison.
    monkeypatch.setattr(
        fr.FragmentedBAT,
        "to_bat",
        lambda self: (_ for _ in ()).throw(AssertionError("coalesced")),
    )
    results = (fr.fetchjoin(fleft, fdense), fr.join(fleft, fdense))
    monkeypatch.undo()
    for result in results:
        assert_pairs_equal(result.to_bat(), _raw_pairs(expected))
    # Round-robin dense rights have no contiguous windows: they fall
    # back to the coalescing path and must still agree.
    rr = fragment_bat(
        dense,
        FragmentationPolicy(target_size=16, workers=2, strategy="roundrobin"),
    )
    assert_pairs_equal(fr.fetchjoin(fleft, rr).to_bat(), _raw_pairs(expected))
