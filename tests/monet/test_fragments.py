"""Unit and integration tests for the fragmented BAT subsystem."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.core.mirror import MirrorDBMS
from repro.ir.index import InvertedIndex
from repro.moa import mapping
from repro.monet import fragments as fr
from repro.monet.bat import BAT, Column, VoidColumn, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.errors import BBPError, KernelError
from repro.monet.fragments import (
    FragmentationPolicy,
    FragmentedBAT,
    fragment_bat,
)


def _ints(n, *, distinct=50, seed=0):
    rng = np.random.default_rng(seed)
    return BAT(VoidColumn(0, n), Column("int", rng.integers(0, distinct, n)))


# ----------------------------------------------------------------------
# Policy and splitting
# ----------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(KernelError):
        FragmentationPolicy(target_size=0)
    with pytest.raises(KernelError):
        FragmentationPolicy(strategy="hash")


def test_range_split_shapes_and_voidness():
    bat = _ints(250)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=100))
    assert fb.fragment_sizes() == [100, 100, 50]
    # Range fragments of a void head stay void with shifted seqbases.
    assert [f.head.seqbase for f in fb.fragments] == [0, 100, 200]
    assert all(f.hdense for f in fb.fragments)
    # Range fragments share the parent's tail buffer (views, no copy).
    assert fb.fragments[0].tail.values.base is bat.tail.values


def test_roundrobin_split_tracks_positions():
    bat = _ints(10)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=4, strategy="roundrobin"))
    assert fb.nfragments == 3
    assert fb.positions is not None
    assert fb.global_positions(0).tolist() == [0, 3, 6, 9]
    assert fb.to_bat().to_pairs() == bat.to_pairs()
    # Round-robin coalesce re-detects the dense head.
    assert fb.to_bat().hdense


def test_small_bat_stays_single_fragment():
    bat = _ints(10)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=100))
    assert fb.nfragments == 1
    assert fb.to_bat() is bat


def test_empty_bat_fragments():
    bat = _ints(0)
    for strategy in ("range", "roundrobin"):
        fb = fragment_bat(bat, FragmentationPolicy(target_size=4, strategy=strategy))
        assert len(fb) == 0
        assert fb.to_bat().to_pairs() == []


def test_fragmented_bat_validation():
    with pytest.raises(KernelError):
        FragmentedBAT([])
    a = dense_bat("int", [1, 2])
    b = dense_bat("str", ["x"])
    with pytest.raises(KernelError):
        FragmentedBAT([a, b])
    with pytest.raises(KernelError):
        FragmentedBAT([a], positions=[np.arange(1)])


def test_grouped_aggregate_requires_aligned_layout():
    values = fragment_bat(_ints(40), FragmentationPolicy(target_size=10))
    grouping = fragment_bat(_ints(40), FragmentationPolicy(target_size=13))
    with pytest.raises(KernelError):
        fr.grouped_sum(values, grouping)


def test_explicit_worker_counts_agree():
    bat = _ints(1000, seed=3)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=100))
    serial = fr.select(fb, 7, workers=1).to_bat().to_pairs()
    parallel = fr.select(fb, 7, workers=4).to_bat().to_pairs()
    assert serial == parallel


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_fans_out_while_parent_holds_executor_lock():
    """A fork taken while another parent thread holds the executor lock
    must not wedge the child: its first fan-out builds a fresh pool
    instead of waiting forever on a lock copy nobody will release."""
    with fr._EXECUTOR_LOCK:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                code = int(fr.map_fragments(lambda x: 2 * x, [1, 2, 3]) != [2, 4, 6])
            finally:
                os._exit(code)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("forked child hung in map_fragments")


# ----------------------------------------------------------------------
# Buffer pool integration
# ----------------------------------------------------------------------


def test_bbp_register_and_transparent_lookup(pool: BATBufferPool):
    bat = _ints(300, seed=1)
    fb = fragment_bat(bat, FragmentationPolicy(target_size=64))
    pool.register_fragmented("lib.values", fb)
    assert pool.is_fragmented("lib.values")
    assert "lib.values" in pool
    assert pool.names("lib.") == ["lib.values"]
    looked_up = pool.lookup("lib.values")
    assert looked_up.to_pairs() == bat.to_pairs()
    assert looked_up.name == "lib.values"
    assert pool.lookup_fragments("lib.values") is fb
    # Lookup caches the coalesced BAT.
    assert pool.lookup("lib.values") is looked_up


def test_bbp_lookup_fragments_splits_monolithic_on_the_fly(pool):
    pool.register("mono", _ints(200, seed=2))
    fb = pool.lookup_fragments("mono", FragmentationPolicy(target_size=50))
    assert fb.nfragments == 4
    assert fb.to_bat().to_pairs() == pool.lookup("mono").to_pairs()


def test_bbp_name_collision_and_replace(pool):
    pool.register("x", _ints(5))
    with pytest.raises(BBPError):
        pool.register_fragmented("x", fragment_bat(_ints(5)))
    pool.register_fragmented("x", fragment_bat(_ints(8)), replace=True)
    assert pool.is_fragmented("x")
    # Re-registering monolithic clears the fragmented entry.
    pool.register("x", _ints(3), replace=True)
    assert not pool.is_fragmented("x")
    assert len(pool.lookup("x")) == 3
    pool.drop("x")
    assert "x" not in pool


def test_bbp_fragmented_bumps_oid_sequence(pool):
    bat = BAT(VoidColumn(40, 10), Column("int", np.arange(10, dtype=np.int64)))
    pool.register_fragmented("f", fragment_bat(bat, FragmentationPolicy(target_size=4)))
    assert pool.oid_generator.current >= 50


# ----------------------------------------------------------------------
# Mapping-layer threshold
# ----------------------------------------------------------------------


def test_mapping_threshold_fragments_large_attributes(pool):
    docs = [{"value": i} for i in range(64)]
    from repro.moa.types import AtomicType, SetType, TupleType

    ty = SetType(TupleType((("value", AtomicType("int")),)))
    with mapping.fragmentation(16, FragmentationPolicy(target_size=16)):
        mapping.load_collection(pool, "Lib", ty, docs)
    assert pool.is_fragmented("Lib.value")
    assert pool.lookup_fragments("Lib.value").nfragments == 4
    # The extent spine stays monolithic.
    assert not pool.is_fragmented("Lib.__extent__")
    # Reconstruction is oblivious to the physical split.
    assert mapping.reconstruct_collection(pool, "Lib", ty) == docs
    # Threshold restored after the context.
    assert mapping.get_fragment_threshold() is None


def test_mirror_dbms_fragment_threshold_end_to_end():
    db = MirrorDBMS(
        fragment_threshold=8,
        fragment_policy=FragmentationPolicy(target_size=8),
    )
    db.define(
        "define Lib as SET<TUPLE<Atomic<str>: name, "
        "CONTREP<Text>: annotation>>;"
    )
    rows = [
        {"name": f"img{i}", "annotation": f"red sunset number {i} over the sea"}
        for i in range(20)
    ]
    db.insert("Lib", rows)
    assert db.pool.is_fragmented("Lib.name")
    assert db.pool.is_fragmented("Lib.annotation.term")
    assert db.pool.lookup_fragments("Lib.name").nfragments >= 2
    assert db.pool.lookup_fragments("Lib.annotation.term").nfragments >= 2
    stats = db.stats("Lib", "annotation")
    result = db.query(
        "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));",
        {"query": ["sunset", "sea"], "stats": stats},
    )
    assert len(result.value) == 20
    assert all(score > 0 for score in result.value)
    # And the same database without fragmentation ranks identically.
    db2 = MirrorDBMS()
    db2.define(db.ddl())
    db2.insert("Lib", rows)
    stats2 = db2.stats("Lib", "annotation")
    baseline = db2.query(
        "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib));",
        {"query": ["sunset", "sea"], "stats": stats2},
    )
    assert result.value == pytest.approx(baseline.value)


# ----------------------------------------------------------------------
# IR parallel scoring
# ----------------------------------------------------------------------


def test_score_sum_parallel_matches_serial():
    rng = np.random.default_rng(7)
    vocabulary = [f"t{i}" for i in range(30)]
    documents = []
    for _ in range(120):
        terms = rng.choice(vocabulary, size=rng.integers(1, 12))
        documents.append({t: int(rng.integers(1, 5)) for t in terms})
    index = InvertedIndex(documents)
    query = ["t1", "t5", "t29", "missing"]
    serial = index.score_sum(query)
    for fragment_size in (7, 64, 10**6):
        parallel = index.score_sum_parallel(query, fragment_size=fragment_size)
        assert parallel == pytest.approx(serial)
    with_workers = index.score_sum_parallel(query, fragment_size=16, workers=2)
    assert with_workers == pytest.approx(serial)


def test_score_sum_parallel_empty_cases():
    index = InvertedIndex([{}, {}])
    assert index.score_sum_parallel(["x"]).tolist() == [0.0, 0.0]
    index2 = InvertedIndex([{"a": 1}])
    assert index2.score_sum_parallel([]).tolist() == [0.0]
