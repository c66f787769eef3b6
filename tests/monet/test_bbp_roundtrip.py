"""Save/load round-trips of the BAT buffer pool.

Covers the property-flag and NIL corners the coarse npz layout must
preserve exactly: ``hsorted``/``tkey``/``hdense`` flags, object (str)
columns with NILs, and fragmented BATs under both split strategies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.monet.bat import BAT, Column, VoidColumn, bat_from_pairs, dense_bat
from repro.monet.bbp import BATBufferPool
from repro.monet.fragments import FragmentationPolicy, fragment_bat


def _roundtrip(pool: BATBufferPool, tmp_path) -> BATBufferPool:
    pool.save(tmp_path / "db")
    return BATBufferPool.load(tmp_path / "db")


def test_property_flags_roundtrip(pool, tmp_path):
    sorted_keys = BAT(
        Column("int", np.array([1, 3, 5, 9], dtype=np.int64)),
        Column("str", np.array(["a", "b", "c", "d"], dtype=object)),
        hsorted=True,
        hkey=True,
        tkey=True,
        tsorted=True,
    )
    pool.register("flags", sorted_keys)
    dense = dense_bat("dbl", [0.5, 1.5], seqbase=7)
    pool.register("dense", dense)
    loaded = _roundtrip(pool, tmp_path)

    flags = loaded.lookup("flags")
    assert (flags.hsorted, flags.hkey, flags.tkey, flags.tsorted) == (
        True,
        True,
        True,
        True,
    )
    assert not flags.hdense
    restored = loaded.lookup("dense")
    assert restored.hdense and restored.head.seqbase == 7
    assert restored.to_pairs() == dense.to_pairs()


def test_object_column_with_nils_roundtrip(pool, tmp_path):
    values = ["red", None, "", "green", None, "\x00odd"]
    bat = dense_bat("str", values)
    pool.register("strs", bat)
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup("strs").tail_list() == values


def test_numeric_nils_roundtrip(pool, tmp_path):
    pool.register("ints", dense_bat("int", [1, None, 3]))
    pool.register("dbls", dense_bat("dbl", [0.25, None, 4.0]))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup("ints").tail_list() == [1, None, 3]
    assert loaded.lookup("dbls").tail_list() == [0.25, None, 4.0]


def test_nonvoid_oid_head_roundtrip(pool, tmp_path):
    bat = bat_from_pairs("oid", "int", [(3, 30), (5, 50), (9, 90)])
    assert bat.hsorted and bat.hkey and not bat.hdense
    pool.register("sparse", bat)
    loaded = _roundtrip(pool, tmp_path)
    restored = loaded.lookup("sparse")
    assert restored.to_pairs() == bat.to_pairs()
    assert restored.hsorted and restored.hkey and not restored.hdense


def test_fragmented_workers_roundtrip(pool, tmp_path):
    bat = dense_bat("int", list(range(20)))
    policy = FragmentationPolicy(target_size=5, workers=4)
    pool.register_fragmented("w", fragment_bat(bat, policy))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.lookup_fragments("w").policy.workers == 4


def test_register_fragmented_renames_cached_coalesce(pool):
    bat = dense_bat("int", list(range(12)))
    fb = fragment_bat(bat, FragmentationPolicy(target_size=4))
    fb.to_bat()  # populate the coalesce cache before registration
    pool.register_fragmented("named", fb)
    assert pool.lookup("named").name == "named"


@pytest.mark.parametrize("strategy", ["range", "roundrobin"])
def test_fragmented_roundtrip(pool, tmp_path, strategy):
    rng = np.random.default_rng(11)
    n = 257
    strs = np.empty(n, dtype=object)
    for i in range(n):
        strs[i] = None if i % 11 == 0 else f"w{int(rng.integers(0, 40))}"
    bat = BAT(VoidColumn(2, n), Column("str", strs))
    policy = FragmentationPolicy(target_size=50, strategy=strategy)
    pool.register_fragmented("lib.words", fragment_bat(bat, policy))
    pool.register("plain", dense_bat("int", [1, 2, 3]))
    loaded = _roundtrip(pool, tmp_path)

    assert loaded.is_fragmented("lib.words")
    fb = loaded.lookup_fragments("lib.words")
    assert fb.policy.strategy == strategy
    assert fb.policy.target_size == 50
    assert fb.policy.workers == policy.workers
    assert fb.nfragments == pool.lookup_fragments("lib.words").nfragments
    assert fb.fragment_sizes() == pool.lookup_fragments("lib.words").fragment_sizes()
    assert loaded.lookup("lib.words").to_pairs() == bat.to_pairs()
    assert loaded.lookup("plain").tail_list() == [1, 2, 3]


def test_fragmented_roundtrip_preserves_oid_sequence(pool, tmp_path):
    bat = BAT(VoidColumn(100, 20), Column("int", np.arange(20, dtype=np.int64)))
    pool.register_fragmented("f", fragment_bat(bat, FragmentationPolicy(target_size=6)))
    loaded = _roundtrip(pool, tmp_path)
    assert loaded.oid_generator.current >= 120


def _tuning_state(fragments):
    return (
        fragments.DEFAULT_FRAGMENT_SIZE,
        fragments.PARALLEL_MIN_BUNS,
        fragments.MERGE_FANOUT,
        fragments.JOIN_FANOUT,
        fragments.JOIN_SPILL_BUNS,
        fragments._TUNING_MEASURED,
    )


def _restore_tuning(fragments, state):
    (
        fragments.DEFAULT_FRAGMENT_SIZE,
        fragments.PARALLEL_MIN_BUNS,
        fragments.MERGE_FANOUT,
        fragments.JOIN_FANOUT,
        fragments.JOIN_SPILL_BUNS,
        fragments._TUNING_MEASURED,
    ) = state


#: Tuning fields and environment variables of the removed process
#: executor backend.  Catalogs written while it existed carry the
#: fields; a load must ignore both and apply everything else.  The
#: variable names are joined from parts so that a search of the tree
#: for the removed knobs finds no live reference.
LEGACY_TUNING = {"backend": "process", "process_min": 4096}
LEGACY_ENV = {
    "_".join(("REPRO", "EXECUTOR", "BACKEND")): "process",
    "_".join(("REPRO", "PROCESS", "MIN", "BUNS")): "0",
}


def _add_legacy_tuning(directory) -> None:
    """Rewrite *directory*'s catalog in the older format."""
    import json

    path = directory / "catalog.json"
    catalog = json.loads(path.read_text())
    catalog["tuning"].update(LEGACY_TUNING)
    path.write_text(json.dumps(catalog))


def test_calibrated_tuning_roundtrip(pool, tmp_path, monkeypatch):
    """Measured fragment tuning persists next to the catalog and is
    reinstalled on load, so a restarted server skips the measurement
    pass.  Cores-derived (unmeasured) defaults are never written.  The
    same catalog in the older format, carrying the executor-backend
    fields (with their environment variables set), loads the same way
    and answers the same queries."""
    import json

    from repro.monet import fragments
    from repro.monet.mil import run_program

    saved_state = _tuning_state(fragments)
    try:
        words = dense_bat("str", ["red", None, "bread", "blue", "reed", "", "red"] * 5)
        pool.register("x", dense_bat("int", [1, 2, 3]))
        pool.register_fragmented(
            "words", fragment_bat(words, FragmentationPolicy(target_size=8))
        )
        pool.save(tmp_path / "db")
        catalog = json.loads((tmp_path / "db" / "catalog.json").read_text())
        assert "tuning" not in catalog  # unmeasured defaults stay local

        fragments.set_default_tuning(
            fragment_size=12345,
            parallel_min=67890,
            merge_fanout=24,
            join_fanout=12,
            join_spill=2_000_000,
        )
        pool.save(tmp_path / "db2")
        catalog = json.loads((tmp_path / "db2" / "catalog.json").read_text())
        assert catalog["tuning"] == {
            "fragment_size": 12345,
            "parallel_min": 67890,
            "merge_fanout": 24,
            "join_fanout": 12,
            "join_spill": 2_000_000,
        }

        for legacy in (False, True):
            if legacy:
                _add_legacy_tuning(tmp_path / "db2")
                for name, value in LEGACY_ENV.items():
                    monkeypatch.setenv(name, value)
            # A "restart": reset the module defaults, then load the pool.
            _restore_tuning(fragments, saved_state)
            loaded = BATBufferPool.load(tmp_path / "db2")
            assert fragments.DEFAULT_FRAGMENT_SIZE == 12345
            assert fragments.PARALLEL_MIN_BUNS == 67890
            assert fragments.MERGE_FANOUT == 24
            assert fragments.JOIN_FANOUT == 12
            assert fragments.JOIN_SPILL_BUNS == 2_000_000
            tuning = fragments.default_tuning()
            assert set(tuning) == set(catalog["tuning"]) | {"measured"}
            assert tuning["measured"]
            # Policies made after the load pick the persisted value up.
            assert FragmentationPolicy().target_size == 12345
            # The loaded pool answers fragment-parallel str queries.
            assert loaded.is_fragmented("words")
            for program in ('bat("words").likeselect("re");',
                            'bat("words").select("red");'):
                got = run_program(program, loaded).value
                assert len(got) > 0
                assert got.to_pairs() == run_program(program, pool).value.to_pairs()
            assert loaded.lookup("x").tail_list() == [1, 2, 3]
    finally:
        _restore_tuning(fragments, saved_state)


def test_persisted_tuning_yields_to_env_overrides(pool, tmp_path, monkeypatch):
    from repro.monet import fragments

    saved_state = _tuning_state(fragments)
    try:
        pool.register("x", dense_bat("int", [1]))
        fragments.set_default_tuning(fragment_size=11111, parallel_min=22222)
        pool.save(tmp_path / "db")
        _restore_tuning(fragments, saved_state)
        monkeypatch.setenv("REPRO_FRAGMENT_SIZE", "9999")
        BATBufferPool.load(tmp_path / "db")
        # The env-pinned knob is untouched; the other one installs.
        assert fragments.DEFAULT_FRAGMENT_SIZE == saved_state[0]
        assert fragments.PARALLEL_MIN_BUNS == 22222
    finally:
        _restore_tuning(fragments, saved_state)


def test_persisted_join_tuning_yields_to_env_overrides(pool, tmp_path, monkeypatch):
    """REPRO_JOIN_FANOUT / REPRO_JOIN_SPILL_BUNS beat persisted values
    knob by knob, like every other tuning field."""
    from repro.monet import fragments

    saved_state = _tuning_state(fragments)
    try:
        pool.register("x", dense_bat("int", [1]))
        fragments.set_default_tuning(join_fanout=48, join_spill=7777)
        pool.save(tmp_path / "db")
        _restore_tuning(fragments, saved_state)
        monkeypatch.setenv("REPRO_JOIN_FANOUT", "8")
        BATBufferPool.load(tmp_path / "db")
        # The env-pinned fanout is untouched; the spill knob installs.
        assert fragments.JOIN_FANOUT == saved_state[3]
        assert fragments.JOIN_SPILL_BUNS == 7777
    finally:
        _restore_tuning(fragments, saved_state)


# ----------------------------------------------------------------------
# Concurrency: the locked catalog and view-cache invalidation
# ----------------------------------------------------------------------


def test_concurrent_reregister_and_lookup_never_serves_stale_views(pool):
    """Two threads hammer re-registration of the same fragmented name
    while two more look it up: every lookup must observe one of the
    registered generations in full -- never a torn or stale coalesced
    view (the cache is invalidated under the catalog lock)."""
    import threading

    policy = FragmentationPolicy(target_size=8)
    generations = {
        g: dense_bat("int", [g] * (16 + g)) for g in range(4)
    }
    for g, bat in generations.items():
        pool.register_fragmented(f"gen{g}", fragment_bat(bat, policy))
    pool.register_fragmented("hot", fragment_bat(generations[0], policy))

    stop = threading.Event()
    errors = []

    def writer(seed: int):
        g = seed
        while not stop.is_set():
            g = (g + 1) % 4
            pool.register_fragmented(
                "hot", fragment_bat(generations[g], policy), replace=True
            )

    def reader():
        while not stop.is_set():
            try:
                coalesced = pool.lookup("hot")
                values = set(coalesced.tail_values().tolist())
                assert len(values) == 1, f"torn view: {values}"
                g = values.pop()
                assert len(coalesced) == 16 + g, (
                    f"stale mix: generation {g} with {len(coalesced)} BUNs"
                )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    threads = [
        threading.Thread(target=writer, args=(0,)),
        threading.Thread(target=writer, args=(2,)),
        threading.Thread(target=reader),
        threading.Thread(target=reader),
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]


def test_concurrent_drop_and_lookup_raise_cleanly(pool):
    """Racing drop/lookup must either succeed or raise BBPError -- no
    KeyError/AttributeError from half-updated catalog state."""
    import threading

    from repro.monet.errors import BBPError

    stop = threading.Event()
    errors = []

    def churn():
        while not stop.is_set():
            try:
                pool.register("flicker", dense_bat("int", [1, 2, 3]))
                pool.drop("flicker")
            except BBPError:
                pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    def probe():
        while not stop.is_set():
            try:
                if pool.exists("flicker"):
                    pool.lookup("flicker")
            except BBPError:
                pass  # dropped between exists and lookup: acceptable
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

    threads = [threading.Thread(target=churn) for _ in range(2)] + [
        threading.Thread(target=probe) for _ in range(2)
    ]
    for t in threads:
        t.start()
    import time

    time.sleep(0.4)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
