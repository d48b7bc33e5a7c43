"""Disk store contract: persistence, sharing, bounding, resilience.

The contract runs against a store as its creator holds it (``local``)
and as a pool worker receives it (``shipped``: pickled and unpickled,
so it reopens the index in its own connection).  Behaviors specific to the store's SQLite index (exact eviction, gc,
concurrent writers, index-less trees) live in ``test_index.py``.
"""

import pickle
import time

import pytest

from repro.circuits import build
from repro.pipeline import (
    DiskArtifactCache,
    FlowConfig,
    Pipeline,
    StageStore,
    graph_fingerprint,
)
from repro.pipeline import store as store_module

CACHEABLE = ("analyze", "power_manage", "schedule", "allocate", "elaborate")


def _shipped(*args, **kwargs):
    """The copy of a new store that a pool worker gets."""
    return pickle.loads(pickle.dumps(DiskArtifactCache(*args, **kwargs)))


OPENERS = {"local": DiskArtifactCache, "shipped": _shipped}


@pytest.fixture(params=sorted(OPENERS))
def open_store(request):
    return OPENERS[request.param]


@pytest.fixture
def store(open_store, tmp_path):
    return open_store(tmp_path / "store")


def test_implements_the_protocol(store):
    assert isinstance(store, StageStore)


class TestContract:
    def test_miss_then_hit(self, store):
        key = ("stage", "fp", ("n_steps=7",))
        assert store.lookup(key) is None
        store.store(key, {"x": 1, "y": [2, 3]})
        assert store.lookup(key) == {"x": 1, "y": [2, 3]}
        assert store.stats.misses == 1 and store.stats.hits == 1
        assert key in store and len(store) == 1

    def test_entries_are_sharded_by_digest(self, store):
        key = ("stage", "fp", ())
        store.store(key, {"x": 1})
        path = store.path_for(key)
        assert path.exists()
        assert path.parent.parent == store.root
        assert len(path.parent.name) == 2  # 2-hex-char shard directory

    def test_distinct_keys_do_not_collide(self, store):
        store.store(("a", "fp", ()), {"v": 1})
        store.store(("b", "fp", ()), {"v": 2})
        assert store.lookup(("a", "fp", ()))["v"] == 1
        assert store.lookup(("b", "fp", ()))["v"] == 2

    def test_clear(self, store):
        store.store(("a",), {"v": 1})
        store.lookup(("a",))
        store.clear()
        assert len(store) == 0
        assert store.stats.lookups == 0
        assert store.lookup(("a",)) is None

    def test_bad_max_entries_rejected(self, open_store, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            open_store(tmp_path, max_entries=0)


class TestPersistence:
    def test_survives_reopening(self, open_store, tmp_path):
        first = open_store(tmp_path / "s")
        first.store(("k",), {"v": 41})
        second = open_store(tmp_path / "s")
        assert second.lookup(("k",)) == {"v": 41}
        assert second.stats.hits == 1

    def test_pipeline_runs_warm_across_store_instances(self, open_store,
                                                       tmp_path, gcd_graph):
        cold = Pipeline(cache=open_store(tmp_path / "s"))
        first = cold.run_context(gcd_graph, FlowConfig(n_steps=7))
        assert first.cache_misses == list(CACHEABLE)

        warm = Pipeline(cache=open_store(tmp_path / "s"))
        second = warm.run_context(gcd_graph, FlowConfig(n_steps=7))
        assert second.cache_hits == list(CACHEABLE)
        assert second.cache_misses == []
        assert first.result.design.summary() == \
            second.result.design.summary()

    def test_warm_run_is_faster(self, tmp_path):
        graph = build("vender")
        config = FlowConfig(n_steps=6)

        start = time.perf_counter()
        Pipeline(cache=DiskArtifactCache(tmp_path / "s")).run(graph, config)
        cold_s = time.perf_counter() - start

        # Best-of-two so a one-off scheduler hiccup can't flake the pin.
        warm_s = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            Pipeline(cache=DiskArtifactCache(tmp_path / "s")).run(graph,
                                                                  config)
            warm_s = min(warm_s, time.perf_counter() - start)
        assert warm_s < cold_s

    def test_content_addressing_spans_equal_graphs(self, open_store,
                                                   tmp_path):
        """Two independently built but identical graphs share entries."""
        store = open_store(tmp_path / "s")
        Pipeline(cache=store).run(build("gcd"), FlowConfig(n_steps=7))
        ctx = Pipeline(cache=store).run_context(build("gcd"),
                                                FlowConfig(n_steps=7))
        assert ctx.cache_hits == list(CACHEABLE)

    def test_digest_is_stable_across_processes(self):
        # sha256 over the key repr — not Python's salted hash().
        key = ("analyze", graph_fingerprint(build("gcd")), ("width=8",))
        assert DiskArtifactCache.digest(key) == \
            DiskArtifactCache.digest(key)
        assert len(DiskArtifactCache.digest(key)) == 64


class TestResilience:
    def test_corrupt_entry_is_a_miss_and_removed(self, store):
        key = ("stage", "fp", ())
        store.store(key, {"v": 1})
        store.path_for(key).write_bytes(b"not a pickle")
        assert store.lookup(key) is None
        assert not store.path_for(key).exists()
        # The slot is usable again.
        store.store(key, {"v": 2})
        assert store.lookup(key) == {"v": 2}

    def test_truncated_entry_is_a_miss(self, store):
        key = ("stage", "fp", ())
        store.store(key, {"v": list(range(1000))})
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:20])  # torn write
        assert store.lookup(key) is None

    def test_no_temp_files_left_behind(self, store):
        for k in range(10):
            store.store((f"k{k}",), {"v": k})
        leftovers = [p for p in store.root.rglob(".tmp-*")]
        assert leftovers == []


class TestOlderFormat:
    """Entries written under an older ``STORE_FORMAT`` are never served:
    their pickles may hold objects the current code cannot use."""

    # What a CDFG pickled by a format-1 store lacks: its structural index.
    INDEX_ATTRS = ("_version", "_data_preds", "_data_succs_memo",
                   "_preds_memo", "_succs_memo", "_orders")

    # A scheduler other than the one the tree was written with, so the
    # stages after the PM pass miss and read the PM graph.
    RESCHEDULE = FlowConfig(n_steps=7, scheduler="force_directed")

    def _write_format_one_tree(self, root, graph, config, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "STORE_FORMAT", 1)
            Pipeline(cache=DiskArtifactCache(root)).run(graph, config)
        stripped = 0
        for path in root.glob("??/*.pkl"):
            artifacts = pickle.loads(path.read_bytes())
            if "pm" in artifacts:
                pm_graph = artifacts["pm"].graph
                for attr in self.INDEX_ATTRS:
                    delattr(pm_graph, attr)
                path.write_bytes(pickle.dumps(artifacts))
                stripped += 1
        assert stripped == 1

    def test_pm_graph_without_index_is_not_served(self, tmp_path,
                                                  gcd_graph, monkeypatch):
        root = tmp_path / "s"
        self._write_format_one_tree(root, gcd_graph, FlowConfig(n_steps=7),
                                    monkeypatch)
        warm = Pipeline(cache=DiskArtifactCache(root)).run_context(
            gcd_graph, self.RESCHEDULE)
        assert warm.cache_hits == []
        assert warm.cache_misses == list(CACHEABLE)
        fresh = Pipeline().run(gcd_graph, self.RESCHEDULE)
        assert warm.result.design.summary() == fresh.design.summary()

    def test_served_under_its_own_format_it_would_break(self, tmp_path,
                                                        gcd_graph,
                                                        monkeypatch):
        """The hazard the format bump avoids: the old graph loads without
        error and fails on its first structure query downstream."""
        root = tmp_path / "s"
        self._write_format_one_tree(root, gcd_graph, FlowConfig(n_steps=7),
                                    monkeypatch)
        monkeypatch.setattr(store_module, "STORE_FORMAT", 1)
        with pytest.raises(AttributeError):
            Pipeline(cache=DiskArtifactCache(root)).run(gcd_graph,
                                                        self.RESCHEDULE)


class TestBounding:
    def test_lru_evicts_the_oldest_entry(self, open_store, tmp_path):
        store = open_store(tmp_path / "s", max_entries=3)
        for k in range(4):
            store.store((f"k{k}",), {"v": k})
        assert len(store) == 3
        assert store.stats.evictions == 1
        assert ("k0",) not in store  # oldest went
        assert all((f"k{k}",) in store for k in (1, 2, 3))

    def test_lookup_refreshes_recency(self, open_store, tmp_path):
        store = open_store(tmp_path / "s", max_entries=2)
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        assert store.lookup(("a",)) is not None  # a is now the newest
        store.store(("c",), {"v": 3})
        assert ("a",) in store
        assert ("b",) not in store

    def test_restore_of_existing_key_does_not_grow(self, open_store,
                                                   tmp_path):
        store = open_store(tmp_path / "s", max_entries=2)
        for _ in range(5):
            store.store(("same",), {"v": 1})
        assert len(store) == 1
        assert store.stats.evictions == 0


class TestWorkerShipping:
    def test_pickle_round_trip_shares_the_directory(self, store):
        store.store(("k",), {"v": 7})
        store.lookup(("k",))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.max_entries == store.max_entries
        assert clone.stats.lookups == 0  # stats are per-process
        assert clone.lookup(("k",)) == {"v": 7}
