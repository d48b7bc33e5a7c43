"""DiskArtifactCache's SQLite index: exact LRU, gc, concurrent eviction,
and serving a tree written before the index existed.

The store contract (miss/hit, persistence, corruption, pickling) lives
in ``test_store.py``; here live the behaviors the index provides.
"""

import concurrent.futures
import pickle
import sqlite3
import threading
from pathlib import Path

import pytest

from repro.pipeline import CacheStats, DiskArtifactCache, FlowConfig, Pipeline
from repro.pipeline.store import INDEX_NAME

CACHEABLE = ("analyze", "power_manage", "schedule", "allocate", "elaborate")


@pytest.fixture
def store(tmp_path):
    return DiskArtifactCache(tmp_path / "store")


class IndexlessWriter:
    """Writes entries the way the store did before it had an index: one
    pickle per key at ``<root>/<sha256[:2]>/<sha256[2:]>.pkl`` and no
    ``index.db``.  Lookups always miss, so a pipeline stores every
    cacheable stage."""

    def __init__(self, root):
        self.root = Path(root)
        self.stats = CacheStats()

    def lookup(self, key):
        return None

    def store(self, key, artifacts):
        digest = DiskArtifactCache.digest(key)
        path = self.root / digest[:2] / f"{digest[2:]}.pkl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(dict(artifacts),
                                      protocol=pickle.HIGHEST_PROTOCOL))

    def clear(self):
        pass


class TestExactEviction:
    def test_evicts_exactly_to_the_bound(self, tmp_path):
        """The store holds len() == max_entries after every overflow."""
        store = DiskArtifactCache(tmp_path / "s", max_entries=32)
        for k in range(40):
            store.store((f"k{k}",), {"v": k})
            assert len(store) <= 32
        assert len(store) == 32
        assert store.stats.evictions == 8
        # Exactly the 8 oldest went, in insertion (= seq) order.
        assert all((f"k{k}",) not in store for k in range(8))
        assert all((f"k{k}",) in store for k in range(8, 40))

    def test_recency_is_call_order_not_mtime(self, tmp_path):
        """The index sequences recency; file mtimes change nothing."""
        import os
        import time

        store = DiskArtifactCache(tmp_path / "s", max_entries=2)
        store.store(("old",), {"v": 1})
        store.store(("new",), {"v": 2})
        # Make "new" look ancient on disk; the index still knows better.
        ancient = time.time() - 10_000
        os.utime(store.path_for(("new",)), (ancient, ancient))
        store.store(("c",), {"v": 3})
        assert ("old",) not in store
        assert ("new",) in store

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        store = DiskArtifactCache(tmp_path / "s", max_entries=1)
        for k in range(5):
            store.store((f"k{k}",), {"v": k})
            assert store.lookup((f"k{k}",)) == {"v": k}
        assert len(store) == 1


class TestIndex:
    def test_index_file_lives_in_the_root(self, store):
        store.store(("k",), {"v": 1})
        assert (store.root / INDEX_NAME).exists()

    def test_len_matches_count_without_scanning(self, store):
        for k in range(10):
            store.store((f"k{k}",), {"v": k})
        assert len(store) == 10

    def test_total_bytes_tracks_entry_sizes(self, store):
        assert store.total_bytes() == 0
        store.store(("k",), {"v": list(range(100))})
        size = store.path_for(("k",)).stat().st_size
        assert store.total_bytes() == size

    def test_lookup_of_vanished_file_drops_the_row(self, store):
        store.store(("k",), {"v": 1})
        store.path_for(("k",)).unlink()
        assert store.lookup(("k",)) is None
        assert len(store) == 0

    def test_format_mismatch_rebuilds_the_index(self, tmp_path):
        store = DiskArtifactCache(tmp_path / "s")
        store.store(("k",), {"v": 1})
        store.close()
        with sqlite3.connect(store.index_path) as conn:
            conn.execute("UPDATE meta SET v = 999 WHERE k='format'")
        reopened = DiskArtifactCache(tmp_path / "s")
        assert len(reopened) == 0      # index dropped...
        assert ("k",) in reopened      # ...but the tree is the truth
        assert reopened.gc()["adopted"] == 1
        assert len(reopened) == 1

    def test_close_is_idempotent_and_reopens_lazily(self, store):
        store.store(("k",), {"v": 1})
        store.close()
        store.close()
        assert store.lookup(("k",)) == {"v": 1}


class TestUpgrade:
    """A store tree with no ``index.db`` — the layout the store left
    before it kept an index — is served warm and adopted by gc."""

    @pytest.fixture
    def tree(self, tmp_path, gcd_graph):
        root = tmp_path / "s"
        cold = Pipeline(cache=IndexlessWriter(root)).run_context(
            gcd_graph, FlowConfig(n_steps=7))
        assert cold.cache_misses == list(CACHEABLE)
        assert not (root / INDEX_NAME).exists()
        sizes = sum(p.stat().st_size for p in root.glob("??/*.pkl"))
        return root, cold, sizes

    def test_serves_it_warm_with_zero_recomputed_stages(self, tree,
                                                        gcd_graph):
        root, cold, sizes = tree
        store = DiskArtifactCache(root)
        warm = Pipeline(cache=store).run_context(gcd_graph,
                                                 FlowConfig(n_steps=7))
        assert warm.cache_hits == list(CACHEABLE)
        assert warm.cache_misses == []
        assert warm.result.design.summary() == \
            cold.result.design.summary()
        # Each hit indexed its entry, sizes included.
        assert len(store) == len(CACHEABLE)
        assert store.total_bytes() == sizes
        assert store.gc() == {"entries": len(CACHEABLE), "adopted": 0,
                              "dropped": 0, "evicted": 0}

    def test_gc_adopts_every_entry(self, tree, gcd_graph):
        root, _, sizes = tree
        store = DiskArtifactCache(root)
        assert len(store) == 0         # the new index knows nothing yet
        outcome = store.gc()
        assert outcome == {"entries": len(CACHEABLE),
                           "adopted": len(CACHEABLE),
                           "dropped": 0, "evicted": 0}
        assert store.total_bytes() == sizes
        warm = Pipeline(cache=store).run_context(gcd_graph,
                                                 FlowConfig(n_steps=7))
        assert warm.cache_misses == []

    def test_gc_reapplies_the_bound(self, tmp_path):
        writer = IndexlessWriter(tmp_path / "s")
        for k in range(10):
            writer.store((f"k{k}",), {"v": k})
        store = DiskArtifactCache(tmp_path / "s", max_entries=4)
        outcome = store.gc()
        assert outcome["adopted"] == 10
        assert outcome["evicted"] == 6
        assert len(store) == 4
        assert len(list(store.root.glob("??/*.pkl"))) == 4


class TestGC:
    def test_drops_rows_for_vanished_files(self, store):
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        store.path_for(("a",)).unlink()
        outcome = store.gc()
        assert outcome["dropped"] == 1
        assert outcome["entries"] == 1

    def test_noop_on_clean_store(self, store):
        store.store(("k",), {"v": 1})
        assert store.gc() == {"entries": 1, "adopted": 0,
                              "dropped": 0, "evicted": 0}


class TestConcurrency:
    def test_concurrent_writers_evict_disjoint_victims(self, tmp_path):
        """Hammer one bounded store from many threads: the claim-then-
        unlink protocol keeps the index exact (no double-counted or
        over-eager evictions)."""
        root = tmp_path / "s"
        writers = [DiskArtifactCache(root, max_entries=16)
                   for _ in range(4)]

        def hammer(writer, base):
            for k in range(40):
                writer.store((f"w{base}-{k}",), {"v": k})
            return writer.stats.evictions

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            evictions = list(pool.map(hammer, writers, range(4)))
        fresh = DiskArtifactCache(root, max_entries=16)
        assert len(fresh) == 16
        # Every over-bound store evicted exactly once in aggregate:
        # 160 stores into 16 slots -> 144 evictions, no double counts.
        assert sum(evictions) == 144
        assert fresh.gc()["dropped"] == 0  # index and tree agree

    def test_first_open_waits_out_a_racing_opener(self, tmp_path):
        """Pool workers sharing a fresh store race to switch its index to
        WAL, which needs an exclusive lock; the loser waits for it
        instead of failing its job with "database is locked"."""
        root = tmp_path / "s"
        root.mkdir()
        holder = sqlite3.connect(root / INDEX_NAME, isolation_level=None,
                                 check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("CREATE TABLE racing (x)")
        release = threading.Timer(0.2, holder.execute, ("COMMIT",))
        release.start()
        store = DiskArtifactCache(root)
        try:
            assert store.lookup(("k",)) is None
            store.store(("k",), {"v": 1})
            assert store.lookup(("k",)) == {"v": 1}
            assert len(store) == 1
        finally:
            release.join()
            holder.close()
            store.close()

    def test_eviction_tolerates_prestolen_files(self, tmp_path):
        # Simulate a racing evictor having already unlinked the victim.
        store = DiskArtifactCache(tmp_path / "s", max_entries=2)
        store.store(("a",), {"v": 1})
        store.store(("b",), {"v": 2})
        store.path_for(("a",)).unlink()
        store.store(("c",), {"v": 3})  # evicts "a": row gone, file gone
        assert len(store) == 2
        assert store.lookup(("c",)) == {"v": 3}
