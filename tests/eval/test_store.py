"""Content-addressed result-store tests: addressing, atomicity, recovery,
eviction, contract retirement, and cross-session merge."""

import os

import numpy as np
import pytest

from repro.eval.cache import RNG_CONTRACT, ResultStore, content_hash


KEY = "task=audio|method=proposed|kind=bitflip|level=0.1|runs=3|demo"
OTHER = "task=audio|method=proposed|kind=bitflip|level=0.2|runs=3|demo"


@pytest.fixture
def store(tmp_path):
    return ResultStore(root=tmp_path / "store")


class TestAddressing:
    def test_address_is_content_derived(self, store):
        digest = content_hash(KEY)
        address = store.address(KEY)
        assert address.name == f"{digest}.npz"
        assert address.parent.name == digest[:2]

    def test_round_trip(self, store):
        values = np.array([0.5, 0.25, 0.125])
        assert store.put(KEY, values)
        store.clear_memory()
        np.testing.assert_array_equal(store.get(KEY), values)

    def test_distinct_keys_distinct_addresses(self, store):
        assert store.address(KEY) != store.address(OTHER)

    def test_miss_returns_none(self, store):
        assert store.get(KEY) is None
        assert store.misses == 1


class TestCounters:
    def test_hit_miss_put_accounting(self, store):
        store.get(KEY)
        store.put(KEY, np.array([1.0]))
        store.clear_memory()
        store.get(KEY)
        snap = store.snapshot()
        assert snap["misses"] == 1
        assert snap["puts"] == 1
        assert snap["hits"] == 1

    def test_snapshot_is_a_copy(self, store):
        snap = store.snapshot()
        snap["hits"] = 99
        assert store.hits == 0


class TestAtomicity:
    def test_no_partial_files_left_behind(self, store):
        for i in range(8):
            store.put(f"{KEY}|{i}", np.arange(3, dtype=np.float64))
        leftovers = [
            p for p in store.root.rglob("*") if p.is_file()
            and not p.name.endswith(".npz")
        ]
        assert leftovers == []
        assert len(store) == 8

    def test_duplicate_put_is_a_merge(self, store):
        values = np.array([1.0, 2.0])
        assert store.put(KEY, values) is True
        payload = store.address(KEY).read_bytes()
        store.clear_memory()
        assert store.put(KEY, values.copy()) is False
        assert store.merges == 1
        # Merge never rewrites the entry (mtime may refresh for LRU).
        assert store.address(KEY).read_bytes() == payload

    def test_conflicting_put_raises(self, store):
        store.put(KEY, np.array([1.0, 2.0]))
        store.clear_memory()
        with pytest.raises(RuntimeError, match="conflict"):
            store.put(KEY, np.array([1.0, 3.0]))


class TestRecovery:
    def test_truncated_entry_is_recovered_as_miss(self, store):
        store.put(KEY, np.array([1.0]))
        store.clear_memory()
        address = store.address(KEY)
        address.write_bytes(address.read_bytes()[:20])
        assert store.get(KEY) is None
        assert store.recovered == 1
        assert not address.exists()

    def test_garbage_entry_is_recovered_as_miss(self, store):
        address = store.address(KEY)
        address.parent.mkdir(parents=True)
        address.write_bytes(b"not a zip archive")
        assert store.get(KEY) is None
        assert store.recovered == 1

    def test_key_mismatch_is_treated_as_corruption(self, store):
        """An entry whose stored key differs from the probe key (hash
        collision or a tampered file moved to the wrong address) must not
        serve foreign values."""
        store.put(OTHER, np.array([9.0]))
        store.clear_memory()
        os.renames(store.address(OTHER), store.address(KEY))
        assert store.get(KEY) is None
        assert store.recovered == 1

    def test_recovery_allows_fresh_put(self, store):
        address = store.address(KEY)
        address.parent.mkdir(parents=True)
        address.write_bytes(b"junk")
        assert store.get(KEY) is None
        assert store.put(KEY, np.array([4.0]))
        store.clear_memory()
        np.testing.assert_array_equal(store.get(KEY), [4.0])


class TestContract:
    def _write_with_contract(self, store, key, contract):
        store.put(key, np.array([1.0]))
        address = store.address(key)
        data = dict(np.load(address, allow_pickle=False))
        with open(address, "wb") as fh:
            np.savez(fh, key=np.asarray(key), contract=np.asarray(contract),
                     values=data["values"])
        store.clear_memory()

    def test_stale_contract_is_retired(self, store):
        self._write_with_contract(store, KEY, "mc1-legacy")
        assert store.get(KEY) is None
        assert store.retired == 1
        assert not store.address(KEY).exists()

    def test_retire_stale_sweeps_whole_store(self, store):
        self._write_with_contract(store, KEY, "mc1-legacy")
        store.put(OTHER, np.array([2.0]))
        assert store.retire_stale() == 1
        assert len(store) == 1
        assert store.get(OTHER) is not None

    def test_current_contract_survives(self, store):
        self._write_with_contract(store, KEY, RNG_CONTRACT)
        assert store.get(KEY) is not None


class TestEviction:
    def test_lru_eviction_keeps_recent(self, store, tmp_path):
        for i in range(6):
            store.put(f"{KEY}|{i}", np.array([float(i)]))
            os.utime(store.address(f"{KEY}|{i}"), ns=(i * 10**9, i * 10**9))
        assert store.evict(max_entries=2) == 4
        assert len(store) == 2
        store.clear_memory()
        np.testing.assert_array_equal(store.get(f"{KEY}|5"), [5.0])
        assert store.get(f"{KEY}|0") is None

    def test_bounded_store_evicts_on_put(self, tmp_path):
        store = ResultStore(root=tmp_path / "store")
        for i in range(5):
            store.put(f"{KEY}|{i}", np.array([float(i)]))
            store.evict(3)
        assert len(store) <= 3
        assert store.evicted >= 2

    def test_evict_noop_under_limit(self, store):
        store.put(KEY, np.array([1.0]))
        assert store.evict(max_entries=10) == 0


class TestEvictionBoundary:
    """Exact behaviour of a bounded result store at its capacity edge."""

    CAP = 4

    @classmethod
    def _put(cls, store, i):
        """Store entry ``i``, pin its recency to a distinct old mtime, and
        bound the store to ``CAP`` entries."""
        key = f"cell-{i}"
        store.put(key, np.full(3, float(i)))
        stamp = 1_000_000 + i
        os.utime(store.address(key), (stamp, stamp))
        store.evict(cls.CAP)

    @staticmethod
    def _resident(store, count):
        return [i for i in range(count) if store.address(f"cell-{i}").exists()]

    def test_capacity_exactly_reached_keeps_every_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(self.CAP):
            self._put(store, i)
        assert len(store) == self.CAP and store.evicted == 0
        reader = ResultStore(tmp_path)  # fresh session: served from disk
        for i in range(self.CAP):
            np.testing.assert_array_equal(reader.get(f"cell-{i}"), np.full(3, i))
        assert reader.hits == self.CAP and reader.misses == 0

    def test_one_past_capacity_evicts_exactly_the_oldest(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(self.CAP):
            self._put(store, i)
        store.put("cell-new", np.zeros(3))
        store.evict(self.CAP)  # newest mtime: now
        assert store.evicted == 1 and len(store) == self.CAP
        assert self._resident(store, self.CAP) == list(range(1, self.CAP))
        reader = ResultStore(tmp_path)
        assert reader.get("cell-0") is None  # the evicted key misses
        assert reader.get("cell-new") is not None

    def test_served_entry_refreshes_recency(self, tmp_path):
        """A served entry becomes most recent and survives the next eviction."""
        store = ResultStore(tmp_path)
        for i in range(self.CAP):
            self._put(store, i)
        assert ResultStore(tmp_path).get("cell-0") is not None  # touch LRU
        store.put("cell-new", np.zeros(3))
        store.evict(self.CAP)
        assert self._resident(store, self.CAP) == [0] + list(range(2, self.CAP))
        assert store.evicted == 1

    def test_counters_accumulate_across_eviction(self, tmp_path):
        """Store counters are monotone totals, never reset by eviction."""
        store = ResultStore(tmp_path)
        for i in range(self.CAP + 3):
            self._put(store, i)
        first = store.snapshot()
        assert first["puts"] == self.CAP + 3 and first["evicted"] == 3
        store.get("cell-0")  # evicted: a miss
        for i in range(self.CAP + 3, self.CAP + 5):
            self._put(store, i)
        second = store.snapshot()
        for name, value in first.items():
            assert second[name] >= value
        assert second["puts"] == first["puts"] + 2
        assert second["evicted"] == first["evicted"] + 2
        assert second["misses"] == first["misses"] + 1


class TestCrossSession:
    def test_two_stores_same_root_merge(self, tmp_path):
        root = tmp_path / "store"
        a = ResultStore(root=root)
        b = ResultStore(root=root)
        a.put(KEY, np.array([1.0, 2.0]))
        # Session b computed the same campaign independently — identical
        # values by the RNG contract — and lands a merge, not a rewrite.
        assert b.put(KEY, np.array([1.0, 2.0])) is False
        assert b.merges == 1
        np.testing.assert_array_equal(b.get(KEY), [1.0, 2.0])

    def test_entries_visible_across_instances(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root=root).put(KEY, np.array([7.0]))
        np.testing.assert_array_equal(ResultStore(root=root).get(KEY), [7.0])


class TestStrayLegacyLayout:
    def test_stray_campaigns_npy_is_ignored(self, isolated_cache):
        """Only content-addressed entries serve; ``campaigns/<key>.npy``
        files left beside the default store are never read."""
        legacy = isolated_cache / "campaigns"
        legacy.mkdir()
        np.save(legacy / f"{KEY}.npy", np.array([3.0, 4.0]))
        store = ResultStore()
        assert store.root == isolated_cache / "store"
        assert store.get(KEY) is None
        assert store.misses == 1
        assert not store.address(KEY).exists()
