"""Cache simulator: exact behaviour on hand-computed reference streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.caches import CacheConfig, simulate


def _run(addrs, size=1024, block=32, assoc=1, **kwargs):
    return simulate(CacheConfig(size, block, assoc), addrs, **kwargs)


class TestConfig:
    def test_n_sets(self):
        assert CacheConfig(1024, 32, 1).n_sets == 32
        assert CacheConfig(1024, 32, 4).n_sets == 8

    def test_rejects_non_powers_of_two(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 32, 1)
        with pytest.raises(ValueError):
            CacheConfig(1024, 24, 1)
        with pytest.raises(ValueError):
            CacheConfig(1024, 32, 3)

    def test_rejects_cache_smaller_than_set(self):
        with pytest.raises(ValueError):
            CacheConfig(32, 32, 4)


class TestDirectMapped:
    def test_cold_miss_then_hit(self):
        stats = _run(np.array([0, 0, 4, 31, 32]))
        # block 0 covers addrs 0..31: 1 miss + 3 hits; addr 32: new block
        assert stats.total_refs == 5
        assert stats.total_misses == 2
        assert stats.compulsory[0] == 2

    def test_conflict_misses(self):
        # 1024B direct-mapped: addresses 0 and 1024 collide in set 0.
        addrs = np.array([0, 1024, 0, 1024])
        stats = _run(addrs)
        assert stats.total_misses == 4
        assert stats.compulsory[0] == 2   # the other two are conflicts

    def test_distinct_sets_do_not_conflict(self):
        addrs = np.array([0, 32, 0, 32] * 10)
        stats = _run(addrs)
        assert stats.total_misses == 2

    def test_miss_rate(self):
        stats = _run(np.array([0, 0, 0, 1024]))
        assert stats.miss_rate == pytest.approx(0.5)


class TestAssociativity:
    def test_two_way_absorbs_pair_conflict(self):
        addrs = np.array([0, 1024, 0, 1024] * 5)
        assert _run(addrs, assoc=1).total_misses == 20
        assert _run(addrs, assoc=2).total_misses == 2

    def test_lru_victim_selection(self):
        # 2-way set: A, B fill the set; touching A again makes B the LRU;
        # C evicts B; B then misses, A still hits.
        A, B, C = 0, 1024, 2048
        stats = _run(np.array([A, B, A, C, A, B]), assoc=2)
        # misses: A, B, C, B(evicted) = 4
        assert stats.total_misses == 4

    def test_full_assoc_capacity(self):
        # 4 blocks capacity, cyclic 5-block walk: always misses (LRU worst).
        addrs = np.array([32 * (i % 5) for i in range(25)])
        assert _run(addrs, size=128, assoc=4).total_misses == 25

    def test_lru_inclusion(self):
        """A larger fully-associative LRU never misses more (stack property)."""
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 4096, size=2000) * 4
        small = _run(addrs, size=512, assoc=16)   # fully assoc, 16 blocks
        big = _run(addrs, size=1024, assoc=32)    # fully assoc, 32 blocks
        assert big.total_misses <= small.total_misses


class TestWriteTracking:
    def test_write_misses_classified(self):
        addrs = np.array([0, 64, 0, 64])
        writes = np.array([True, False, True, False])
        stats = _run(addrs, writes=writes, size=32)  # 1 set, everything conflicts
        assert stats.write_refs[0] == 2
        assert stats.write_misses[0] == 2
        assert stats.write_miss_fraction == pytest.approx(0.5)

    def test_write_allocate(self):
        # A write miss installs the block: the following read hits.
        stats = _run(np.array([0, 4]), writes=np.array([True, False]))
        assert stats.total_misses == 1


class TestGroupsAndWindows:
    def test_group_attribution(self):
        addrs = np.array([0, 1024, 0, 1024])
        groups = np.array([0, 1, 0, 1])
        stats = _run(addrs, groups=groups, n_groups=2)
        assert stats.refs.tolist() == [2, 2]
        assert stats.misses.tolist() == [2, 2]

    def test_shared_state_across_groups(self):
        # Group 1 warms the block; group 0 then hits.
        addrs = np.array([0, 0])
        groups = np.array([1, 0])
        stats = _run(addrs, groups=groups, n_groups=2)
        assert stats.misses.tolist() == [0, 1]

    def test_window_series(self):
        addrs = np.array([0, 0, 1024, 1024, 0, 0])
        stats = _run(addrs, window=2)
        assert stats.window_refs.tolist() == [2, 2, 2]
        assert stats.window_misses.tolist() == [1, 1, 1]


class TestOneStream:
    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_repeated_block_is_compulsory_once(self, kernel):
        # Direct-mapped: block 0 is evicted by block 32 and misses
        # again, a conflict miss; each block's first miss is compulsory.
        stats = _run(np.array([0, 1024, 0, 1024, 0]), kernel=kernel)
        assert stats.total_misses == 5
        assert stats.compulsory.tolist() == [2]

    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_each_call_starts_empty(self, kernel):
        config = CacheConfig(1024, 32, 1)
        for _ in range(2):
            stats = simulate(config, np.array([0, 0]), kernel=kernel)
            assert stats.total_misses == 1
            assert stats.compulsory.tolist() == [1]


class TestMissMask:
    @pytest.mark.parametrize("kernel", ["scalar", "vector"])
    def test_mask_marks_each_miss(self, kernel):
        stats = _run(np.array([0, 0, 1024, 1024, 0, 32]), kernel=kernel)
        assert stats.miss.dtype == bool
        assert stats.miss.tolist() == [True, False, True, False, True, True]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1 << 13), st.booleans()),
                    max_size=300),
           st.sampled_from(["scalar", "vector"]))
    def test_mask_is_the_one_reference_window_series(self, stream, kernel):
        """The mask the pipeline reads equals the per-reference windows
        it used to build, and sums to the miss count."""
        addrs = np.array([a for a, _ in stream], dtype=np.int64)
        writes = np.array([w for _, w in stream], dtype=bool)
        config = CacheConfig(1024, 32, 2, write_allocate=False)
        stats = simulate(config, addrs, writes=writes, kernel=kernel)
        windows = simulate(config, addrs, writes=writes, window=1,
                           kernel=kernel)
        assert stats.miss.tolist() == windows.window_misses.astype(
            bool).tolist()
        assert int(stats.miss.sum()) == stats.total_misses


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=300))
    def test_counts_consistent(self, raw):
        addrs = np.array(raw)
        stats = _run(addrs, assoc=2)
        assert stats.total_refs == len(raw)
        assert 0 <= stats.total_misses <= stats.total_refs
        assert stats.compulsory[0] == len({a >> 5 for a in raw} &
                                          {a >> 5 for a in raw})
        assert stats.compulsory[0] == len({a >> 5 for a in raw})
        assert stats.compulsory[0] <= stats.total_misses

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1,
                    max_size=200))
    def test_repeat_stream_second_pass_fits(self, raw):
        """If the footprint fits, a second pass over the stream is all hits."""
        footprint_blocks = len({a >> 5 for a in raw})
        if footprint_blocks > 32:
            return
        # Fully associative; the second window is the second pass.
        stats = _run(np.array(raw * 2), assoc=32, window=len(raw))
        assert stats.window_misses[1] == 0
