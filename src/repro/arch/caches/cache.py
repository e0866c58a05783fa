"""Set-associative cache simulation (the cachesim5 stand-in).

Trace-driven LRU replacement, write-allocate or write-no-allocate, with
an optional victim buffer.  :func:`simulate` is the one entry point: it
replays one reference stream on a cache that starts empty, and keeps
no state between calls.  Supports:

- miss classification (compulsory — the first miss of each block in
  the stream — vs. other, write misses),
- per-group attribution (e.g. translate vs. rest of JIT — Figure 5),
- windowed time series of miss counts (Figure 6),
- the per-reference miss mask (the superscalar model's I- and D-miss
  columns).

Two kernels implement the same semantics bit-for-bit: the original
event-at-a-time ``scalar`` loop (the reference oracle, kept below) and
the ``vector`` kernel in :mod:`.vector` (the default), which classifies
hits and misses in C and derives the statistics with numpy; it falls
back to the scalar loop when the C kernel cannot run.  Select per call
with ``kernel=`` or globally with ``REPRO_SIM_KERNEL=scalar|vector``.
"""

from __future__ import annotations

import numpy as np

from .. import compiled
from ..kernels import active_kernel


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class CacheConfig:
    """Geometry, write policy and optional victim buffer of one cache."""

    __slots__ = ("size", "block", "assoc", "write_allocate",
                 "victim_entries", "name")

    def __init__(self, size: int, block: int = 32, assoc: int = 1,
                 write_allocate: bool = True, victim_entries: int = 0,
                 name: str = "") -> None:
        if not (_is_pow2(size) and _is_pow2(block) and _is_pow2(assoc)):
            raise ValueError("size, block and associativity must be powers of 2")
        if size < block * assoc:
            raise ValueError("cache smaller than one set")
        if victim_entries < 0:
            raise ValueError("victim_entries must be >= 0")
        self.size = size
        self.block = block
        self.assoc = assoc
        self.write_allocate = write_allocate
        self.victim_entries = victim_entries
        policy = "" if write_allocate else "/wna"
        victim = f"+v{victim_entries}" if victim_entries else ""
        self.name = name or f"{size // 1024}K/{block}B/{assoc}way{policy}{victim}"

    @property
    def n_sets(self) -> int:
        return self.size // (self.block * self.assoc)

    def __repr__(self) -> str:
        return f"CacheConfig({self.name})"


class CacheStats:
    """Results of simulating one reference stream.

    ``miss`` is the per-reference miss mask the counts are derived from.
    """

    def __init__(self, n_groups: int, n_windows: int,
                 miss: np.ndarray) -> None:
        self.miss = miss
        self.refs = np.zeros(n_groups, dtype=np.int64)
        self.misses = np.zeros(n_groups, dtype=np.int64)
        self.victim_hits = np.zeros(n_groups, dtype=np.int64)
        self.write_refs = np.zeros(n_groups, dtype=np.int64)
        self.write_misses = np.zeros(n_groups, dtype=np.int64)
        self.compulsory = np.zeros(n_groups, dtype=np.int64)
        self.window_misses = np.zeros(n_windows, dtype=np.int64)
        self.window_refs = np.zeros(n_windows, dtype=np.int64)

    @property
    def total_refs(self) -> int:
        return int(self.refs.sum())

    @property
    def total_misses(self) -> int:
        return int(self.misses.sum())

    @property
    def miss_rate(self) -> float:
        total = self.total_refs
        return self.total_misses / total if total else 0.0

    def group_miss_rate(self, g: int) -> float:
        return self.misses[g] / self.refs[g] if self.refs[g] else 0.0

    @property
    def effective_miss_rate(self) -> float:
        """Miss rate counting victim-buffer hits as hits (Jouppi)."""
        total = self.total_refs
        if not total:
            return 0.0
        return (self.total_misses - int(self.victim_hits.sum())) / total

    @property
    def write_miss_fraction(self) -> float:
        """Fraction of all misses that are write misses (Figure 3)."""
        total = self.total_misses
        return int(self.write_misses.sum()) / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheStats(refs={self.total_refs}, misses={self.total_misses}, "
            f"rate={self.miss_rate:.4f})"
        )


def simulate(
    config: CacheConfig,
    addrs: np.ndarray,
    writes: np.ndarray | None = None,
    groups: np.ndarray | None = None,
    n_groups: int = 1,
    window: int = 0,
    kernel: str | None = None,
) -> CacheStats:
    """Simulate a reference stream on a cache that starts empty.

    ``writes``: optional boolean array marking stores.
    ``groups``: optional small-int array attributing each reference to
    a statistics group.
    ``window``: if > 0, also record a (refs, misses) time series with
    that many references per window.
    ``kernel``: override the ``REPRO_SIM_KERNEL`` selection.
    """
    if active_kernel(kernel) == "vector":
        from .vector import simulate_vector
        stats = compiled.note("caches", simulate_vector(
            config, addrs, writes, groups, n_groups, window))
        if stats is not None:
            return stats
    return _simulate_scalar(config, addrs, writes, groups, n_groups, window)


def _simulate_scalar(cfg, addrs, writes, groups, n_groups,
                     window) -> CacheStats:
    """Reference oracle: the original event-at-a-time loop."""
    block_shift = cfg.block.bit_length() - 1
    set_mask = cfg.n_sets - 1
    assoc = cfg.assoc

    n = len(addrs)
    n_windows = (n + window - 1) // window if window else 0
    stats = CacheStats(n_groups, n_windows, np.zeros(n, dtype=bool))
    miss = stats.miss

    blocks = (np.asarray(addrs, dtype=np.int64) >> block_shift).tolist()
    write_list = (
        np.asarray(writes, dtype=bool).tolist() if writes is not None
        else None
    )
    group_list = (
        np.asarray(groups, dtype=np.int64).tolist() if groups is not None
        else None
    )

    write_allocate = cfg.write_allocate
    victim_entries = cfg.victim_entries
    victim: dict[int, int] = {}   # block -> lru stamp
    victim_hits = stats.victim_hits
    sets: list[dict[int, int]] = [dict() for _ in range(cfg.n_sets)]
    seen: set[int] = set()
    clock = 0
    refs = stats.refs
    misses = stats.misses
    write_refs = stats.write_refs
    write_misses = stats.write_misses
    compulsory = stats.compulsory
    wm = stats.window_misses
    wr = stats.window_refs

    for i, block in enumerate(blocks):
        g = group_list[i] if group_list is not None else 0
        is_write = write_list[i] if write_list is not None else False
        refs[g] += 1
        if is_write:
            write_refs[g] += 1
        if window:
            wr[i // window] += 1
        s = sets[block & set_mask]
        clock += 1
        if block in s:
            s[block] = clock
            continue
        # Miss path.
        miss[i] = True
        misses[g] += 1
        if is_write:
            write_misses[g] += 1
        if block not in seen:
            compulsory[g] += 1
            seen.add(block)
        if window:
            wm[i // window] += 1
        if is_write and not write_allocate:
            continue   # write-around: the block is not installed
        if victim_entries and block in victim:
            victim_hits[g] += 1
            del victim[block]
        if len(s) >= assoc:
            evicted = min(s, key=s.get)
            del s[evicted]
            if victim_entries:
                victim[evicted] = clock
                if len(victim) > victim_entries:
                    oldest = min(victim, key=victim.get)
                    del victim[oldest]
        s[block] = clock
    return stats
