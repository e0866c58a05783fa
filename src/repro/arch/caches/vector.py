"""The ``vector`` cache kernel: an exact replay of the scalar simulator.

Hit/miss classification is the one serial part — an LRU set lookup
per reference — and runs in C (:func:`repro.arch.compiled.cache_run`),
one call per reference stream on a cache that starts empty.  Everything
derived from the miss mask vectorizes with numpy: per-group
reference/miss/write counts (``np.bincount``), the miss-window series
(``np.add.reduceat``) and compulsory misses, the first miss of each
block in the stream (``np.unique``); the mask itself is returned as
``CacheStats.miss``.  The victim buffer never
influences main-cache classification, so it replays in Python over the
(small) installing-miss stream C reports.  When C cannot run,
:func:`simulate_vector` returns ``None`` and the caller runs the scalar
reference.
"""

from __future__ import annotations

import numpy as np

from .. import compiled


def simulate_vector(cfg, addrs, writes, groups, n_groups, window):
    """Vector implementation of :func:`.cache.simulate` (bit-identical
    to the scalar loop); ``None`` when the compiled classifier cannot
    run."""
    from .cache import CacheStats

    n = len(addrs)
    block_shift = cfg.block.bit_length() - 1
    blocks = np.ascontiguousarray(np.asarray(addrs, dtype=np.int64)
                                  >> block_shift)
    w = None if writes is None else np.ascontiguousarray(writes,
                                                         dtype=bool)
    g = None if groups is None else np.asarray(groups, dtype=np.int64)

    out = compiled.cache_run(
        blocks, None if cfg.write_allocate else w, cfg.n_sets, cfg.assoc,
        installs=cfg.victim_entries > 0)
    if out is None:
        return None
    miss, inst_idx, inst_evicted = out

    n_windows = (n + window - 1) // window if window else 0
    stats = CacheStats(n_groups, n_windows, miss)
    if g is None:
        stats.refs[0] = n
        stats.misses[0] = int(miss.sum())
        if w is not None:
            stats.write_refs[0] = int(w.sum())
            stats.write_misses[0] = int((miss & w).sum())
    else:
        stats.refs += np.bincount(g, minlength=n_groups)
        stats.misses += np.bincount(g[miss], minlength=n_groups)
        if w is not None:
            stats.write_refs += np.bincount(g[w], minlength=n_groups)
            stats.write_misses += np.bincount(g[miss & w],
                                              minlength=n_groups)
    if window and n:
        edges = np.arange(0, n, window, dtype=np.int64)
        stats.window_refs += np.add.reduceat(
            np.ones(n, dtype=np.int64), edges)
        stats.window_misses += np.add.reduceat(
            miss.astype(np.int64), edges)

    # Compulsory misses: the first miss of each block in the stream.
    miss_idx = np.flatnonzero(miss)
    if len(miss_idx):
        _, first = np.unique(blocks[miss_idx], return_index=True)
        first_miss = miss_idx[first]
        if g is None:
            stats.compulsory[0] = len(first_miss)
        else:
            stats.compulsory += np.bincount(g[first_miss],
                                            minlength=n_groups)

    # -- victim buffer: a pure derived stream over installing misses --
    if len(inst_idx):
        victim: dict[int, int] = {}   # block -> lru stamp
        limit = cfg.victim_entries
        victim_hits = stats.victim_hits
        inst_group = (g[inst_idx].tolist() if g is not None
                      else [0] * len(inst_idx))
        for i, block, evicted, group in zip(
                inst_idx.tolist(), blocks[inst_idx].tolist(),
                inst_evicted.tolist(), inst_group):
            if block in victim:
                victim_hits[group] += 1
                del victim[block]
            if evicted >= 0:
                victim[evicted] = i + 1
                if len(victim) > limit:
                    oldest = min(victim, key=victim.get)
                    del victim[oldest]
    return stats
