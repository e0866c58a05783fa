"""The ``vector`` cache kernel: an exact replay of the scalar simulator.

Hit/miss classification is the one serial part — an LRU set lookup
per reference — and runs in C (:func:`repro.arch.compiled.cache_run`),
one call per reference stream.  Everything derived from the miss mask
vectorizes with numpy: per-group reference/miss/write counts
(``np.bincount``), the miss-window series (``np.add.reduceat``) and
compulsory misses (``np.unique``).  The victim buffer never influences
main-cache classification, so it replays in Python over the (small)
installing-miss stream C reports.

The simulator's persistent state stays the scalar loop's ``_sets``
dicts; it is converted to way arrays (at most ``n_sets × assoc``
entries) before the call and back after it, so scalar and vector runs
interleave freely on one ``CacheSim`` instance.  When C cannot run,
:func:`run_vector` returns ``None`` and the caller runs the scalar
reference.
"""

from __future__ import annotations

import numpy as np

from .. import compiled


def _export(sets_state, assoc: int):
    """``_sets`` as ``(ways, stamps, fill)`` arrays for ``cache_run``."""
    n_sets = len(sets_state)
    ways = np.zeros((n_sets, assoc), dtype=np.int64)
    stamps = np.zeros((n_sets, assoc), dtype=np.int64)
    fill = np.zeros(n_sets, dtype=np.int64)
    for set_id, contents in enumerate(sets_state):
        if contents:
            used = len(contents)
            ways[set_id, :used] = list(contents)
            stamps[set_id, :used] = list(contents.values())
            fill[set_id] = used
    return ways, stamps, fill


def _import(sets_state, ways, stamps, fill) -> None:
    """Write the way arrays back into ``_sets``."""
    for set_id, (way, stamp, used) in enumerate(zip(
            ways.tolist(), stamps.tolist(), fill.tolist())):
        sets_state[set_id] = dict(zip(way[:used], stamp[:used]))


def run_vector(sim, addrs, writes, groups, n_groups, window):
    """Vector implementation of :meth:`CacheSim.run` (bit-identical to
    the scalar loop, including persistent state); ``None`` when the
    compiled classifier cannot run, with ``sim`` untouched."""
    from .cache import CacheStats

    cfg = sim.config
    n = len(addrs)
    block_shift = cfg.block.bit_length() - 1
    blocks = np.ascontiguousarray(np.asarray(addrs, dtype=np.int64)
                                  >> block_shift)
    w = None if writes is None else np.ascontiguousarray(writes,
                                                         dtype=bool)
    g = None if groups is None else np.asarray(groups, dtype=np.int64)
    clock0 = sim._clock

    state = _export(sim._sets, cfg.assoc)
    out = compiled.cache_run(
        blocks, None if cfg.write_allocate else w, cfg.n_sets, cfg.assoc,
        clock0, *state, installs=cfg.victim_entries > 0)
    if out is None:
        return None
    miss, inst_idx, inst_evicted = out
    _import(sim._sets, *state)

    n_windows = (n + window - 1) // window if window else 0
    stats = CacheStats(n_groups, n_windows)
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

    # Compulsory misses: the first *miss* of a block never seen before.
    seen = sim._seen_blocks
    miss_idx = np.flatnonzero(miss)
    if len(miss_idx):
        uniq, first = np.unique(blocks[miss_idx], return_index=True)
        if seen:
            known = np.fromiter(seen, dtype=np.int64, count=len(seen))
            fresh = ~np.isin(uniq, known)
        else:
            fresh = np.ones(len(uniq), dtype=bool)
        first_new = miss_idx[first[fresh]]
        if g is None:
            stats.compulsory[0] = len(first_new)
        else:
            stats.compulsory += np.bincount(g[first_new],
                                            minlength=n_groups)
        seen.update(uniq[fresh].tolist())

    # -- victim buffer: a pure derived stream over installing misses --
    if len(inst_idx):
        victim = sim._victim
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
                victim[evicted] = clock0 + i + 1
                if len(victim) > limit:
                    oldest = min(victim, key=victim.get)
                    del victim[oldest]

    sim._clock = clock0 + n
    return stats
