"""Batched numpy cache kernel — an exact replay of the scalar simulator.

All per-event bookkeeping (reference/write/window counts, compulsory
classification) vectorizes directly with ``np.bincount`` /
``np.add.reduceat`` / ``np.unique``.  Hit/miss classification is the
genuinely sequential part, split by geometry:

Direct-mapped
    Within a set the resident block is simply the block of the last
    *installing* access, so a stable sort by set index plus a running
    maximum over install positions (a forward fill) classifies every
    reference with no Python loop.  Under write-no-allocate only reads
    install, which the install mask expresses; everything else is
    unchanged.

Set-associative LRU
    Consecutive same-block accesses to a set are guaranteed hits once
    the first access of the run leaves the block resident — always
    true under write-allocate, and true after any *read* under
    write-no-allocate.  Real traces run-collapse dramatically (the
    interpreter's instruction stream collapses >100x), so only the
    collapsed "head" accesses replay through the exact dict-based LRU
    loop.  Each head's stamp is patched to the run-*last* event index,
    which is precisely the stamp the scalar loop would leave after the
    collapsed hits refreshed it.

The victim buffer never influences main-cache hit/miss classification,
so it replays separately over the (small) installing-miss stream.

Both paths read and write the scalar simulator's state
(``_sets``/``_clock``/``_seen_blocks``/``_victim``), so scalar and
vector runs interleave freely on one ``CacheSim`` instance.
"""

from __future__ import annotations

import numpy as np


def _state_prefix(sets_state):
    """Flatten persistent per-set contents into synthetic installing
    events (LRU-first so relative stamps are preserved)."""
    set_ids, blocks, stamps = [], [], []
    for set_id, contents in enumerate(sets_state):
        if not contents:
            continue
        for block, stamp in sorted(contents.items(), key=lambda kv: kv[1]):
            set_ids.append(set_id)
            blocks.append(block)
            stamps.append(stamp)
    return (
        np.asarray(set_ids, dtype=np.int64),
        np.asarray(blocks, dtype=np.int64),
        np.asarray(stamps, dtype=np.int64),
    )


def _sort_by_set(set_ids, n_sets):
    """Stable argsort by set index.

    Numpy's stable sort on integers is a radix sort whose cost scales
    with the key width; set indices are tiny, so sorting a narrowed
    copy of the key is several times faster than sorting the int64
    original (the returned order indexes the original arrays either
    way).
    """
    if n_sets <= 1 << 15:
        key = set_ids.astype(np.int16)
    elif n_sets <= 1 << 31:
        key = set_ids.astype(np.int32)
    else:  # pragma: no cover - no geometry has 2^31 sets
        key = set_ids
    return np.argsort(key, kind="stable")


def _classify_direct(cfg, sets_state, blocks, writes, clock0, need_installs):
    """Direct-mapped classification with no per-event Python loop.

    Returns ``(miss, installs)`` where ``installs`` is a list of
    ``(event_index, evicted_block_or_-1)`` for installing misses in
    event order (only populated when ``need_installs``).  Updates
    ``sets_state`` to the final contents.
    """
    n = len(blocks)
    set_mask = cfg.n_sets - 1
    sets = blocks & set_mask

    syn_sets, syn_blocks, syn_stamps = _state_prefix(sets_state)
    ns = len(syn_sets)
    m = ns + n

    if ns:
        set_ext = np.concatenate([syn_sets, sets])
        blk_ext = np.concatenate([syn_blocks, blocks])
        stamp_ext = np.empty(m, dtype=np.int64)
        stamp_ext[:ns] = syn_stamps
        stamp_ext[ns:] = clock0 + 1 + np.arange(n, dtype=np.int64)
    else:  # fresh simulator: skip the copies
        set_ext = sets
        blk_ext = blocks
        stamp_ext = clock0 + 1 + np.arange(n, dtype=np.int64)
    if cfg.write_allocate or writes is None:
        inst_ext = np.ones(m, dtype=bool)
    elif ns:  # write-no-allocate: only reads (and imported state) install
        inst_ext = np.concatenate([np.ones(ns, dtype=bool), ~writes])
    else:
        inst_ext = ~writes

    # Stable sort groups each set's events together in event order,
    # with the synthetic state prefix first.
    order = _sort_by_set(set_ext, cfg.n_sets)
    ss = set_ext[order]
    bs = blk_ext[order]
    inst = inst_ext[order]
    svs = stamp_ext[order]

    pos = np.arange(m, dtype=np.int64)
    newgrp = np.empty(m, dtype=bool)
    newgrp[0] = True
    newgrp[1:] = ss[1:] != ss[:-1]
    gstart = np.maximum.accumulate(np.where(newgrp, pos, 0))
    # Forward fill of the last installing position (inclusive / strict).
    last_inst = np.maximum.accumulate(np.where(inst, pos, np.int64(-1)))
    prev_inst = np.empty(m, dtype=np.int64)
    prev_inst[0] = -1
    prev_inst[1:] = last_inst[:-1]
    valid = prev_inst >= gstart
    resident = np.where(valid, bs[np.maximum(prev_inst, 0)], np.int64(-1))
    miss_s = resident != bs

    if ns:
        real = order >= ns
        orig = order[real] - ns
        miss = np.empty(n, dtype=bool)
        miss[orig] = miss_s[real]
    else:
        miss = np.empty(n, dtype=bool)
        miss[order] = miss_s

    installs: list[tuple[int, int]] = []
    if need_installs:
        sel = miss_s & inst
        if ns:
            sel &= real
        idxs = order[sel] - ns
        evicted = resident[sel]
        by_event = np.argsort(idxs)
        installs = list(zip(idxs[by_event].tolist(),
                            evicted[by_event].tolist()))

    # -- export final per-set state -----------------------------------
    starts = np.flatnonzero(newgrp)
    end_pos = np.empty(len(starts), dtype=np.int64)
    end_pos[:-1] = starts[1:] - 1
    end_pos[-1] = m - 1
    touched_sets = ss[end_pos]
    li_end = last_inst[end_pos]
    have = li_end >= gstart[end_pos]
    res_final = np.where(have, bs[np.maximum(li_end, 0)], np.int64(-1))
    # Final stamp: positions at/after the final install that touch the
    # resident are the install itself and its hits, and stamps grow
    # with position — so it sits at max(last install, last hit).
    last_hit = np.maximum.reduceat(
        np.where(miss_s, np.int64(-1), pos), starts)
    stamp_pos = np.maximum(last_hit, li_end)
    best = svs[np.maximum(stamp_pos, 0)]
    for set_id, block, stamp, present in zip(
        touched_sets.tolist(), res_final.tolist(), best.tolist(),
        have.tolist()
    ):
        sets_state[set_id] = {block: stamp} if present else {}
    return miss, installs


def _classify_assoc2(cfg, sets_state, blocks, writes, clock0,
                     need_installs):
    """Exact 2-way LRU with no Python loop over events.

    After run-collapse the per-set head sequence is consecutive-
    distinct, so by induction the LRU stack after head ``i`` is always
    exactly ``[b[i], b[i-1]]`` — whether ``i`` hit or missed.  A head
    therefore hits iff its block equals the head two back in the same
    set, and a full-set miss evicts that two-back block.  Only valid
    when every access installs (write-allocate, or no write stream),
    which is what makes collapsed followers guaranteed hits.
    """
    n = len(blocks)
    set_mask = cfg.n_sets - 1
    sets = blocks & set_mask

    syn_sets, syn_blocks, syn_stamps = _state_prefix(sets_state)
    ns = len(syn_sets)
    m = ns + n
    if ns:
        set_ext = np.concatenate([syn_sets, sets])
        blk_ext = np.concatenate([syn_blocks, blocks])
        stamp_ext = np.empty(m, dtype=np.int64)
        stamp_ext[:ns] = syn_stamps
        stamp_ext[ns:] = clock0 + 1 + np.arange(n, dtype=np.int64)
    else:
        set_ext = sets
        blk_ext = blocks
        stamp_ext = clock0 + 1 + np.arange(n, dtype=np.int64)

    order = _sort_by_set(set_ext, cfg.n_sets)
    bs = blk_ext[order]
    # Same block implies same set, so block equality alone collapses.
    same = np.empty(m, dtype=bool)
    same[0] = False
    same[1:] = bs[1:] == bs[:-1]
    head_pos = np.flatnonzero(~same)
    h = len(head_pos)
    run_last = np.empty(h, dtype=np.int64)
    run_last[:-1] = head_pos[1:] - 1
    run_last[-1] = m - 1
    h_stamp = stamp_ext[order[run_last]]

    hb = bs[head_pos]
    hs = hb & set_mask
    newh = np.empty(h, dtype=bool)
    newh[0] = True
    newh[1:] = hs[1:] != hs[:-1]
    hit = np.zeros(h, dtype=bool)
    if h > 2:
        # i-1 and i-2 both in this set, and the two-back block matches.
        full = ~newh[2:] & ~newh[1:-1]
        hit[2:] = full & (hb[2:] == hb[:-2])

    h_orig = order[head_pos]
    real_h = h_orig >= ns
    miss = np.zeros(n, dtype=bool)
    miss[h_orig[real_h] - ns] = ~hit[real_h]

    installs: list[tuple[int, int]] = []
    if need_installs:
        sel = real_h & ~hit
        idxs = h_orig[sel] - ns
        evicted = np.full(h, np.int64(-1))
        if h > 2:
            two_back_ok = ~newh[2:] & ~newh[1:-1]
            evicted[2:] = np.where(two_back_ok, hb[:-2], np.int64(-1))
        evicted = evicted[sel]
        by_event = np.argsort(idxs)
        installs = list(zip(idxs[by_event].tolist(),
                            evicted[by_event].tolist()))

    # -- export final per-set state: the last two heads of each set ---
    endh = np.empty(h, dtype=bool)
    endh[-1] = True
    endh[:-1] = newh[1:]
    last = np.flatnonzero(endh)
    hb_l = hb[last].tolist()
    st_l = h_stamp[last].tolist()
    prev_ok = (last > 0) & ~newh[last]
    hb_p = np.where(prev_ok, hb[np.maximum(last - 1, 0)], -1).tolist()
    st_p = np.where(prev_ok, h_stamp[np.maximum(last - 1, 0)], -1).tolist()
    for set_id, bl, sl, ok, bp, sp in zip(
        hs[last].tolist(), hb_l, st_l, prev_ok.tolist(), hb_p, st_p
    ):
        sets_state[set_id] = {bp: sp, bl: sl} if ok else {bl: sl}
    return miss, installs


def _classify_assoc(cfg, sets_state, blocks, writes, clock0, need_installs):
    """Set-associative LRU via run-collapse plus an exact head replay.

    Mutates ``sets_state`` in place (the same dicts the scalar loop
    uses); returns ``(miss, installs)`` like :func:`_classify_direct`.
    """
    n = len(blocks)
    set_mask = cfg.n_sets - 1
    assoc = cfg.assoc
    wna = not cfg.write_allocate
    sets = blocks & set_mask

    order = _sort_by_set(sets, cfg.n_sets)
    bs = blocks[order]
    same = np.empty(n, dtype=bool)
    same[0] = False
    # Same block implies same set, so block equality alone collapses.
    same[1:] = bs[1:] == bs[:-1]
    if wna and writes is not None:
        # Only an access following a *read* of the same block is a
        # guaranteed hit (the read either hit or installed the block).
        prev_read = np.empty(n, dtype=bool)
        prev_read[0] = False
        prev_read[1:] = ~writes[order][:-1]
        collapsed = same & prev_read
    else:
        collapsed = same
    head_pos = np.flatnonzero(~collapsed)
    run_last = np.empty(len(head_pos), dtype=np.int64)
    run_last[:-1] = head_pos[1:] - 1
    run_last[-1] = n - 1
    # The stamp each head leaves behind: the collapsed followers are
    # hits that refresh it up to the run's last event.
    head_stamps = clock0 + 1 + order[run_last]

    head_orig = order[head_pos]
    by_event = np.argsort(head_orig)  # replay heads in global order
    head_orig = head_orig[by_event]
    h_idx = head_orig.tolist()
    h_block_arr = bs[head_pos][by_event]
    h_block = h_block_arr.tolist()
    h_set = (h_block_arr & set_mask).tolist()
    h_stamp = head_stamps[by_event].tolist()
    h_write = (writes[head_orig].tolist()
               if wna and writes is not None else None)

    miss = np.zeros(n, dtype=bool)
    installs: list[tuple[int, int]] = []
    record = installs.append
    if h_write is None:
        for idx, block, set_id, stamp in zip(h_idx, h_block, h_set,
                                             h_stamp):
            contents = sets_state[set_id]
            if block in contents:
                contents[block] = stamp
                continue
            miss[idx] = True
            if len(contents) >= assoc:
                evicted = min(contents, key=contents.get)
                del contents[evicted]
                if need_installs:
                    record((idx, evicted))
            elif need_installs:
                record((idx, -1))
            contents[block] = stamp
    else:
        for idx, block, set_id, stamp, write in zip(h_idx, h_block,
                                                    h_set, h_stamp,
                                                    h_write):
            contents = sets_state[set_id]
            if block in contents:
                contents[block] = stamp
                continue
            miss[idx] = True
            if write:
                continue  # write-around: not installed
            if len(contents) >= assoc:
                evicted = min(contents, key=contents.get)
                del contents[evicted]
                if need_installs:
                    record((idx, evicted))
            elif need_installs:
                record((idx, -1))
            contents[block] = stamp
    return miss, installs


def classify(cfg, sets_state, blocks, writes, clock0, need_installs=False):
    """Hit/miss classification for one reference stream, updating
    ``sets_state`` exactly as the scalar loop would."""
    if cfg.assoc == 1:
        return _classify_direct(cfg, sets_state, blocks, writes, clock0,
                                need_installs)
    if cfg.assoc == 2 and (writes is None or cfg.write_allocate):
        return _classify_assoc2(cfg, sets_state, blocks, writes, clock0,
                                need_installs)
    return _classify_assoc(cfg, sets_state, blocks, writes, clock0,
                           need_installs)


def run_vector(sim, addrs, writes, groups, n_groups, window):
    """Vector implementation of :meth:`CacheSim.run` (bit-identical to
    the scalar loop, including persistent state)."""
    from .cache import CacheStats

    cfg = sim.config
    n = len(addrs)
    n_windows = (n + window - 1) // window if window else 0
    stats = CacheStats(n_groups, n_windows)
    if n == 0:
        return stats

    block_shift = cfg.block.bit_length() - 1
    blocks = np.asarray(addrs, dtype=np.int64) >> block_shift
    w = None if writes is None else np.asarray(writes, dtype=bool)
    g = None if groups is None else np.asarray(groups, dtype=np.int64)
    clock0 = sim._clock

    miss, installs = classify(cfg, sim._sets, blocks, w, clock0,
                              need_installs=cfg.victim_entries > 0)

    # -- hoisted per-event bookkeeping --------------------------------
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
    if window:
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
    if cfg.victim_entries and installs:
        victim = sim._victim
        limit = cfg.victim_entries
        victim_hits = stats.victim_hits
        group_list = g.tolist() if g is not None else None
        block_list = blocks.tolist()
        for i, evicted in installs:
            block = block_list[i]
            if block in victim:
                victim_hits[group_list[i] if group_list else 0] += 1
                del victim[block]
            if evicted >= 0:
                victim[evicted] = clock0 + i + 1
                if len(victim) > limit:
                    oldest = min(victim, key=victim.get)
                    del victim[oldest]

    sim._clock = clock0 + n
    return stats
