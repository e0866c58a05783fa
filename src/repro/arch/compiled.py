"""Compiled replay kernels: the serial loops of the pipeline, cache and
branch-predictor models, and of a trace's decode, in C, called through
:mod:`ctypes`.

One C source holds four functions, built together into one shared
object:

- ``schedule`` — :func:`.pipeline.superscalar._schedule`'s fetch / ROB
  recurrence;
- ``cache_run`` — set-associative LRU over a block stream
  (:func:`.caches.cache._simulate_scalar`'s lookup, install and
  eviction, with write-no-allocate);
- ``predict`` — the 2-bit counter tables of the direction predictors
  in :mod:`.branch.predictors` (shared counter, BHT, Gshare, GAp);
- ``gather_rows`` — one column of a template log's events over the rows
  a selection keeps, patch values applied
  (:meth:`repro.native.trace.Trace._gather`; the reference is
  :func:`repro.native.trace.expand` plus the stream masks).

The object is built lazily, on the first call, with the system C
compiler (``cc -O2 -shared -fPIC``) into the ``kernels`` row of the
content-addressed store (:data:`repro.analysis.cache.NAMESPACES`),
keyed by the digest of the source plus the build command.  The store
gives the shared object its lock, atomic write, ``.sha256`` sidecar and
quarantine, so a corrupt entry is rebuilt, never loaded.  With the
store disabled the object is built into a per-process temporary
directory removed at exit.

Each loop is serial, so a native call pays only when it does a whole
stream's work: every wrapper below makes one call per stream, with its
inputs widened to contiguous arrays for that call alone.  Each checks
first that its inputs lie in the range the C side handles; whenever C
cannot run (no compiler, a failed build, inputs out of range) it
returns ``None`` and the caller runs its Python reference instead, with
identical results.  :data:`IMPLEMENTATIONS` records which ran.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

#: Register-file size of the C recurrence: registers 0..32, the absent
#: source slot 33 and the absent destination slot 34.
NREGS = 35

SOURCE = r"""
#include <stdint.h>

int64_t schedule(int64_t n, const int64_t *fetch, const int64_t *lat,
                 const int64_t *dst, const int64_t *src1,
                 const int64_t *src2, int64_t drain, int64_t width,
                 int64_t *ring, int64_t rob_size)
{
    int64_t ready[%(nregs)d] = {0};
    int64_t issue = 1, free = width, last_done = 0, slot = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t f = fetch[i], t, u, done;
        if (f) {
            if ((f & 1) && !free)
                issue++;
            issue += f >> 2;
            free = width;
        } else if (!free) {
            issue++;
            free = width;
        }
        t = ready[src1[i]];
        u = ready[src2[i]];
        if (u > t)
            t = u;
        if (ring[slot] >= t)
            t = ring[slot] + 1;
        if (t > issue) {
            issue = t;
            free = width;
        }
        done = issue + lat[i];
        ready[dst[i]] = done;
        ring[slot] = done;
        if (++slot == rob_size)
            slot = 0;
        if (done > last_done)
            last_done = done;
        free--;
    }
    issue += drain - 1;
    return issue > last_done ? issue : last_done;
}

/* Set s holds fill[s] blocks in ways[s * assoc ...], each with the
   clock of its last reference in stamps[]; reference i has clock
   i + 1.  The sets start empty (fill all 0).  A write (write != 0 and
   write[i]) that misses is not installed.  Each installing miss's
   index and evicted block (-1 when the set had a free way) go to
   inst_idx / inst_evicted when those are given.  Returns the number of
   installing misses. */
int64_t cache_run(int64_t n, const int64_t *block, const uint8_t *write,
                  int64_t set_mask, int64_t assoc, int64_t *ways,
                  int64_t *stamps, int64_t *fill, uint8_t *miss,
                  int64_t *inst_idx, int64_t *inst_evicted)
{
    int64_t installs = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t b = block[i], s = b & set_mask, used = fill[s], k;
        int64_t *way = ways + s * assoc, *stamp = stamps + s * assoc;
        int64_t evicted = -1;
        for (k = 0; k < used && way[k] != b; k++)
            ;
        miss[i] = k == used;
        if (k < used) {
            stamp[k] = i + 1;
            continue;
        }
        if (write && write[i])
            continue;
        if (used < assoc) {
            fill[s] = used + 1;
        } else {
            k = 0;
            for (int64_t j = 1; j < assoc; j++)
                if (stamp[j] < stamp[k])
                    k = j;
            evicted = way[k];
        }
        way[k] = b;
        stamp[k] = i + 1;
        if (inst_idx) {
            inst_idx[installs] = i;
            inst_evicted[installs] = evicted;
        }
        installs++;
    }
    return installs;
}

/* 2-bit counters table[entries], indexed by (word if xor_word) ^ h,
   where h is hist[word %% hist_entries] (0 without a history table);
   the history shifts in each outcome under hmask. */
void predict(int64_t n, const int64_t *word, const uint8_t *taken,
             int64_t *table, int64_t entries, int64_t *hist,
             int64_t hist_entries, int64_t hmask, int64_t xor_word,
             uint8_t *out)
{
    for (int64_t k = 0; k < n; k++) {
        int64_t w = word[k], t = taken[k], h = 0, *hp = 0, i, v;
        if (hist_entries) {
            hp = hist + w %% hist_entries;
            h = *hp;
        }
        i = ((xor_word ? w : 0) ^ h) %% entries;
        v = table[i];
        out[k] = v >= 2;
        table[i] = t ? (v < 3 ? v + 1 : 3) : (v > 0 ? v - 1 : 0);
        if (hp)
            *hp = ((h << 1) | t) & hmask;
    }
}

/* One column of a template log's events, over the rows a selection
   keeps.  Emission e is template t = ids[e] (id_bytes 2 or 4 each);
   its kept rows are block[first[t] .. first[t] + count[t]), of
   item_bytes 2 or 8 each, written whole.  With a patch stream (pcount
   given), template t also owns the patches rank[pfirst[t] ..
   pfirst[t] + pcount[t]): each takes the stream's next value, and one
   whose rank is not negative writes it at that kept row of the
   emission, whole (bit 0, int64) or as the flag bit
   (row & ~bit) | value * bit (int16).  Returns the rows written, or -1
   when an id, the output or the patch stream would be overrun. */
int64_t gather_rows(int64_t n, const void *ids, int64_t id_bytes,
                    int64_t templates, const int64_t *first,
                    const int64_t *count, const void *block,
                    int64_t item_bytes, const int64_t *pfirst,
                    const int64_t *pcount, const int64_t *rank,
                    const void *values, int64_t n_values, int64_t bit,
                    void *out, int64_t n_out)
{
    int64_t k = 0, cursor = 0;
    for (int64_t e = 0; e < n; e++) {
        int64_t t = id_bytes == 2 ? ((const uint16_t *)ids)[e]
                                  : ((const uint32_t *)ids)[e];
        int64_t m;
        if (t >= templates || count[t] > n_out - k)
            return -1;
        m = count[t];
        if (item_bytes == 8) {
            const int64_t *s = (const int64_t *)block + first[t];
            int64_t *o = (int64_t *)out + k;
            for (int64_t j = 0; j < m; j++)
                o[j] = s[j];
        } else {
            const int16_t *s = (const int16_t *)block + first[t];
            int16_t *o = (int16_t *)out + k;
            for (int64_t j = 0; j < m; j++)
                o[j] = s[j];
        }
        if (pcount) {
            int64_t p = pcount[t];
            const int64_t *r = rank + pfirst[t];
            if (p > n_values - cursor)
                return -1;
            for (int64_t j = 0; j < p; j++) {
                if (r[j] < 0)
                    continue;
                if (bit) {
                    int16_t *o = (int16_t *)out + k + r[j];
                    *o = (int16_t)((*o & ~bit)
                                   | ((const int16_t *)values)[cursor + j]
                                     * bit);
                } else {
                    ((int64_t *)out)[k + r[j]] =
                        ((const int64_t *)values)[cursor + j];
                }
            }
            cursor += p;
        }
        k += m;
    }
    return k;
}
""" % {"nregs": NREGS}

#: The build command, less its input and output paths.
BUILD = ("cc", "-O2", "-shared", "-fPIC")

#: Store key of the shared object: the source and the command build it.
KEY = hashlib.sha256("\0".join((SOURCE,) + BUILD).encode()).hexdigest()

#: Cycle-count bounds and history masks stay below this, so no
#: ``int64`` sum can overflow.
_LIMIT = 1 << 62

#: Layer (``pipeline``, ``caches``, ``branch``, ``decode``) -> the
#: implementation (``"c"`` or ``"python"``) that last ran it in this
#: process, under the ``vector`` kernel (``decode`` under either: the
#: ``scalar`` kernel decodes in Python); run manifests and kernel
#: records name it.
IMPLEMENTATIONS: dict[str, str] = {}

_UNRESOLVED = object()
_library = _UNRESOLVED
_private_root: str | None = None


def find_compiler() -> str | None:
    """Path of the C compiler :data:`BUILD` names, or ``None``."""
    return shutil.which(BUILD[0])


def reset() -> None:
    """Forget the loaded kernels, so the next call resolves them again
    (tests; a process whose store directory changed)."""
    global _library
    _library = _UNRESOLVED


def note(layer: str, result):
    """Record whether ``layer`` ran in C (``result`` is not ``None``)
    and pass ``result`` through."""
    IMPLEMENTATIONS[layer] = "python" if result is None else "c"
    return result


def _kernels():
    """The loaded shared object, or ``None`` when it cannot be had."""
    global _library
    if _library is _UNRESOLVED:
        _library = _resolve()
    return _library


def _ptr(array: np.ndarray) -> int:
    return array.ctypes.data


def schedule(cols, width: int, rob_size: int) -> int | None:
    """Total cycles of ``cols`` on a ``width``-wide machine with a
    ``rob_size``-entry ROB, computed in C; ``None`` when C cannot run."""
    n = len(cols.lat)
    if width < 1 or rob_size < 1 or not _in_range(cols, n):
        return None
    lib = _kernels()
    if lib is None:
        return None
    wide = [np.ascontiguousarray(c, dtype=np.int64) for c in (
        cols.fetch, cols.lat, cols.dst, cols.src1, cols.src2)]
    # Slots past the trace's length would never be read.
    ring = np.zeros(min(rob_size, max(n, 1)), dtype=np.int64)
    return int(lib.schedule(n, *map(_ptr, wide), cols.drain, width,
                            _ptr(ring), len(ring)))


def _in_range(cols, n: int) -> bool:
    """Every column is one-dimensional of length ``n``, every register
    operand indexes the C register file, and a bound on the total cycle
    count fits well inside ``int64``."""
    if any(np.shape(c) != (n,) for c in (
            cols.fetch, cols.lat, cols.dst, cols.src1, cols.src2)):
        return False
    if not n:
        return True
    for column in (cols.dst, cols.src1, cols.src2):
        if int(column.min()) < 0 or int(column.max()) >= NREGS:
            return False
    # Each event advances the issue cycle and the latest done time by
    # at most one fetch cycle, its fetch stall and its latency.
    fetch = max(abs(int(cols.fetch.min())), abs(int(cols.fetch.max())))
    lat = max(abs(int(cols.lat.min())), abs(int(cols.lat.max())))
    bound = 1 + n * (2 + (fetch >> 2) + lat) + abs(int(cols.drain))
    return bound < _LIMIT


def cache_run(blocks: np.ndarray, writes, n_sets: int, assoc: int,
              installs: bool):
    """Classify the int64 ``blocks`` stream in C on an ``n_sets`` ×
    ``assoc`` cache that starts empty.

    ``writes`` is the boolean store mask under write-no-allocate, else
    ``None``.  Returns ``(miss, inst_idx, inst_evicted)`` — the
    per-reference miss mask and, with ``installs``, each installing
    miss's index and evicted block (-1 for none) — or ``None`` when C
    cannot run: streams that are not one-dimensional of one length, a
    negative block or no ways.
    """
    n = len(blocks)
    if (blocks.ndim != 1
            or (writes is not None and writes.shape != blocks.shape)
            or assoc < 1 or (n and int(blocks.min()) < 0)):
        return None
    lib = _kernels()
    if lib is None:
        return None
    ways = np.zeros((n_sets, assoc), dtype=np.int64)
    stamps = np.zeros_like(ways)
    fill = np.zeros(n_sets, dtype=np.int64)
    miss = np.empty(n, dtype=np.uint8)
    idx = np.empty(n if installs else 0, dtype=np.int64)
    evicted = np.empty_like(idx)
    count = lib.cache_run(
        n, _ptr(blocks),
        None if writes is None else _ptr(writes.view(np.uint8)),
        n_sets - 1, assoc, _ptr(ways), _ptr(stamps), _ptr(fill),
        _ptr(miss), _ptr(idx) if installs else None,
        _ptr(evicted) if installs else None)
    return miss.view(bool), idx[:count], evicted[:count]


def predict(pcs, takens, table: np.ndarray, hist: np.ndarray,
            hmask: int, xor_word: bool) -> np.ndarray | None:
    """Direction predictions for a conditional-branch stream, computed
    in C, updating the int64 counter ``table`` and history ``hist`` in
    place (see the C source for the indexing); ``None`` when C cannot
    run: streams that are not one-dimensional of one length, a negative
    pc word, an empty table, a history mask outside ``int64`` or an
    outcome that is not 0 or 1."""
    words = np.ascontiguousarray(np.asarray(pcs, dtype=np.int64) >> 2)
    outcome = np.asarray(takens)
    taken = np.ascontiguousarray(outcome, dtype=bool)
    if (words.ndim != 1 or taken.shape != words.shape
            or not len(table) or not 0 <= hmask < _LIMIT
            or (len(words) and int(words.min()) < 0)
            or (outcome.dtype != bool
                and not np.array_equal(taken, outcome))):
        return None
    lib = _kernels()
    if lib is None:
        return None
    out = np.empty(len(words), dtype=np.uint8)
    lib.predict(len(words), _ptr(words), _ptr(taken.view(np.uint8)),
                _ptr(table), len(table), _ptr(hist), len(hist), hmask,
                int(xor_word), _ptr(out))
    return out.view(bool)


def gather_rows(ids: np.ndarray, first: np.ndarray, count: np.ndarray,
                block: np.ndarray, n_out: int, patch=None):
    """One column of a template log's events, gathered in C: emission
    ``e`` contributes ``block[first[t]:first[t] + count[t]]`` for its
    template ``t = ids[e]``, ``n_out`` rows in all.

    ``patch`` is ``None`` or ``(pcount, rank, values, bit)``: template
    ``t`` owns the next ``pcount[t]`` entries of ``rank`` (laid end to
    end in template order), each taking the next of the int64
    ``values`` (int16 with a flag ``bit``) and writing it at kept row
    ``rank`` of the emission, none where ``rank`` is negative.  Returns
    a new column of ``block``'s dtype, or ``None`` when C cannot run:
    ids that are not ``uint16``/``uint32``, a block that is not
    ``int16``/``int64``, per-template arrays of other lengths, rows or
    a rank past what their template keeps, values of another dtype, or
    an id, row count or patch count that does not match the log.
    """
    ids, block = np.asarray(ids), np.asarray(block)
    first = np.ascontiguousarray(first, dtype=np.int64)
    count = np.ascontiguousarray(count, dtype=np.int64)
    if (ids.ndim != 1 or ids.dtype not in (np.uint16, np.uint32)
            or block.ndim != 1 or block.dtype not in (np.int16, np.int64)
            or first.shape != count.shape or n_out < 0
            or (len(count) and (int(first.min()) < 0
                                or int(count.min()) < 0
                                or int((first + count).max()) > len(block)))):
        return None
    patched = (None,) * 4 + (0, 0)
    if patch is not None:
        pcount, rank, values, bit = patch
        pcount = np.ascontiguousarray(pcount, dtype=np.int64)
        rank = np.ascontiguousarray(rank, dtype=np.int64)
        values = np.ascontiguousarray(values)
        dtype = np.int16 if bit else np.int64
        if (pcount.shape != count.shape or rank.ndim != 1
                or values.ndim != 1 or values.dtype != dtype
                or block.dtype != dtype or not 0 <= bit < 1 << 15
                or (len(pcount) and int(pcount.min()) < 0)
                or int(pcount.sum()) != len(rank)
                or (rank >= np.repeat(count, pcount)).any()):
            return None
        pfirst = np.zeros_like(pcount)
        np.cumsum(pcount[:-1], out=pfirst[1:])
        patched = (*map(_ptr, (pfirst, pcount, rank, values)), len(values),
                   bit)
    lib = _kernels()
    if lib is None:
        return None
    ids = np.ascontiguousarray(ids)
    block = np.ascontiguousarray(block)
    out = np.empty(n_out, dtype=block.dtype)
    written = lib.gather_rows(
        len(ids), _ptr(ids), ids.itemsize, len(count), _ptr(first),
        _ptr(count), _ptr(block), block.itemsize, *patched, _ptr(out),
        n_out)
    return out if written == n_out else None


# -- build and load ------------------------------------------------------

def _resolve():
    """The shared object loaded from the store, built into it first if
    absent; ``None`` when it cannot be built or loaded."""
    from ..analysis import cache

    root = cache.resolve_dir(None) or _private_dir()
    path = os.path.abspath(
        cache.entry_path(root, "kernels", "replay", KEY))
    lib = cache.lookup("kernels", path, lambda _data: _bind(path))
    # A second round rebuilds an entry that was stored corrupt (and
    # quarantined by the lookup that read it).
    for _ in range(2):
        if lib is not None:
            break
        with cache.FileLock(path + ".build"):
            if not os.path.exists(path):
                data = _compile()
                if data is None:
                    return None
                cache.store("kernels", path, data)
        lib = cache.lookup("kernels", path, lambda _data: _bind(path))
    return lib


def _bind(path: str):
    """The shared object at ``path`` with its four functions typed; an
    unloadable object raises ``OSError``, which the store treats as a
    corrupt entry."""
    lib = ctypes.CDLL(path)
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.schedule.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr,
                             i64]
    lib.schedule.restype = i64
    lib.cache_run.argtypes = [i64, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr,
                              ptr, ptr]
    lib.cache_run.restype = i64
    lib.predict.argtypes = [i64, ptr, ptr, ptr, i64, ptr, i64, i64, i64,
                            ptr]
    lib.predict.restype = None
    lib.gather_rows.argtypes = [i64, ptr, i64, i64, ptr, ptr, ptr, i64,
                                ptr, ptr, ptr, ptr, i64, i64, ptr, i64]
    lib.gather_rows.restype = i64
    return lib


def _compile() -> bytes | None:
    """The shared object's bytes, or ``None`` without a working
    compiler."""
    if find_compiler() is None:
        return None
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        with open(os.path.join(tmp, "replay.c"), "w") as fh:
            fh.write(SOURCE)
        try:
            # Relative names keep the temporary path out of the object.
            subprocess.run([*BUILD, "-o", "replay.so", "replay.c"],
                           cwd=tmp, check=True, capture_output=True,
                           timeout=120)
            with open(os.path.join(tmp, "replay.so"), "rb") as fh:
                return fh.read()
        except (OSError, subprocess.SubprocessError):
            return None


def _private_dir() -> str:
    """This process's store root while the store is disabled; removed
    at exit (by the process that made it, not by forked children)."""
    global _private_root
    if _private_root is None:
        _private_root = tempfile.mkdtemp(prefix="repro-kernels-")
        atexit.register(_remove_private, _private_root, os.getpid())
    return _private_root


def _remove_private(root: str, owner: int) -> None:
    if os.getpid() == owner:
        shutil.rmtree(root, ignore_errors=True)
