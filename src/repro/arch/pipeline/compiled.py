"""The compiled pipeline scheduler: :func:`.superscalar._schedule`'s
fetch / ROB recurrence in C, called through :mod:`ctypes`.

The C source below is built lazily, on the first call, with the system
C compiler (``cc -O2 -shared -fPIC``) into the ``kernels`` row of the
content-addressed store (:data:`repro.analysis.cache.NAMESPACES`),
keyed by the digest of the source plus the build command.  The store
gives the shared object its lock, atomic write, ``.sha256`` sidecar and
quarantine, so a corrupt entry is rebuilt, never loaded.  With the
store disabled the object is built into a per-process temporary
directory removed at exit.

The recurrence is serial, so a native call pays only when it does
enough work to cover its crossing: :func:`schedule` makes one call per
(trace, width), with every column widened to contiguous ``int64`` for
that call alone.  Before calling it checks that every register operand
indexes the C register file and that cycle counts cannot overflow
``int64``; whenever C cannot run (no compiler, a failed build, values
outside that range) it returns ``None`` and the caller runs the Python
reference instead, with identical results.
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
""" % {"nregs": NREGS}

#: The build command, less its input and output paths.
BUILD = ("cc", "-O2", "-shared", "-fPIC")

#: Store key of the shared object: the source and the command build it.
KEY = hashlib.sha256("\0".join((SOURCE,) + BUILD).encode()).hexdigest()

#: Cycle counts stay below this, so no ``int64`` sum can overflow.
_CYCLE_LIMIT = 1 << 62

_UNRESOLVED = object()
_function = _UNRESOLVED
_private_root: str | None = None


def find_compiler() -> str | None:
    """Path of the C compiler :data:`BUILD` names, or ``None``."""
    return shutil.which(BUILD[0])


def reset() -> None:
    """Forget the loaded scheduler, so the next call resolves it again
    (tests; a process whose store directory changed)."""
    global _function
    _function = _UNRESOLVED


def schedule(cols, width: int, rob_size: int) -> int | None:
    """Total cycles of ``cols`` on a ``width``-wide machine with a
    ``rob_size``-entry ROB, computed in C; ``None`` when C cannot run."""
    global _function
    n = len(cols.lat)
    if width < 1 or rob_size < 1 or not _in_range(cols, n):
        return None
    if _function is _UNRESOLVED:
        _function = _resolve()
    fn = _function
    if fn is None:
        return None
    wide = [np.ascontiguousarray(c, dtype=np.int64) for c in (
        cols.fetch, cols.lat, cols.dst, cols.src1, cols.src2)]
    # Slots past the trace's length would never be read.
    ring = np.zeros(min(rob_size, max(n, 1)), dtype=np.int64)
    return int(fn(n, *(c.ctypes.data for c in wide), cols.drain, width,
                  ring.ctypes.data, len(ring)))


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
    return bound < _CYCLE_LIMIT


# -- build and load ------------------------------------------------------

def _resolve():
    """The C ``schedule`` function loaded from the store, built into it
    first if absent; ``None`` when it cannot be built or loaded."""
    from ...analysis import cache

    root = cache.resolve_dir(None) or _private_dir()
    path = os.path.abspath(
        cache.entry_path(root, "kernels", "schedule", KEY))
    fn = cache.lookup("kernels", path, lambda _data: _bind(path))
    # A second round rebuilds an entry that was stored corrupt (and
    # quarantined by the lookup that read it).
    for _ in range(2):
        if fn is not None:
            break
        with cache.FileLock(path + ".build"):
            if not os.path.exists(path):
                data = _compile()
                if data is None:
                    return None
                cache.store("kernels", path, data)
        fn = cache.lookup("kernels", path, lambda _data: _bind(path))
    return fn


def _bind(path: str):
    """The typed ``schedule`` symbol of the shared object at ``path``;
    an unloadable object raises ``OSError``, which the store treats as
    a corrupt entry."""
    fn = ctypes.CDLL(path).schedule
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, i64]
    fn.restype = i64
    return fn


def _compile() -> bytes | None:
    """The shared object's bytes, or ``None`` without a working
    compiler."""
    if find_compiler() is None:
        return None
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        with open(os.path.join(tmp, "schedule.c"), "w") as fh:
            fh.write(SOURCE)
        try:
            # Relative names keep the temporary path out of the object.
            subprocess.run([*BUILD, "-o", "schedule.so", "schedule.c"],
                           cwd=tmp, check=True, capture_output=True,
                           timeout=120)
            with open(os.path.join(tmp, "schedule.so"), "rb") as fh:
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
