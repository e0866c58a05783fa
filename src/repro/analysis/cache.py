"""The content-addressed on-disk store: traces, run results, compiled code.

Every entry lives in one of four namespaces (:data:`NAMESPACES`):
recorded native traces, each stored as the template log it expands
from (``traces/*.tlog``, :class:`~repro.native.trace.TraceLog`),
pickled VM results
(``runs/*.pkl``), the shared compiled-code archive of
:mod:`repro.vm.codecache_archive` (``code/*.pkl``) and the host-compiled
replay kernels of :mod:`repro.arch.compiled`
(``kernels/*.so``, keyed by their C source and build command).  This
module is the only code that knows how an entry is addressed, verified,
counted, quarantined, pruned and removed; the namespaces differ only in
their file extension, their counters and how a caller decodes the
bytes.

The old scheme keyed archives on a hand-bumped ``CACHE_VERSION``; any
change to trace-affecting code silently served stale traces until
someone remembered to bump it.  Here every entry is addressed by a
key that hashes

- the *source* of every trace-affecting module (``repro.isa``,
  ``repro.native``, ``repro.sync``, ``repro.vm``, ``repro.workloads``
  and the runner itself), and
- the run: workload, scale and the token of the run config's counting
  run, which a recording's trace and result share (or, for compiled
  code, the method's link signature and tier).

Editing any of those modules, or changing any config field, changes the
key — no manual invalidation step exists anymore.  Stale entries are
simply never addressed again (and can be pruned with ``prune``).

Concurrent workers share one directory safely: writes go to a temp
file in the same directory followed by an atomic ``os.replace``,
serialized per-entry by a pid-file lock that detects and breaks locks
abandoned by dead processes (owner pid + liveness probe).  Every store
records a content-digest sidecar (``<entry>.sha256``) verified on
load; corrupt or truncated entries — parse failures *or* digest
mismatches — are moved to ``quarantine/`` and recomputed rather than
crashing the run.

All lookups/stores update a module-level :class:`CacheStats` so the CLI
can report hit/miss/latency counters in the run summary.  Hook sites
for :mod:`repro.faults` (guarded by ``faults.ACTIVE``) let a seeded
fault plan corrupt stores, plant stale locks, and slow IO so the
recovery paths above stay exercised in CI.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import time
import zipfile
from dataclasses import dataclass

from .. import faults
from ..native.trace import Trace, TraceLog
from ..obs import TRACER

#: Package-relative sources whose content feeds the cache key.  A file
#: entry names one module; a directory entry covers every ``.py`` below.
TRACE_AFFECTING = (
    "isa",
    "native",
    "sync",
    "vm",
    "workloads",
    os.path.join("analysis", "runner.py"),
)


@dataclass(frozen=True)
class Namespace:
    """One kind of entry: its ``cache.lookup``/``cache.store`` event
    ``kind``, file extension and :class:`CacheStats` counters."""

    kind: str
    ext: str
    hits: str
    misses: str
    stores: str
    #: Hits refresh the entry's mtime, the recency LRU eviction reads.
    touch: bool = False


#: Subdirectory name -> namespace.  Traces, runs and kernels live under
#: the trace cache directory, code under the code-archive directory.
#: An entry whose extension is not its namespace's is of a superseded
#: format: never addressed, and deleted by :func:`prune`.
NAMESPACES = {
    "traces": Namespace("trace", ".tlog", "trace_hits", "trace_misses",
                        "stores"),
    "runs": Namespace("run", ".pkl", "run_hits", "run_misses", "stores"),
    "code": Namespace("code", ".pkl", "code_hits", "code_misses",
                      "code_stores", touch=True),
    "kernels": Namespace("kernel", ".so", "kernel_hits", "kernel_misses",
                         "kernel_stores"),
}


class CorruptEntry(Exception):
    """Entry bytes fail their recorded content digest (or a decoder's
    own integrity check)."""


class Unusable(Exception):
    """A decoder's verdict that an intact entry cannot be used here
    (e.g. compiled code referencing a method this program lacks): the
    lookup counts a miss, never corruption."""


#: Errors that mean "entry unreadable", never "bug": recompute instead.
_CORRUPT_ERRORS = (
    CorruptEntry,
    zipfile.BadZipFile,
    pickle.UnpicklingError,
    EOFError,
    KeyError,
    ValueError,
    OSError,
    AttributeError,
    ImportError,
)

#: Directory environment variables and the value each takes when
#: unset: the trace/run cache is on by default, the code archive opt-in.
CACHE_ENV = "REPRO_TRACE_CACHE"
ARCHIVE_ENV = "REPRO_CODE_ARCHIVE"
_UNSET = {CACHE_ENV: ".trace_cache", ARCHIVE_ENV: ""}


def resolve_dir(arg: str | None, env_var: str = CACHE_ENV) -> str | None:
    """Map a directory argument to an effective directory.

    ``None`` means "use ``env_var``", read *at call time* so tests and
    tools can redirect it per call; an empty string (or any falsy
    value), passed or read, disables the store.
    """
    if arg is None:
        arg = os.environ.get(env_var, _UNSET[env_var])
    return arg or None


# -- source digest -----------------------------------------------------

_digest_cache: dict[str, str] = {}


def package_root() -> str:
    """Root of the installed ``repro`` package."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def trace_affecting_files(root: str | None = None) -> list[str]:
    """Absolute paths of every source file that feeds the digest."""
    root = root or package_root()
    files: list[str] = []
    for entry in TRACE_AFFECTING:
        path = os.path.join(root, entry)
        if os.path.isfile(path):
            files.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            files.extend(
                os.path.join(dirpath, f)
                for f in sorted(filenames)
                if f.endswith(".py")
            )
    return files


def source_digest(root: str | None = None) -> str:
    """Digest of all trace-affecting module sources (memoized per root)."""
    root = root or package_root()
    cached = _digest_cache.get(root)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    for path in trace_affecting_files(root):
        h.update(os.path.relpath(path, root).encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    digest = h.hexdigest()
    _digest_cache[root] = digest
    return digest


def reset_source_digest() -> None:
    """Drop the digest memo (tests; long-lived processes editing code)."""
    _digest_cache.clear()


def cache_key(kind: str, /, *, root: str | None = None, **fields) -> str:
    """Content-addressed key for one cache entry.

    ``fields`` must be JSON-serializable; the key covers the source
    digest, the entry kind, and every field — so any source or config
    change produces a different key.  ``kind`` is positional-only and
    the fields are namespaced in the payload, so a config field named
    ``kind`` (or ``source``) can neither collide with the parameter nor
    shadow the entry kind in the digest.
    """
    payload = {"kind": kind, "source": source_digest(root), "fields": fields}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- statistics --------------------------------------------------------

_STAT_FIELDS = (
    "trace_hits", "trace_misses", "run_hits", "run_misses",
    "corrupt", "stores", "quarantined", "locks_broken",
    # Shared compiled-code archive (repro.vm.codecache_archive); kept
    # here so pool workers ship them parent-side with the other fields.
    "code_hits", "code_misses", "code_stores", "code_evicted",
    # Host-compiled replay kernels (repro.arch.compiled).
    "kernel_hits", "kernel_misses", "kernel_stores",
)
_TIME_FIELDS = ("lookup_seconds", "store_seconds")


class CacheStats:
    """Hit/miss/latency counters for the shared cache."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for f in _STAT_FIELDS:
            setattr(self, f, 0)
        for f in _TIME_FIELDS:
            setattr(self, f, 0.0)

    # -- accounting ---------------------------------------------------
    def count(self, field: str, n: int = 1) -> None:
        setattr(self, field, getattr(self, field) + n)

    def time(self, field: str, seconds: float) -> None:
        setattr(self, field, getattr(self, field) + seconds)

    # -- aggregation --------------------------------------------------
    def snapshot(self) -> dict:
        return {f: getattr(self, f) for f in _STAT_FIELDS + _TIME_FIELDS}

    def merge(self, snap: dict) -> None:
        for f in _STAT_FIELDS + _TIME_FIELDS:
            setattr(self, f, getattr(self, f) + snap.get(f, 0))

    @property
    def hits(self) -> int:
        return self.trace_hits + self.run_hits

    @property
    def misses(self) -> int:
        return self.trace_misses + self.run_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def format_summary(self) -> str:
        if self.hits + self.misses:
            lookups = (
                f"{self.hits} hits / {self.misses} misses "
                f"({100 * self.hit_rate:.1f}% hit rate; traces "
                f"{self.trace_hits}/{self.trace_hits + self.trace_misses},"
                f" runs {self.run_hits}/{self.run_hits + self.run_misses})")
        else:
            # e.g. a pre-warm whose every job is already stored: a
            # 0.0% hit rate would read like a cold cache
            lookups = "nothing looked up"
        return (
            f"cache: {lookups}, "
            f"{self.corrupt} corrupt recomputed, "
            f"lookup {self.lookup_seconds:.2f}s, "
            f"store {self.store_seconds:.2f}s"
        )

    @staticmethod
    def diff(after: dict, before: dict) -> dict:
        return {k: after[k] - before.get(k, 0) for k in after}


#: Process-wide counters; workers ship snapshots back to the parent.
STATS = CacheStats()


def reset_stats() -> None:
    STATS.reset()


# -- file locking and atomic writes ------------------------------------

#: Waiters poll with capped exponential backoff.
LOCK_POLL_SECONDS = 0.002
LOCK_POLL_CAP = 0.05
#: Grace before an *unreadable* lock file (owner mid-write) is stale.
LOCK_UNREADABLE_GRACE = 1.0


def env_number(name: str, parse=float):
    """The number environment variable ``name`` holds (``None`` when it
    is unset or empty); a malformed value raises ``ValueError`` naming
    the variable."""
    text = os.environ.get(name)
    if not text:
        return None
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{name}={text!r} is not a valid "
                         f"{parse.__name__}") from None


def default_lock_timeout() -> float:
    """Max seconds to wait on a lock held by a live owner before
    breaking it anyway (``REPRO_LOCK_TIMEOUT`` overrides)."""
    timeout = env_number("REPRO_LOCK_TIMEOUT")
    return 10.0 if timeout is None else timeout


def _pid_alive(pid: int) -> bool:
    """Liveness probe: can ``pid`` receive signals?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM and friends: exists, not ours
        return True
    return True


def _read_pid(path: str) -> int | None:
    """The pid recorded in a lock file, or ``None`` if unreadable."""
    try:
        with open(path) as fh:
            return int(fh.read().strip() or "0") or None
    except (OSError, ValueError):
        return None


class FileLock:
    """Pid-file advisory lock guarding one cache entry.

    The lock is the *existence* of ``<path>.lock`` holding the owner's
    pid.  A ``flock`` would evaporate with its owner, but it also cannot
    be probed, reported on, or (in the pathological cases fault plans
    simulate) left behind; a pid file makes the failure mode explicit
    and recoverable: waiters probe the recorded owner for liveness and
    break locks whose owner is dead.  A live owner is waited on for at
    most ``timeout`` seconds, after which the lock is broken anyway —
    entry writes are atomic replaces, so losing exclusion costs at worst
    a duplicated store, never a torn archive.
    """

    def __init__(self, path: str, timeout: float | None = None) -> None:
        self.lock_path = path + ".lock"
        self.timeout = default_lock_timeout() if timeout is None else timeout
        self._held = False

    def __enter__(self) -> "FileLock":
        if faults.ACTIVE is not None:
            faults.ACTIVE.on_lock_acquire(self.lock_path)
        os.makedirs(os.path.dirname(self.lock_path) or ".", exist_ok=True)
        started = time.perf_counter()
        deadline = started + self.timeout
        pause = LOCK_POLL_SECONDS
        while True:
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if self._break_if_stale(deadline):
                    continue
                time.sleep(pause)
                pause = min(pause * 2, LOCK_POLL_CAP)
                continue
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            self._held = True
            break
        if TRACER.enabled:
            TRACER.emit("cache.lock_wait", time.perf_counter() - started,
                        entry=os.path.basename(self.lock_path))
        return self

    def __exit__(self, *exc) -> None:
        if self._held:
            self._held = False
            # Only remove a lock file that still records *our* pid: if a
            # waiter force-broke this lock and re-acquired, the file on
            # disk is theirs now and removing it would hand the entry to
            # a third contender.
            if _read_pid(self.lock_path) == os.getpid():
                _unlink(self.lock_path)

    # -- stale detection ----------------------------------------------
    def _owner_pid(self) -> int | None:
        return _read_pid(self.lock_path)

    def _age(self) -> float:
        try:
            return max(0.0, time.time() - os.stat(self.lock_path).st_mtime)
        except OSError:
            return float("inf")

    def _break_if_stale(self, deadline: float) -> bool:
        """Break the competing lock if its owner is dead (liveness
        probe), unreadable past its grace, or the wait deadline passed;
        returns True when broken."""
        owner = self._owner_pid()
        if owner is not None and _pid_alive(owner):
            if time.perf_counter() < deadline:
                return False
            kind, reason = "lock_break_forced", "timeout"
        elif owner is None:
            if (self._age() < LOCK_UNREADABLE_GRACE
                    and time.perf_counter() < deadline):
                return False
            kind, reason = "lock_break", "unreadable"
        else:
            kind, reason = "lock_break", "dead-owner"
        # Commit point: capture the lock file with an atomic rename.  Of
        # all the waiters that concluded "stale", exactly one wins the
        # rename; the losers see ENOENT and go back to the acquire loop,
        # where they observe either no lock or the winner's fresh one.
        # A bare ``os.remove`` here let a *slow* waiter — one that
        # probed the dead owner, then got descheduled while the winner
        # broke the lock and re-acquired — delete the winner's fresh
        # live lock, putting two processes inside the critical section.
        grave = f"{self.lock_path}.break-{os.getpid()}-{next(_TMP_IDS)}"
        try:
            os.rename(self.lock_path, grave)
        except OSError:
            return False  # released or broken by someone else first
        captured = _read_pid(grave)
        if captured is not None and captured != owner and _pid_alive(captured):
            # We captured a lock *re-acquired* by a live owner between
            # our staleness probe and the rename.  Give it back: ``link``
            # is atomic, so if yet another contender re-created the lock
            # file meanwhile the restore is abandoned and the displaced
            # owner's ownership-checked release stays a no-op.
            try:
                os.link(grave, self.lock_path)
            except OSError:
                pass
            _unlink(grave)
            return False
        _unlink(grave)
        STATS.count("locks_broken")
        faults.note_recovery(kind, reason=reason,
                             entry=os.path.basename(self.lock_path))
        return True


#: Monotonic suffix making temp names unique *within* a process too: a
#: pid-only name lets two threads storing the same key truncate and
#: rename each other's in-flight temp file.
_TMP_IDS = itertools.count(1)


def _unlink(path: str) -> bool:
    """Remove one file; ``False`` when it was not there to remove."""
    try:
        os.remove(path)
    except OSError:
        return False
    return True


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file and an
    atomic rename, so readers never observe a partial entry."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(
        directory,
        f".tmp-{os.getpid()}-{next(_TMP_IDS)}-{os.path.basename(path)}",
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on write failure
            _unlink(tmp)


def _digest_path(path: str) -> str:
    return path + ".sha256"


def _read_verified(path: str) -> bytes:
    """Entry bytes, checked against the stored content digest.

    Raises ``FileNotFoundError`` on absence and :class:`CorruptEntry`
    on a digest mismatch; entries predating digests (no sidecar) pass
    unverified, as parse errors still catch gross corruption.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        with open(_digest_path(path)) as fh:
            expect = fh.read().strip()
    except OSError:
        return data
    if expect and hashlib.sha256(data).hexdigest() != expect:
        raise CorruptEntry(os.path.basename(path))
    return data


def _quarantine(path: str) -> None:
    """Move a corrupt entry (and drop its sidecar) into the store's
    ``quarantine/`` directory: the recomputed entry replaces it while
    the bad bytes stay available for diagnosis."""
    qdir = os.path.join(os.path.dirname(os.path.dirname(path)),
                        "quarantine")
    moved = False
    with FileLock(path):
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            moved = True
        except OSError:
            _unlink(path)
        _unlink(_digest_path(path))
    if moved:
        STATS.count("quarantined")
        faults.note_recovery("quarantine", entry=os.path.basename(path))


# -- the store ---------------------------------------------------------

def entry_path(root: str, namespace: str, label: str, key: str) -> str:
    """``<root>/<namespace>/<label>-<key[:16]><ext>``: ``label`` is a
    readable name, the key is what tells two entries apart."""
    return os.path.join(
        root, namespace, f"{label}-{key[:16]}{NAMESPACES[namespace].ext}")


def lookup(namespace: str, path: str, decode):
    """``decode(data)`` of the verified entry at ``path``, or ``None``.

    An absent entry, or one ``decode`` rejects with :class:`Unusable`,
    counts a miss; unreadable bytes (any of the corrupt errors, digest
    mismatches included) count a corrupt miss and are quarantined.
    """
    ns = NAMESPACES[namespace]
    if faults.ACTIVE is not None:
        faults.ACTIVE.on_io("load")
    started = time.perf_counter()
    value = None
    outcome = "hit"
    try:
        value = decode(_read_verified(path))
    except (FileNotFoundError, Unusable):
        outcome = "miss"
    except _CORRUPT_ERRORS:
        outcome = "corrupt"
        STATS.count("corrupt")
        _quarantine(path)
    if outcome == "hit":
        STATS.count(ns.hits)
        if ns.touch:
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - raced with eviction
                pass
    else:
        STATS.count(ns.misses)
    elapsed = time.perf_counter() - started
    STATS.time("lookup_seconds", elapsed)
    if TRACER.enabled:
        TRACER.emit("cache.lookup", elapsed, kind=ns.kind, outcome=outcome)
        TRACER.add(f"cache.{ns.kind}_{outcome}")
    return value


def store(namespace: str, path: str, data: bytes) -> None:
    """Store entry bytes plus their content-digest sidecar under the
    entry lock.  The digest is computed *before* the fault layer can
    mutate the payload, so injected corruption is always detectable on
    the next load."""
    ns = NAMESPACES[namespace]
    started = time.perf_counter()
    digest = hashlib.sha256(data).hexdigest()
    if faults.ACTIVE is not None:
        faults.ACTIVE.on_io("store")
        data = faults.ACTIVE.corrupt_store(path, data)
    with FileLock(path):
        _atomic_write(path, data)
        _atomic_write(_digest_path(path), digest.encode())
    STATS.count(ns.stores)
    elapsed = time.perf_counter() - started
    STATS.time("store_seconds", elapsed)
    if TRACER.enabled:
        TRACER.emit("cache.store", elapsed, kind=ns.kind)


def remove_entry(path: str) -> bool:
    """Delete one entry and its digest sidecar under the entry lock;
    ``False`` when the entry was already gone."""
    with FileLock(path):
        removed = _unlink(path)
        _unlink(_digest_path(path))
    return removed


def load_trace(path: str) -> Trace | None:
    """A cached trace, expanded from the very log bytes its digest
    verified; ``None`` on absence or corruption."""
    return lookup("traces", path,
                  lambda data: Trace.from_log(TraceLog.from_bytes(data)))


def store_trace(path: str, trace: Trace) -> None:
    store("traces", path, trace.log.to_bytes())


def load_run(path: str):
    """Load a cached ``VMResult``; ``None`` on absence or corruption."""
    return lookup("runs", path, pickle.loads)


def store_run(path: str, result) -> None:
    store("runs", path,
          pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))


def prune(cache_dir: str | None = None) -> int:
    """Housekeeping: delete stale lock files, temp droppings, entries of
    a superseded format (an extension not their namespace's, with their
    digest sidecars) and quarantined corpses under ``cache_dir``.

    Content addressing means superseded entries are never served, so
    pruning is purely about disk space; returns the number removed.
    """
    cache_dir = resolve_dir(cache_dir)
    if not cache_dir or not os.path.isdir(cache_dir):
        return 0
    removed = 0
    for sub in NAMESPACES:
        directory = os.path.join(cache_dir, sub)
        if not os.path.isdir(directory):
            continue
        ext = NAMESPACES[sub].ext
        for name in os.listdir(directory):
            # All but current entries and their sidecars: locks, broken
            # lock graves, temp droppings and superseded formats.
            if (name.startswith(".tmp-")
                    or not name.removesuffix(".sha256").endswith(ext)):
                removed += _unlink(os.path.join(directory, name))
    qdir = os.path.join(cache_dir, "quarantine")
    if os.path.isdir(qdir):
        for name in os.listdir(qdir):
            removed += _unlink(os.path.join(qdir, name))
    return removed
