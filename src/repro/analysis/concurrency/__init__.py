"""Interprocedural concurrency analysis: races and lock-elision proofs.

Four passes over a linked :class:`~repro.isa.method.Program`:

1. **Call graph** (`callgraph`) — by-name candidate resolution, shared
   with the escape analysis.
2. **Thread entries + MHP** (`mhp`) — discovers ``main``, the boot
   daemons, and every ``java/lang/Thread`` subclass constructed from
   reachable code; a spawn-phase dataflow keeps main's pre-start writes
   out of the parallel relation.
3. **Locksets** (`lockset`) — Eraser-style per-method flow of origin
   sets plus the must-held monitor set at every heap access.
4. **Races + proofs** (`races` and this facade) — accesses grouped by
   location, unguarded parallel pairs with a write become ``RC001``
   (instance field), ``RC002`` (static field) or ``RC003`` (array
   element) findings; allocation sites are classified **safe** (every
   thread that can lock instances of that class is the single thread
   that allocates — elidable with no deopt risk, ``RC004``) or
   **racy** (a lock-shared class — speculation pre-blacklisted,
   ``RC005``).

The ``safe``/``racy`` site sets feed the tiered JIT through
:meth:`repro.vm.machine.JavaVM.concurrency_plan`, and the fuzz
cross-check (`repro.fuzz.crosscheck`) compares both against what the
VM actually observes.
"""

from __future__ import annotations

from ..dataflow.escape import GLOBAL, EscapeSummaries
from ..dataflow.findings import Finding
from ...isa.method import Method, Program
from .callgraph import CallGraph
from .lockset import MethodConcurrency, analyze_method
from .mhp import MHP, ThreadEntry
from .races import (RaceReport, SiteAccess, compute_contexts, detect_races,
                    held_names)

__all__ = [
    "CallGraph",
    "MHP",
    "ThreadEntry",
    "MethodConcurrency",
    "RaceReport",
    "ConcurrencyAnalysis",
    "analyze_program",
]

#: Statics the VM's native boot assigns before ``main`` runs; the store
#: is invisible to bytecode, so the value classes are seeded here.
BOOT_STATICS: dict[tuple, frozenset] = {
    ("repro/Finalizer", "queue"): frozenset(("java/lang/Object",)),
    ("repro/RefCleaner", "queue"): frozenset(("java/lang/Object",)),
    ("java/lang/System", "out"): frozenset(("java/io/PrintStream",)),
}

_EMPTY: frozenset = frozenset()


class ConcurrencyAnalysis:
    """Whole-program concurrency facts (see module docstring)."""

    def __init__(self, program: Program,
                 escape: EscapeSummaries | None = None,
                 order: dict | None = None) -> None:
        """``order`` is a VM's ``loader.methods``: reachable methods are
        then visited in load order, methods not loaded yet first."""
        self.program = program
        self.escape = escape if escape is not None else EscapeSummaries(program)
        self.cg = CallGraph(program)
        self.mhp = MHP(program, self.cg)
        self.entries = self.mhp.entries
        self._infos: dict[Method, MethodConcurrency | None] = {}
        self._reachable_bytecode: list[Method] = []
        for m in self.mhp.reachable:
            if not m.is_native and m.code:
                self._reachable_bytecode.append(m)
                self._infos[m] = analyze_method(m, self.escape)
        if order is not None:
            self._reachable_bytecode.sort(
                key=lambda m: order[m].method_id if m in order else -1)
        entry_methods = {e.method for e in self.entries.values()}
        self._ctx = compute_contexts(
            self._infos, self._reachable_bytecode, entry_methods)
        self._field_classes = self._infer_field_classes()
        self._lock_entries, self._top_entries = self._collect_lock_entries()
        self._safe: dict[Method, frozenset] = {}
        self._racy: dict[Method, frozenset] = {}
        self._site_findings: dict[Method, list] = {}
        self._classify_sites()
        self.races: list[RaceReport] = self._detect()

    # -- lock-class inference ----------------------------------------------

    def _infer_field_classes(self) -> dict:
        """(declaring class, field) -> value classes, or None for unknown."""
        out: dict = {k: set(v) for k, v in BOOT_STATICS.items()}
        for m in self._reachable_bytecode:
            info = self._infos.get(m)
            if info is None:
                continue
            for (key, origins) in info.stores:
                if key in out and out[key] is None:
                    continue
                classes = set()
                for tok in origins:
                    c = (info.alloc_classes.get(tok[1])
                         if tok[0] == "a" else None)
                    if c is None:
                        classes = None
                        break
                    classes.add(c)
                if not origins:
                    classes = None
                if classes is None:
                    out[key] = None
                else:
                    out.setdefault(key, set()).update(classes)
        return {k: (frozenset(v) if v is not None else None)
                for k, v in out.items()}

    def _origin_classes(self, info: MethodConcurrency,
                        origins: frozenset) -> frozenset | None:
        """Classes a monitor operand may be an instance of (None=unknown)."""
        if not origins:
            return None
        out: set = set()
        for tok in origins:
            if tok[0] == "a":
                c = info.alloc_classes.get(tok[1])
                if c is None:
                    return None
                out.add(c)
            elif tok[0] in ("g", "f"):
                fc = self._field_classes.get((tok[1], tok[2]))
                if fc is None:
                    return None
                out |= fc
            else:
                return None
        return frozenset(out)

    def _collect_lock_entries(self) -> tuple[dict, frozenset]:
        lock_entries: dict[str, set] = {}
        top: set = set()
        for m in self._reachable_bytecode:
            ents = self.mhp.entries_of(m)
            info = self._infos.get(m)
            if info is None:
                top.update(ents)          # unverifiable: could lock anything
                continue
            for (_idx, origins) in info.monitors:
                classes = self._origin_classes(info, origins)
                if classes is None:
                    top.update(ents)
                else:
                    for c in classes:
                        lock_entries.setdefault(c, set()).update(ents)
            for (_idx, rcls, is_class_lock) in info.sync_calls:
                if is_class_lock:
                    continue              # class locks never alias instances
                for cls in self.program.subclasses(rcls):
                    lock_entries.setdefault(cls.name, set()).update(ents)
        return lock_entries, frozenset(top)

    # -- elision safety ----------------------------------------------------

    def _classify_sites(self) -> None:
        for m in self._reachable_bytecode:
            info = self._infos.get(m)
            if info is None:
                self._safe[m] = self._racy[m] = frozenset()
                continue
            ents = set(self.mhp.entries_of(m))
            elidable = self.escape.elidable_allocs(m)
            safe, racy, findings = set(), set(), []
            qn = m.qualified_name
            for idx in sorted(info.alloc_classes):
                if idx in elidable:
                    continue              # escape analysis already proves it
                cname = info.alloc_classes[idx]
                explicit = self._lock_entries.get(cname, _EMPTY)
                locked_by = set(explicit) | set(self._top_entries)
                if not locked_by:
                    safe.add(idx)         # class is never locked: harmless
                    continue
                involved = locked_by | ents
                only = next(iter(involved)) if len(involved) == 1 else None
                if only is not None and not self.entries[only].multi:
                    safe.add(idx)
                    if explicit:
                        findings.append(Finding(
                            "RC004", qn, idx,
                            f"{cname} instances allocated here are only "
                            f"locked by '{only}'; statically safe to elide "
                            "without speculation"))
                else:
                    racy.add(idx)
                    if explicit:
                        findings.append(Finding(
                            "RC005", qn, idx,
                            f"{cname} instances may be locked from "
                            f"[{', '.join(sorted(locked_by))}]; elision "
                            "is speculation-blacklisted"))
            self._safe[m] = frozenset(safe)
            self._racy[m] = frozenset(racy)
            if findings:
                self._site_findings[m] = findings

    # -- races -------------------------------------------------------------

    def _detect(self) -> list:
        site_accesses: list[SiteAccess] = []
        for m in self._reachable_bytecode:
            info = self._infos.get(m)
            if info is None:
                continue
            mctx = self._ctx.get(m, _EMPTY)
            elidable = self.escape.elidable_allocs(m)
            # Constructor accesses to ``this`` are pre-publication when
            # the receiver provably doesn't escape the constructor (the
            # NEW-dup-<init> idiom hands it a fresh, unshared object).
            ctor_exempt = (m.name == "<init>"
                           and self.escape.summary(m)[0] < GLOBAL)
            this_only = frozenset((("p", 0),))
            for a in info.accesses:
                if a.base and all(t[0] == "a" and t[1] in elidable
                                  for t in a.base):
                    continue              # base is provably thread-local
                if ctor_exempt and a.base == this_only:
                    continue
                ctxs = self.mhp.contexts(m, a.index)
                if not ctxs:
                    continue
                names = held_names(a.held, mctx)
                selfg = (a.base is not None and len(a.base) == 1
                         and next(iter(a.base)) in names)
                site_accesses.append(SiteAccess(m, a, names, selfg, ctxs))
        return detect_races(site_accesses, self.mhp)

    # -- public ------------------------------------------------------------

    def entries_of(self, method: Method) -> tuple:
        return self.mhp.entries_of(method)

    def safe_sites(self, method: Method) -> frozenset:
        """Alloc sites elidable with no deopt risk (beyond escape)."""
        return self._safe.get(method, _EMPTY)

    def racy_sites(self, method: Method) -> frozenset:
        """Alloc sites where elision speculation is pre-blacklisted."""
        return self._racy.get(method, _EMPTY)

    def safe_claims(self) -> set:
        """All (qualified name, site) pairs claimed elision-safe."""
        out = set()
        for m, sites in self._safe.items():
            qn = m.qualified_name
            out.update((qn, idx) for idx in sites)
        return out

    def racy_locations(self) -> list:
        """(kind, class, field) for every racy field/static location."""
        out = []
        for r in self.races:
            if r.location[0] in ("field", "static"):
                out.append(r.location)
        return sorted(out)

    def findings(self, method: Method) -> list:
        qn = method.qualified_name
        out = list(self._site_findings.get(method, ()))
        out.extend(r.finding() for r in self.races if r.write[0] == qn)
        out.sort(key=lambda f: (f.index, f.code))
        return out

    def all_findings(self) -> list:
        out = []
        for m in self._reachable_bytecode:
            out.extend(self.findings(m))
        return out


def analyze_program(program: Program,
                    escape: EscapeSummaries | None = None
                    ) -> ConcurrencyAnalysis:
    return ConcurrencyAnalysis(program, escape=escape)
