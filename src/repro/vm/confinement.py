"""Runtime thread-confinement tracking (the cross-check oracle's eyes).

When the run config sets ``track_confinement``, allocation handlers tag
every bytecode-allocated object with ``(method, site, allocating
thread)`` and ``monitor_enter`` reports each acquisition, so after a run
we know which allocation *sites* produced objects that a foreign thread
locked.  A static "safe to elide" claim (escape or concurrency analysis)
for a site observed here is a soundness bug — exactly what
``repro.fuzz.crosscheck`` hunts.

Field handlers additionally record which threads read/wrote each
(declaring class, field) location, giving the dynamic ground truth for
the race detector's precision statistic (racy-claimed but never
observed shared).

Everything installs by wrapping the interpreter's dispatch-table
entries, so the default (tracker off) costs nothing.
"""

from __future__ import annotations

from ..isa.opcodes import Op


class ConfinementTracker:
    """Observes allocations, monitor entries, and field traffic."""

    def __init__(self, vm) -> None:
        self.vm = vm
        #: (qualified name, site) ever locked by any thread
        self.locked_sites: set[tuple] = set()
        #: (qualified name, site) locked by a non-allocating thread
        self.foreign_locked_sites: set[tuple] = set()
        #: (kind, class, field) -> (reader thread ids, writer thread ids)
        self._loc_threads: dict[tuple, tuple[set, set]] = {}
        self._decl_cache: dict[tuple, str] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        handlers = self.vm.interp._handlers
        for op in (Op.NEW, Op.NEWARRAY, Op.ANEWARRAY):
            handlers[op] = self._wrap_alloc(handlers[op])
        for op, kind, write in ((Op.GETFIELD, "field", False),
                                (Op.PUTFIELD, "field", True),
                                (Op.GETSTATIC, "static", False),
                                (Op.PUTSTATIC, "static", True)):
            handlers[op] = self._wrap_field(handlers[op], kind, write)

    def _wrap_alloc(self, orig):
        def handler(thread, frame, instr):
            orig(thread, frame, instr)
            obj = frame.stack[-1] if frame.stack else None
            if obj is not None and hasattr(obj, "alloc_site"):
                obj.alloc_site = (frame.method.qualified_name,
                                  frame.ip - 1, thread.thread_id)
        return handler

    def _decl(self, class_name: str, field_name: str) -> str:
        key = (class_name, field_name)
        decl = self._decl_cache.get(key)
        if decl is None:
            # keyed as the lockset pass keys a field (``lockset._decl``)
            owner = self.vm.program.field_owner(class_name, field_name)
            decl = self._decl_cache[key] = (owner.name if owner
                                            else class_name)
        return decl

    def _wrap_field(self, orig, kind: str, write: bool):
        def handler(thread, frame, instr):
            ref = frame.method.pool[instr.a]
            loc = (kind, self._decl(ref.class_name, ref.field_name),
                   ref.field_name)
            threads = self._loc_threads.get(loc)
            if threads is None:
                threads = self._loc_threads[loc] = (set(), set())
            threads[1 if write else 0].add(thread.thread_id)
            orig(thread, frame, instr)
        return handler

    # -- monitor hook -------------------------------------------------------

    def note_enter(self, thread, obj) -> None:
        site = getattr(obj, "alloc_site", None)
        if site is None:
            return
        key = (site[0], site[1])
        self.locked_sites.add(key)
        if site[2] != thread.thread_id:
            self.foreign_locked_sites.add(key)

    # -- results ------------------------------------------------------------

    def shared_locations(self) -> set:
        """Locations written by one thread and touched by another."""
        out = set()
        for loc, (readers, writers) in self._loc_threads.items():
            if writers and len(readers | writers) >= 2:
                out.add(loc)
        return out
