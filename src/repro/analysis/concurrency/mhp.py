"""Thread-entry discovery and a may-happen-in-parallel relation.

Thread entries are the roots concurrent execution can start from:

* ``main`` — the program entry method.
* ``daemon:<class>`` — the VM's boot daemons (``repro/Finalizer``,
  ``repro/RefCleaner``), present whenever the library is linked.  They
  are modeled unconditionally (the VM may or may not spawn them at
  runtime; assuming they run is the conservative direction).
* ``thread:<class>`` — each ``java/lang/Thread`` subclass with a
  bytecode ``run`` and at least one reachable ``NEW`` site.  The entry
  is *multi-instance* unless exactly one such site exists, it sits in
  ``main`` itself, and its block is not part of a loop — mtrt's two
  worker constructions therefore yield a multi-instance entry.

MHP is phase-aware for ``main`` only: a forward may-analysis marks each
instruction of main-reachable methods as possibly-after-a-spawn, so
writes main performs *before* starting any thread (mtrt filling the
scene) never pair with thread-side reads.  Joins are deliberately not
modeled; post-join reads stay in the ``("main", "post")`` phase, which
over-reports and is counted as imprecision by the fuzz cross-check.
"""

from __future__ import annotations

from ..dataflow.cfg import build_cfg
from ..dataflow.solver import DataflowProblem, solve
from ...isa.method import Method, Program
from ...isa.opcodes import Op
from .callgraph import CallGraph

DAEMON_CLASSES = ("repro/Finalizer", "repro/RefCleaner")


class ThreadEntry:
    """One root of concurrent execution."""

    __slots__ = ("key", "kind", "cls_name", "method", "multi")

    def __init__(self, key: str, kind: str, cls_name: str,
                 method: Method, multi: bool) -> None:
        self.key = key
        self.kind = kind            # "main" | "daemon" | "thread"
        self.cls_name = cls_name
        self.method = method
        self.multi = multi

    def __repr__(self) -> str:
        return f"ThreadEntry({self.key}, multi={self.multi})"


def _is_start_native(target) -> bool:
    return (target.is_native and target.name == "start"
            and target.jclass is not None
            and target.jclass.name == "java/lang/Thread")


class _SpawnPhaseProblem(DataflowProblem):
    """Forward may-be-post-spawn over {None < False < True}."""

    direction = "forward"

    def __init__(self, boundary_post: bool, spawn_sites: frozenset) -> None:
        self._boundary = boundary_post
        self._spawn_sites = spawn_sites    # instruction indices that may spawn

    def boundary(self, method: Method):
        return self._boundary

    def bottom(self, method: Method):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a or b

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        return True if idx in self._spawn_sites else state


class MHP:
    """Entries, per-entry reachability, phases, and the parallel relation."""

    def __init__(self, program: Program, callgraph: CallGraph) -> None:
        self.program = program
        self.cg = callgraph
        self.entries: dict[str, ThreadEntry] = {}
        self._paths: dict[str, dict] = {}      # entry key -> {method: chain}
        self.reachable: set = set()
        self.may_spawn: set = set()
        self._post_in: dict[Method, bool] = {}
        self._phase_cache: dict[Method, list] = {}
        self._cfg_cache: dict[Method, object] = {}
        self._discover()
        self._compute_may_spawn()
        self._compute_phases()

    # -- discovery ----------------------------------------------------------

    def _cfg(self, method: Method):
        cfg = self._cfg_cache.get(method)
        if cfg is None:
            cfg = self._cfg_cache[method] = build_cfg(method)
        return cfg

    def _site_in_cycle(self, method: Method, idx: int) -> bool:
        cfg = self._cfg(method)
        b = cfg.block_index[idx]
        seen, stack = set(), [s for s, _ in cfg.blocks[b].succs]
        while stack:
            cur = stack.pop()
            if cur == b:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(s for s, _ in cfg.blocks[cur].succs)
        return False

    def _discover(self) -> None:
        main = self.program.entry_method
        self.entries["main"] = ThreadEntry(
            "main", "main", self.program.main_class, main, False)
        if "repro/Finalizer" in self.program.classes:
            for name in DAEMON_CLASSES:
                run = self.program.resolve_method(name, "run")
                if run is not None and not run.is_native and run.code:
                    self.entries[f"daemon:{name}"] = ThreadEntry(
                        f"daemon:{name}", "daemon", name, run, False)

        # Thread subclasses constructed from reachable code become entries;
        # new entries can make more code reachable, so iterate to fixpoint.
        changed = True
        while changed:
            changed = False
            roots = [e.method for e in self.entries.values()]
            reach = self.cg.reachable_from(roots)
            sites: dict[str, list] = {}
            for m in reach:
                if m.is_native or not m.code:
                    continue
                for idx, instr in enumerate(m.code):
                    if instr.op is not Op.NEW:
                        continue
                    cname = m.pool[instr.a].class_name
                    if self.program.is_subclass(cname, "java/lang/Thread"):
                        sites.setdefault(cname, []).append((m, idx))
            for cname, slist in sorted(sites.items()):
                run = self.program.resolve_method(cname, "run")
                if run is None or run.is_native or not run.code:
                    continue
                multi = (len(slist) > 1
                         or any(m is not main for m, _ in slist)
                         or any(self._site_in_cycle(m, i) for m, i in slist))
                key = f"thread:{cname}"
                cur = self.entries.get(key)
                if cur is None or cur.multi != multi:
                    self.entries[key] = ThreadEntry(
                        key, "thread", cname, run, multi)
                    changed = True

        for key, entry in self.entries.items():
            self._paths[key] = self.cg.witness_paths(entry.method)
            self.reachable |= set(self._paths[key])

    def entries_of(self, method: Method) -> tuple:
        """Sorted entry keys whose reachable set contains ``method``."""
        return tuple(k for k in sorted(self._paths)
                     if method in self._paths[k])

    def witness(self, key: str, method: Method) -> tuple:
        """Shortest call chain from ``key``'s entry method to ``method``."""
        return self._paths.get(key, {}).get(method, ())

    # -- spawning -----------------------------------------------------------

    def _spawn_sites(self, method: Method) -> frozenset:
        out = set()
        for site in self.cg.call_sites(method):
            if site.targets is None:
                out.add(site.index)
            elif any(_is_start_native(t) or t in self.may_spawn
                     for t in site.targets):
                out.add(site.index)
        return frozenset(out)

    def _compute_may_spawn(self) -> None:
        bytecode = [m for m in self.reachable if not m.is_native and m.code]
        changed = True
        while changed:
            changed = False
            for m in bytecode:
                if m in self.may_spawn:
                    continue
                if self._spawn_sites(m):
                    self.may_spawn.add(m)
                    changed = True

    # -- main phases --------------------------------------------------------

    def _phase_states(self, method: Method, boundary: bool) -> list:
        """Per-instruction may-be-post-spawn *before* each instruction."""
        problem = _SpawnPhaseProblem(boundary, self._spawn_sites(method))
        solution = solve(method, problem, cfg=self._cfg(method))
        return solution.in_states

    def _compute_phases(self) -> None:
        main = self.program.entry_method
        self._post_in = {main: False}
        changed = True
        while changed:
            changed = False
            for m in list(self._post_in):
                if m.is_native or not m.code:
                    continue
                states = self._phase_states(m, self._post_in[m])
                for site in self.cg.call_sites(m):
                    # A callee begins before any spawn it performs itself,
                    # so it inherits the phase *before* the call.
                    before = states[site.index]
                    if before is None:
                        continue
                    for t in (site.targets or ()):
                        if t.is_native or not t.code:
                            continue
                        cur = self._post_in.get(t)
                        merged = before if cur is None else (cur or before)
                        if merged != cur:
                            self._post_in[t] = merged
                            changed = True

    def phase_flags(self, method: Method) -> list | None:
        """Per-instruction may-be-post-spawn flags (main context)."""
        if method not in self._post_in:
            return None
        flags = self._phase_cache.get(method)
        if flags is None:
            problem = _SpawnPhaseProblem(
                self._post_in[method], self._spawn_sites(method))
            solution = solve(method, problem, cfg=self._cfg(method))
            flags = self._phase_cache[method] = solution.in_states
        return flags

    # -- the relation -------------------------------------------------------

    def contexts(self, method: Method, idx: int) -> tuple:
        """Contexts ``(entry_key, phase)`` this instruction may run in."""
        out = []
        flags = None
        for key in self.entries_of(method):
            if key == "main":
                flags = self.phase_flags(method)
                out.append(("main", "pre"))
                if flags is not None and flags[idx]:
                    out.append(("main", "post"))
            else:
                out.append((key, None))
        return tuple(out)

    def may_parallel(self, c1: tuple, c2: tuple) -> bool:
        k1, p1 = c1
        k2, p2 = c2
        if k1 == k2:
            if k1 == "main":
                return False
            return self.entries[k1].multi
        e1, e2 = self.entries[k1], self.entries[k2]
        if k1 == "main" and p1 == "pre" and e2.kind == "thread":
            return False
        if k2 == "main" and p2 == "pre" and e1.kind == "thread":
            return False
        return True
