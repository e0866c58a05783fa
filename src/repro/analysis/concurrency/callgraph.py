"""Whole-program call graph with by-name candidate resolution.

Edges come from ``Program.call_targets``, the resolution the escape
analysis and the JIT's class-hierarchy analysis use too:
``invokestatic``/``invokespecial`` resolve along the super chain,
``invokevirtual`` additionally fans out to every subclass override of
the static receiver type.  Unresolvable call sites (the referenced class
is not in the program) are kept as explicit ``targets=None`` sites so
downstream passes can stay conservative.
"""

from __future__ import annotations

from collections import deque

from ...isa.method import Method, Program
from ...isa.opcodes import OPINFO
from ...isa.pool import MethodRef


class CallSite:
    """One invoke instruction: ``targets`` is ``None`` when unresolvable."""

    __slots__ = ("method", "index", "op", "ref", "targets")

    def __init__(self, method: Method, index: int, op, ref: MethodRef,
                 targets: tuple | None) -> None:
        self.method = method
        self.index = index
        self.op = op
        self.ref = ref
        self.targets = targets

    def __repr__(self) -> str:
        n = "?" if self.targets is None else len(self.targets)
        return (f"CallSite({self.method.qualified_name}@{self.index} -> "
                f"{self.ref.class_name}.{self.ref.method_name} [{n}])")


class CallGraph:
    """Per-method call sites plus reachability over resolved edges."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._sites: dict[Method, list[CallSite]] = {}

    def call_sites(self, method: Method) -> list[CallSite]:
        sites = self._sites.get(method)
        if sites is None:
            sites = []
            if not method.is_native and method.code:
                for idx, instr in enumerate(method.code):
                    if OPINFO[instr.op].kind != "invoke":
                        continue
                    ref = method.pool[instr.a]
                    if not isinstance(ref, MethodRef):
                        continue
                    targets = self.program.call_targets(instr.op, ref)
                    sites.append(CallSite(
                        method, idx, instr.op, ref,
                        tuple(targets) if targets is not None else None))
            self._sites[method] = sites
        return sites

    def callees(self, method: Method) -> tuple[set, bool]:
        """(resolved callee set, had-unresolved-site flag)."""
        out, unresolved = set(), False
        for site in self.call_sites(method):
            if site.targets is None:
                unresolved = True
            else:
                out.update(site.targets)
        return out, unresolved

    def reachable_from(self, roots) -> set:
        """Methods (bytecode and native) reachable via resolved edges."""
        seen: set = set()
        queue = deque(roots)
        while queue:
            m = queue.popleft()
            if m in seen:
                continue
            seen.add(m)
            if m.is_native or not m.code:
                continue
            callees, _ = self.callees(m)
            for c in callees:
                if c not in seen:
                    queue.append(c)
        return seen

    def witness_paths(self, root: Method) -> dict:
        """method -> shortest call chain (qualified names) from ``root``."""
        paths: dict[Method, tuple] = {root: (root.qualified_name,)}
        queue = deque((root,))
        while queue:
            m = queue.popleft()
            if m.is_native or not m.code:
                continue
            base = paths[m]
            callees, _ = self.callees(m)
            for c in sorted(callees, key=lambda t: t.qualified_name):
                if c not in paths:
                    paths[c] = base + (c.qualified_name,)
                    queue.append(c)
        return paths
