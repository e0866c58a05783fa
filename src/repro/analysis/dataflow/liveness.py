"""Backward liveness of locals, def-use chains, and stack def-use.

Three related facts the JIT's optimizer consumes:

* :func:`live_out_locals` — per instruction, the set of locals that may
  still be read after it; a ``store_local``/``iinc`` whose target is
  not in its live-out set is a dead store (the frame write can be
  dropped from the generated code without changing any later load).
* :func:`def_use_chains` — reaching-definition chains mapping each
  store site to the load sites it can reach (forward problem; shows the
  solver running both directions over the same CFG).
* :func:`stack_def_use` — which instruction produced each operand-stack
  value and who consumes it; used to skip spill stores for values whose
  only consumers are ``POP``.
"""

from __future__ import annotations

from ...isa.method import Method
from ...isa.opcodes import Op, OPINFO
from ...isa.verifier import _stack_delta
from .cfg import CFG, build_cfg
from .solver import DataflowProblem, Solution, solve


class LivenessProblem(DataflowProblem):
    """Backward may-liveness of local slots; states are frozensets."""

    direction = "backward"

    def boundary(self, method: Method):
        return frozenset()           # nothing outlives a return

    def bottom(self, method: Method):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, method: Method, idx: int, instr, state):
        kind = OPINFO[instr.op].kind
        if kind == "store_local":
            return state - {instr.a}
        if kind == "load_local" or kind == "iinc":
            # iinc both reads and writes; the read keeps it live upward
            return state | {instr.a}
        return state


def live_out_locals(method: Method, cfg: CFG | None = None) -> Solution:
    """Solve liveness; ``solution.out_states[i]`` is live-after of ``i``."""
    return solve(method, LivenessProblem(), cfg=cfg)


def dead_stores(method: Method, cfg: CFG | None = None) -> list[int]:
    """Indices of ``store_local``/``iinc`` whose written local is dead.

    Writes to parameter slots are reported too — the caller's argument
    copy is the store that made them live, and an unread overwrite is
    still dead.  Unreachable instructions are not reported here (the
    CFG pass flags them separately).
    """
    cfg = cfg or build_cfg(method)
    solution = live_out_locals(method, cfg=cfg)
    out = []
    for i, instr in enumerate(method.code):
        if solution.out_states[i] is None:
            continue
        kind = OPINFO[instr.op].kind
        if kind in ("store_local", "iinc") and instr.a not in solution.out_states[i]:
            out.append(i)
    return out


class ReachingDefsProblem(DataflowProblem):
    """Forward reaching definitions of locals.

    States map local -> frozenset of def sites; site ``-1`` is the
    method-entry definition (parameters and the VM's zero-fill).
    """

    direction = "forward"

    def boundary(self, method: Method):
        return tuple(frozenset((-1,)) for _ in range(method.max_locals))

    def bottom(self, method: Method):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return tuple(x | y for x, y in zip(a, b))

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        kind = OPINFO[instr.op].kind
        if kind in ("store_local", "iinc"):
            state = list(state)
            state[instr.a] = frozenset((idx,))
            return tuple(state)
        return state


def def_use_chains(method: Method, cfg: CFG | None = None) -> dict[int, set[int]]:
    """Map each local def site to the load/iinc sites it reaches.

    Every ``store_local``/``iinc`` index appears as a key (possibly with
    an empty use set — a dead store); the pseudo-def ``-1`` covers
    parameters and zero-initialized locals.
    """
    cfg = cfg or build_cfg(method)
    solution = solve(method, ReachingDefsProblem(), cfg=cfg)
    chains: dict[int, set[int]] = {}
    for i, instr in enumerate(method.code):
        kind = OPINFO[instr.op].kind
        if kind in ("store_local", "iinc") and solution.in_states[i] is not None:
            chains.setdefault(i, set())
    for i, instr in enumerate(method.code):
        state = solution.in_states[i]
        if state is None:
            continue
        kind = OPINFO[instr.op].kind
        if kind in ("load_local", "iinc"):
            for d in state[instr.a]:
                chains.setdefault(d, set()).add(i)
    return chains


class StackDefsProblem(DataflowProblem):
    """Forward producer tracking: each stack slot carries the frozenset
    of instruction indices that may have produced its value.  Pure
    stack shuffles (DUP/SWAP/DUP_X1) propagate producer sets; every
    other push produces a fresh def at its own index."""

    direction = "forward"

    def boundary(self, method: Method):
        return ()

    def bottom(self, method: Method):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return tuple(x | y for x, y in zip(a, b))

    def transfer(self, method: Method, idx: int, instr, state):
        if state is None:
            return None
        op = instr.op
        stack = list(state)
        if op is Op.DUP:
            stack.append(stack[-1])
            return tuple(stack)
        if op is Op.SWAP:
            stack[-1], stack[-2] = stack[-2], stack[-1]
            return tuple(stack)
        if op is Op.DUP_X1:
            b = stack.pop()
            a = stack.pop()
            stack.extend((b, a, b))
            return tuple(stack)
        pops, pushes = _stack_delta(method, instr)
        del stack[len(stack) - pops:]
        stack.extend(frozenset((idx,)) for _ in range(pushes))
        return tuple(stack)


def stack_def_use(method: Method, cfg: CFG | None = None) -> dict[int, set[tuple[int, Op]]]:
    """Map each producing instruction to its ``(consumer idx, op)`` set."""
    cfg = cfg or build_cfg(method)
    problem = StackDefsProblem()
    solution = solve(method, problem, cfg=cfg)
    consumers: dict[int, set[tuple[int, Op]]] = {}
    for i, instr in enumerate(method.code):
        state = solution.in_states[i]
        if state is None:
            continue
        op = instr.op
        if op in (Op.DUP, Op.SWAP, Op.DUP_X1):
            continue   # shuffles move values, they don't consume them
        pops, _pushes = _stack_delta(method, instr)
        for producers in state[len(state) - pops:]:
            for p in producers:
                consumers.setdefault(p, set()).add((i, op))
    return consumers


def pop_only_pushes(method: Method, cfg: CFG | None = None) -> set[int]:
    """Producer indices whose every consumer is a plain ``POP``.

    The value's computation may still be needed for its side effects,
    but its *spill store* is not: nothing ever reloads the slot.  Only
    single-push producers qualify (shuffles and invokes are excluded by
    construction: shuffles aren't producers, invokes push at most one).
    A method without a ``POP`` has none, and is not analyzed.
    """
    if not any(instr.op is Op.POP for instr in method.code):
        return set()
    cfg = cfg or build_cfg(method)
    consumers = stack_def_use(method, cfg=cfg)
    out = set()
    for producer, uses in consumers.items():
        if uses and all(op is Op.POP for _i, op in uses):
            out.add(producer)
    return out
