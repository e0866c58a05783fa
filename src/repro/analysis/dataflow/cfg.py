"""Control-flow graph construction over ``isa.Instr`` lists.

Basic blocks are maximal single-entry straight-line runs; edges carry a
kind tag (``fall``, ``branch``, ``goto``, ``switch``) so clients can
distinguish the fall-through path of a conditional from its taken path.
"""

from __future__ import annotations

from ...isa.method import Method
from ...isa.opcodes import OPINFO, TERMINATOR_OPS


class BasicBlock:
    """Instructions ``[start, end)`` of the owning method."""

    __slots__ = ("index", "start", "end", "succs", "preds")

    def __init__(self, index: int, start: int, end: int) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.succs: list[tuple[int, str]] = []   # (block index, edge kind)
        self.preds: list[int] = []

    def __repr__(self) -> str:
        succs = ", ".join(f"{b}:{k}" for b, k in self.succs)
        return f"BasicBlock(#{self.index} [{self.start}:{self.end}) -> {succs})"


class CFG:
    """Blocks plus instruction->block mapping for one method."""

    __slots__ = ("method", "blocks", "block_index")

    def __init__(self, method: Method, blocks: list[BasicBlock],
                 block_index: list[int]) -> None:
        self.method = method
        self.blocks = blocks
        self.block_index = block_index   # instruction idx -> block idx

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    def reachable_rpo(self) -> list[int]:
        """Block indices reachable from entry, in reverse postorder."""
        seen = set()
        order: list[int] = []

        def visit(b: int) -> None:
            # Iterative DFS; methods are small but recursion limits are rude.
            stack = [(b, iter(self.blocks[b].succs))]
            seen.add(b)
            while stack:
                block, succs = stack[-1]
                advanced = False
                for succ, _kind in succs:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    order.append(block)
                    stack.pop()

        visit(0)
        order.reverse()
        return order


def build_cfg(method: Method) -> CFG:
    """Build the CFG of a (structurally verified) bytecode method."""
    code = method.code
    n = len(code)
    if n == 0:
        raise ValueError(f"{method.qualified_name}: no code to build a CFG for")

    leaders = {0}
    for i, instr in enumerate(code):
        if instr.op in TERMINATOR_OPS:
            if i + 1 < n:
                leaders.add(i + 1)
            for t in instr.branch_targets():
                if 0 <= t < n:
                    leaders.add(t)
    starts = sorted(leaders)

    blocks: list[BasicBlock] = []
    block_index = [0] * n
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(BasicBlock(bi, start, end))
        for i in range(start, end):
            block_index[i] = bi

    for block in blocks:
        last = code[block.end - 1]
        kind = OPINFO[last.op].kind
        if kind == "return":
            continue
        if kind == "goto":
            block.succs.append((block_index[last.a], "goto"))
            continue
        if kind == "switch":
            seen = set()
            for t in last.branch_targets():
                bi = block_index[t]
                if bi not in seen:
                    seen.add(bi)
                    block.succs.append((bi, "switch"))
            continue
        if kind == "branch":
            block.succs.append((block_index[last.a], "branch"))
        # fall through (also for blocks split by a label, not a terminator)
        if block.end < n:
            fall = block_index[block.end]
            if all(s != fall for s, _ in block.succs) or kind != "branch":
                block.succs.append((fall, "fall"))

    for block in blocks:
        for succ, _kind in block.succs:
            blocks[succ].preds.append(block.index)
    return CFG(method, blocks, block_index)
