"""Branch-prediction replay for the ``vector`` kernel — exact,
shared-context.

The sequential state machines are the *direction* predictor tables,
which only ever see conditional branches; each predictor's
``predict_batch`` steps them over the pre-extracted (pc, taken)
subarrays in one C call (:func:`repro.arch.compiled.predict`).
Everything else about a transfer stream is statically known:

- category masks and transfer/conditional/indirect counts vectorize
  directly;
- the BTB's update stream does not depend on any prediction (taken
  branches, returns and indirect jumps/calls always update it), and a
  lookup precedes the same event's update — so every lookup resolves
  offline with one sort plus ``np.searchsorted`` over
  ``(slot, position)`` keys;
- the return-address stack only changes on CALL/ICALL/RET events and
  replays over that small subset.

A :class:`BranchReplayContext` computes all of this once per transfer
stream; it is immutable, so any number of predictors (Table 2 runs
four) share one context.
"""

from __future__ import annotations

import numpy as np

from ...native.nisa import NCat

_BRANCH = int(NCat.BRANCH)
_JUMP = int(NCat.JUMP)
_CALL = int(NCat.CALL)
_IJUMP = int(NCat.IJUMP)
_ICALL = int(NCat.ICALL)
_RET = int(NCat.RET)


def replay_ras(pcs, cats, trim_call):
    """Replay the return-address stack over CALL/ICALL/RET events.

    Returns ``(used, popped)`` aligned to the RET events: whether the
    stack was non-empty, and the value popped when it was.
    ``trim_call`` selects whether direct calls also trim the stack to
    16 entries (the pipeline model does; ``run_predictor`` only trims
    on indirect calls).
    """
    sub = np.flatnonzero(np.isin(cats, (_CALL, _ICALL, _RET)))
    used: list[bool] = []
    popped: list[int] = []
    ras: list[int] = []
    for pc, cat in zip(pcs[sub].tolist(), cats[sub].tolist()):
        if cat == _RET:
            if ras:
                used.append(True)
                popped.append(ras.pop())
            else:
                used.append(False)
                popped.append(0)
        else:
            ras.append(pc + 4)
            if (cat == _ICALL or trim_call) and len(ras) > 16:
                del ras[0]
    return (np.asarray(used, dtype=bool),
            np.asarray(popped, dtype=np.int64))


class BranchReplayContext:
    """Predictor-independent replay state of one transfer stream."""

    def __init__(self, pcs, cats, takens, targets,
                 btb_entries: int = 1024, use_ras: bool = True) -> None:
        self.pc = np.asarray(pcs, dtype=np.int64)
        self.cat = np.asarray(cats, dtype=np.int64)
        self.taken = np.asarray(takens, dtype=bool)
        self.target = np.asarray(targets, dtype=np.int64)
        self.btb_entries = btb_entries
        self.use_ras = use_ras
        self.n = len(self.pc)

        cat = self.cat
        self.is_branch = cat == _BRANCH
        self.is_ret = cat == _RET
        self.is_ijc = (cat == _IJUMP) | (cat == _ICALL)
        self.cond_pc = self.pc[self.is_branch]
        self.cond_taken = self.taken[self.is_branch]
        self.conditional = int(self.is_branch.sum())
        self.indirect = int(self.is_ret.sum() + self.is_ijc.sum())

        # BTB lookups resolved offline.  Update events = taken branches,
        # returns and indirect jumps/calls; lookups happen on exactly
        # the same events, strictly before the event's own update.
        touched = (self.is_branch & self.taken) | self.is_ret | self.is_ijc
        self.btb_correct = np.zeros(self.n, dtype=bool)
        pos = np.flatnonzero(touched)
        if len(pos):
            pc_t = self.pc[pos]
            target_t = self.target[pos]
            slot = (pc_t >> 2) % btb_entries
            key = slot * np.int64(self.n + 1) + pos
            by_key = np.argsort(key)
            skey = key[by_key]
            sslot = slot[by_key]
            spc = pc_t[by_key]
            starget = target_t[by_key]
            before = np.searchsorted(skey, key) - 1
            clipped = np.maximum(before, 0)
            hit = ((before >= 0)
                   & (sslot[clipped] == slot)
                   & (spc[clipped] == pc_t)
                   & (starget[clipped] == target_t))
            self.btb_correct[pos] = hit

        self._ras_memo: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

    def ras_outcome(self, trim_call: bool):
        """Memoized RAS replay (``(used, popped)`` over RET events)."""
        hit = self._ras_memo.get(trim_call)
        if hit is None:
            hit = replay_ras(self.pc, self.cat, trim_call)
            self._ras_memo[trim_call] = hit
        return hit


def run_with_context(predictor, ctx: BranchReplayContext):
    """Drive one direction predictor over a shared replay context.

    Bit-identical to the scalar ``run_predictor`` loop.
    """
    from .predictors import BranchSimResult

    result = BranchSimResult()
    result.transfers = ctx.n
    result.conditional = ctx.conditional
    result.indirect = ctx.indirect
    if ctx.n == 0:
        return result

    predicted = predictor.predict_batch(ctx.cond_pc, ctx.cond_taken)
    wrong_dir = predicted != ctx.cond_taken
    result.cond_mispredicts = int(wrong_dir.sum())
    # Right-direction taken branches still need the target from the BTB.
    branch_target_miss = int(
        (ctx.cond_taken & ~wrong_dir & ~ctx.btb_correct[ctx.is_branch]).sum()
    )
    ijc_miss = int((~ctx.btb_correct[ctx.is_ijc]).sum())
    if ctx.use_ras:
        used, popped = ctx.ras_outcome(trim_call=False)
        ret_miss = int(np.where(
            used,
            popped != ctx.target[ctx.is_ret],
            ~ctx.btb_correct[ctx.is_ret],
        ).sum())
    else:
        ret_miss = int((~ctx.btb_correct[ctx.is_ret]).sum())
    result.target_mispredicts = branch_target_miss + ijc_miss + ret_miss
    result.indirect_mispredicts = ijc_miss + ret_miss
    return result
