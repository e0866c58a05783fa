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
- the 16-entry return-address stack only changes on CALL/ICALL/RET
  events and replays over that small subset.

A :class:`BranchReplayContext` computes all of this once per transfer
stream; it is immutable, so any number of predictors (Table 2 runs
four, the pipeline model one) share one context.
"""

from __future__ import annotations

import numpy as np

from ...native.nisa import NCat
from .predictors import BTB_ENTRIES, RAS_ENTRIES

_BRANCH = int(NCat.BRANCH)
_CALL = int(NCat.CALL)
_IJUMP = int(NCat.IJUMP)
_ICALL = int(NCat.ICALL)
_RET = int(NCat.RET)


def _replay_ras(pc: np.ndarray, cat: np.ndarray):
    """Replay the return-address stack over CALL/ICALL/RET events.

    Returns ``(used, popped)`` aligned to the RET events: whether the
    stack was non-empty, and the value popped when it was.
    """
    sub = np.flatnonzero(np.isin(cat, (_CALL, _ICALL, _RET)))
    used: list[bool] = []
    popped: list[int] = []
    ras: list[int] = []
    for p, c in zip(pc[sub].tolist(), cat[sub].tolist()):
        if c == _RET:
            used.append(bool(ras))
            popped.append(ras.pop() if ras else 0)
        else:
            ras.append(p + 4)
            if len(ras) > RAS_ENTRIES:
                del ras[0]
    return (np.asarray(used, dtype=bool),
            np.asarray(popped, dtype=np.int64))


class BranchReplayContext:
    """Predictor-independent replay state of one transfer stream."""

    def __init__(self, pcs, cats, takens, targets) -> None:
        pc = np.asarray(pcs, dtype=np.int64)
        cat = np.asarray(cats, dtype=np.int64)
        taken = np.asarray(takens, dtype=bool)
        target = np.asarray(targets, dtype=np.int64)
        n = len(pc)
        self.is_branch = cat == _BRANCH
        is_ret = cat == _RET
        is_ijc = (cat == _IJUMP) | (cat == _ICALL)
        self.cond_pc = pc[self.is_branch]
        self.cond_taken = taken[self.is_branch]

        # BTB lookups resolved offline.  Update events = taken branches,
        # returns and indirect jumps/calls; lookups happen on exactly
        # the same events, strictly before the event's own update.
        touched = (self.is_branch & taken) | is_ret | is_ijc
        btb_correct = np.zeros(n, dtype=bool)
        pos = np.flatnonzero(touched)
        if len(pos):
            pc_t = pc[pos]
            target_t = target[pos]
            slot = (pc_t >> 2) % BTB_ENTRIES
            key = slot * np.int64(n + 1) + pos
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
            btb_correct[pos] = hit
        self.btb_correct_branch = btb_correct[self.is_branch]

        # Every target mispredict but a taken branch's is independent of
        # the direction predictor.
        self.target_miss = np.zeros(n, dtype=bool)
        self.target_miss[is_ijc] = ~btb_correct[is_ijc]
        used, popped = _replay_ras(pc, cat)
        self.target_miss[is_ret] = np.where(
            used, popped != target[is_ret], ~btb_correct[is_ret])

    def replay(self, predictor) -> tuple[np.ndarray, np.ndarray]:
        """Drive one direction predictor over this stream: the
        per-transfer mispredict mask and the per-conditional
        wrong-direction mask, bit-identical to the scalar reference."""
        predicted = predictor.predict_batch(self.cond_pc, self.cond_taken)
        wrong_dir = predicted != self.cond_taken
        mispredicted = self.target_miss.copy()
        # Right-direction taken branches still need the target from the
        # BTB.
        mispredicted[self.is_branch] = wrong_dir | (
            self.cond_taken & ~self.btb_correct_branch)
        return mispredicted, wrong_dir
