"""Branch predictors (Table 2) and the branch target buffer.

Four direction predictors, matching the paper's setup: a single shared
2-bit counter (validation baseline), a 1-level 2K-entry branch history
table, Gshare with 5 bits of global history, and a GAp two-level
predictor (2K-entry per-address history, 256-entry second level).
Targets of taken transfers are predicted by a 1K-entry BTB; returns use
a 16-entry return-address stack.  Table 2 and the pipeline model
(:mod:`repro.arch.pipeline`) share this one front end: :func:`replay`
yields its per-transfer mispredict mask, which both count.

A control transfer counts as mispredicted when its direction is wrong
(conditional branches) or its target is wrong (any taken transfer) —
which is what makes the interpreter's switch-dispatch indirect jump,
one pc with ~80 targets, so costly.
"""

from __future__ import annotations

import numpy as np

from ...native.nisa import NCat
from .. import compiled
from ..kernels import active_kernel


def _aslist(values) -> list:
    """Plain Python list view of an array-like (fast-path lists)."""
    if isinstance(values, list):
        return values
    return np.asarray(values).tolist()


class DirectionPredictor:
    """Interface for direction predictors."""

    name = "abstract"

    def predict(self, pc: int) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        raise NotImplementedError

    def predict_batch(self, pcs, takens) -> np.ndarray:
        """Predictions for a conditional-branch stream, advancing state
        exactly as per-event predict/update would (the reference, and
        the path of any custom predictor under the vector kernel)."""
        out = []
        append = out.append
        for pc, taken in zip(_aslist(pcs), _aslist(takens)):
            append(self.predict(pc))
            self.update(pc, taken)
        return np.asarray(out, dtype=bool)


class CounterTablePredictor(DirectionPredictor):
    """2-bit counters, the shape every predictor here shares.

    Branch ``pc`` reads counter ``((pc >> 2 if _xor_pc else 0) ^ h) %
    len(_table)``, where ``h`` is the history register
    ``_histories[(pc >> 2) % len(_histories)]``, or 0 when there are
    none; each outcome shifts into that register under ``_hmask``.
    :meth:`predict_batch` runs this loop in C
    (:func:`repro.arch.compiled.predict`), converting both lists to
    arrays and back around the call, and falls back to per-event
    predict/update when C cannot run.
    """

    _xor_pc = True
    _hmask = 0

    def __init__(self, entries: int, histories: int = 0) -> None:
        self._table = [2] * entries
        self._histories = [0] * histories

    def predict_batch(self, pcs, takens) -> np.ndarray:
        table = np.asarray(self._table, dtype=np.int64)
        histories = np.asarray(self._histories, dtype=np.int64)
        predicted = compiled.note("branch", compiled.predict(
            pcs, takens, table, histories, self._hmask, self._xor_pc))
        if predicted is None:
            return super().predict_batch(pcs, takens)
        self._table = table.tolist()
        self._histories = histories.tolist()
        return predicted


def _count(v: int, taken) -> int:
    """A 2-bit saturating counter after one outcome."""
    return min(3, v + 1) if taken else max(0, v - 1)


class SingleTwoBit(CounterTablePredictor):
    """One shared 2-bit counter for every branch."""

    name = "2bit"

    def __init__(self) -> None:
        super().__init__(1)

    def predict(self, pc: int) -> bool:
        return self._table[0] >= 2

    def update(self, pc: int, taken: bool) -> None:
        self._table[0] = _count(self._table[0], taken)


class BimodalBHT(CounterTablePredictor):
    """1-level branch history table: 2-bit counters indexed by pc."""

    name = "bht"

    def __init__(self, entries: int = 2048) -> None:
        super().__init__(entries)
        self.entries = entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) % self.entries

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        self._table[i] = _count(self._table[i], taken)


class Gshare(CounterTablePredictor):
    """Global history XOR pc, 2-bit counters."""

    name = "gshare"

    def __init__(self, entries: int = 2048, history_bits: int = 5) -> None:
        super().__init__(entries, histories=1)
        self.entries = entries
        self.history_bits = history_bits
        self._hmask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._histories[0]) % self.entries

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._index(pc)
        self._table[i] = _count(self._table[i], taken)
        self._histories[0] = (
            (self._histories[0] << 1) | int(taken)) & self._hmask


class GAp(CounterTablePredictor):
    """Two-level, per-address history (Yeh & Patt's GAp flavour):
    a 2K-entry first-level history table and a 256-entry second-level
    pattern table of 2-bit counters."""

    name = "gap"
    _xor_pc = False

    def __init__(self, l1_entries: int = 2048, l2_entries: int = 256,
                 history_bits: int = 5) -> None:
        super().__init__(l2_entries, histories=l1_entries)
        self.l1_entries = l1_entries
        self.l2_entries = l2_entries
        self._hmask = (1 << history_bits) - 1

    def _l1(self, pc: int) -> int:
        return (pc >> 2) % self.l1_entries

    def predict(self, pc: int) -> bool:
        history = self._histories[self._l1(pc)]
        return self._table[history % self.l2_entries] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = self._l1(pc)
        history = self._histories[i]
        j = history % self.l2_entries
        self._table[j] = _count(self._table[j], taken)
        self._histories[i] = ((history << 1) | int(taken)) & self._hmask


#: Entries of the direct-mapped branch target buffer.
BTB_ENTRIES = 1024

#: Entries of the return-address stack; a push past them drops the
#: oldest.
RAS_ENTRIES = 16


class BTB:
    """Direct-mapped branch target buffer."""

    def __init__(self, entries: int = BTB_ENTRIES) -> None:
        self.entries = entries
        self._tags = [-1] * entries
        self._targets = [0] * entries

    def lookup(self, pc: int) -> int | None:
        i = (pc >> 2) % self.entries
        if self._tags[i] == pc:
            return self._targets[i]
        return None

    def update(self, pc: int, target: int) -> None:
        i = (pc >> 2) % self.entries
        self._tags[i] = pc
        self._targets[i] = target


PREDICTORS = {
    "2bit": SingleTwoBit,
    "bht": BimodalBHT,
    "gshare": Gshare,
    "gap": GAp,
}

_BRANCH, _CALL, _ICALL = int(NCat.BRANCH), int(NCat.CALL), int(NCat.ICALL)
_IJUMP, _RET = int(NCat.IJUMP), int(NCat.RET)


class BranchSimResult:
    """Outcome of running one predictor over a trace's transfers,
    counted from the front end's masks (:func:`replay`): a
    conditional mispredict has the wrong direction, every other
    mispredict the wrong target."""

    def __init__(self, cats, mispredicted: np.ndarray,
                 wrong_direction: np.ndarray) -> None:
        cats = np.asarray(cats)
        indirect = (cats == _RET) | (cats == _IJUMP) | (cats == _ICALL)
        self.transfers = len(cats)
        self.conditional = len(wrong_direction)
        self.cond_mispredicts = int(wrong_direction.sum())
        self.target_mispredicts = (int(mispredicted.sum())
                                   - self.cond_mispredicts)
        self.indirect = int(indirect.sum())
        self.indirect_mispredicts = int(mispredicted[indirect].sum())

    @property
    def mispredicts(self) -> int:
        return self.cond_mispredicts + self.target_mispredicts

    @property
    def misprediction_rate(self) -> float:
        """Mispredictions per control transfer (the Table 2 metric)."""
        return self.mispredicts / self.transfers if self.transfers else 0.0

    @property
    def conditional_rate(self) -> float:
        return (self.cond_mispredicts / self.conditional
                if self.conditional else 0.0)

    @property
    def indirect_rate(self) -> float:
        return (self.indirect_mispredicts / self.indirect
                if self.indirect else 0.0)


def _replay_scalar(predictor: DirectionPredictor, pcs, cats, takens,
                   targets) -> tuple[np.ndarray, np.ndarray]:
    """Reference oracle: the front end one transfer at a time."""
    btb = BTB()
    ras: list[int] = []
    mispredicted: list[bool] = []
    wrong_direction: list[bool] = []
    for pc, cat, taken, target in zip(_aslist(pcs), _aslist(cats),
                                      _aslist(takens), _aslist(targets)):
        wrong = False
        if cat == _BRANCH:
            wrong = predictor.predict(pc) != taken
            wrong_direction.append(wrong)
            # Right direction; a taken branch's target comes from the BTB.
            wrong = wrong or (taken and btb.lookup(pc) != target)
            predictor.update(pc, taken)
            if taken:
                btb.update(pc, target)
        elif cat == _RET:
            wrong = (ras.pop() if ras else btb.lookup(pc)) != target
            btb.update(pc, target)
        elif cat in (_IJUMP, _ICALL):
            wrong = btb.lookup(pc) != target
            btb.update(pc, target)
        # Direct jumps and calls: decode provides the target.
        if cat in (_CALL, _ICALL):
            ras.append(pc + 4)
            if len(ras) > RAS_ENTRIES:
                del ras[0]
        mispredicted.append(wrong)
    return (np.asarray(mispredicted, dtype=bool),
            np.asarray(wrong_direction, dtype=bool))


def replay(predictor: DirectionPredictor, trace,
           kernel: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The front end over ``trace``'s control transfers: a per-transfer
    mispredict mask and a per-conditional wrong-direction mask.

    Under the vector kernel every predictor shares the trace's memoized
    replay context (masks, BTB resolution and RAS replay are computed
    once per trace); Table 2 and the pipeline model both count these
    masks.
    """
    if active_kernel(kernel) == "vector":
        return trace.branch_context().replay(predictor)
    return _replay_scalar(predictor, *trace.transfers())


def run_predictor(
    predictor: DirectionPredictor,
    pcs, cats, takens, targets,
    kernel: str | None = None,
) -> BranchSimResult:
    """Drive one direction predictor + BTB + RAS over transfer events."""
    if active_kernel(kernel) == "vector":
        from .vector import BranchReplayContext
        masks = BranchReplayContext(pcs, cats, takens,
                                    targets).replay(predictor)
    else:
        masks = _replay_scalar(predictor, pcs, cats, takens, targets)
    return BranchSimResult(cats, *masks)


def compare_predictors(trace, names=("2bit", "bht", "gshare", "gap"),
                       kernel=None):
    """Misprediction results for several predictors over one trace."""
    cats = trace.transfers()[1]
    return {
        name: BranchSimResult(cats, *replay(PREDICTORS[name](), trace,
                                            kernel))
        for name in names
    }
