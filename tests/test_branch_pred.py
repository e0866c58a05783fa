"""Branch predictors and BTB on crafted event sequences."""

import pytest

from repro.arch.branch import (
    BTB,
    BimodalBHT,
    GAp,
    Gshare,
    PREDICTORS,
    SingleTwoBit,
    run_predictor,
)
from repro.native.nisa import NCat


def _events(seq):
    """seq: list of (pc, cat, taken, target)."""
    pcs = [e[0] for e in seq]
    cats = [int(e[1]) for e in seq]
    takens = [e[2] for e in seq]
    targets = [e[3] for e in seq]
    return pcs, cats, takens, targets


def _branch(pc, taken, target=0x9000):
    return (pc, NCat.BRANCH, taken, target if taken else 0)


class TestDirectionPredictors:
    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_learns_always_taken(self, name):
        events = _events([_branch(0x100, True)] * 50)
        res = run_predictor(PREDICTORS[name](), *events)
        # After warm-up everything predicts taken; BTB learns the target.
        assert res.cond_mispredicts <= 2
        assert res.misprediction_rate < 0.1

    @pytest.mark.parametrize("name", sorted(PREDICTORS))
    def test_learns_never_taken(self, name):
        events = _events([_branch(0x100, False)] * 50)
        res = run_predictor(PREDICTORS[name](), *events)
        assert res.cond_mispredicts <= 2

    def test_single_2bit_shared_counter_interferes(self):
        # Two branches with opposite biases thrash one counter...
        seq = []
        for _ in range(40):
            seq.append(_branch(0x100, True))
            seq.append(_branch(0x200, False))
        events = _events(seq)
        shared = run_predictor(SingleTwoBit(), *events)
        table = run_predictor(BimodalBHT(), *events)
        # ...while per-pc counters keep them apart.
        assert table.cond_mispredicts < shared.cond_mispredicts

    def test_gshare_learns_alternation(self):
        # T,N,T,N at one pc: bimodal is ~50%; gshare's history resolves it.
        seq = [_branch(0x100, i % 2 == 0) for i in range(200)]
        events = _events(seq)
        gshare = run_predictor(Gshare(), *events)
        bimodal = run_predictor(BimodalBHT(), *events)
        assert gshare.cond_mispredicts < bimodal.cond_mispredicts
        assert gshare.cond_mispredicts <= 12

    def test_gap_learns_per_branch_patterns(self):
        # Branch A alternates, branch B always taken.
        seq = []
        for i in range(200):
            seq.append(_branch(0x100, i % 2 == 0))
            seq.append(_branch(0x200, True))
        events = _events(seq)
        res = run_predictor(GAp(), *events)
        assert res.conditional_rate < 0.2


class TestBTBAndIndirect:
    def test_btb_stores_and_overwrites(self):
        btb = BTB(entries=16)
        btb.update(0x100, 0x500)
        assert btb.lookup(0x100) == 0x500
        btb.update(0x100, 0x700)
        assert btb.lookup(0x100) == 0x700
        assert btb.lookup(0x104) is None

    def test_btb_conflict_eviction(self):
        btb = BTB(entries=16)
        btb.update(0x100, 0x500)
        btb.update(0x100 + 16 * 4, 0x900)   # same index, different tag
        assert btb.lookup(0x100) is None

    def test_stable_indirect_predicted(self):
        seq = [(0x100, NCat.IJUMP, True, 0x5000)] * 50
        res = run_predictor(Gshare(), *_events(seq))
        assert res.indirect_mispredicts == 1  # only the cold miss

    def test_varying_indirect_defeats_btb(self):
        # The interpreter dispatch pattern: one pc, rotating targets.
        seq = [(0x100, NCat.IJUMP, True, 0x5000 + 64 * (i % 7))
               for i in range(70)]
        res = run_predictor(Gshare(), *_events(seq))
        assert res.indirect_rate > 0.8

    def test_direct_jumps_always_correct(self):
        seq = [(0x100, NCat.JUMP, True, 0x5000)] * 20
        res = run_predictor(Gshare(), *_events(seq))
        assert res.mispredicts == 0

    def test_ras_predicts_returns(self):
        seq = []
        for i in range(20):
            call_pc = 0x1000 + 64 * i
            seq.append((call_pc, NCat.CALL, True, 0x8000))
            seq.append((0x8004, NCat.RET, True, call_pc + 4))
        res = run_predictor(Gshare(), *_events(seq))
        assert res.indirect_mispredicts == 0

    @staticmethod
    def _nest(depth):
        """``depth`` nested calls, then their returns, innermost first."""
        calls = [(0x1000 + 64 * d, NCat.CALL, True, 0x8000 + 64 * d)
                 for d in range(depth)]
        rets = [(0x8004 + 64 * d, NCat.RET, True, 0x1004 + 64 * d)
                for d in reversed(range(depth))]
        return calls + rets

    def test_ras_holds_sixteen_returns(self):
        res = run_predictor(Gshare(), *_events(self._nest(16)))
        assert res.indirect_mispredicts == 0

    def test_returns_without_ras_fall_back_to_btb(self):
        # 20 calls overflow the 16-entry stack: the 4 outermost returns
        # find it empty and take the BTB's target for their pc, which
        # is cold on the first pass and right on the second.
        res = run_predictor(Gshare(), *_events(self._nest(20) * 2))
        assert res.indirect == 40
        assert res.indirect_mispredicts == 4

    def test_taken_branch_needs_btb_target(self):
        # Correct direction but unseen target still counts as a target miss.
        seq = [_branch(0x100, True, 0x9000), _branch(0x100, True, 0x9100)]
        res = run_predictor(BimodalBHT(), *_events(seq))
        assert res.target_mispredicts >= 1


class TestResultAccounting:
    def test_counts_sum(self):
        seq = (
            [_branch(0x100, True)] * 3
            + [(0x200, NCat.IJUMP, True, 0x5000)] * 2
            + [(0x300, NCat.JUMP, True, 0x6000)]
        )
        res = run_predictor(Gshare(), *_events(seq))
        assert res.transfers == 6
        assert res.conditional == 3
        assert res.indirect == 2
