"""Extension features: folding interpreter, indirect predictors,
locality statistics, cache write policies, scale study."""

import numpy as np
import pytest

from repro.analysis import run_vm
from repro.analysis.locality import (
    BytecodeLocality,
    MethodLocality,
    method_sizes_of,
)
from repro.arch.branch import (
    HybridIndirectPredictor,
    TargetCache,
    run_indirect_predictor,
)
from repro.arch.caches import CacheConfig, simulate
from repro.isa.opcodes import N_OPCODES, Op
from repro.native.nisa import NCat


class TestFoldingInterpreter:
    def test_semantics_preserved(self):
        for wl in ("compress", "db", "mtrt"):
            base = run_vm(wl, "s0", "interp")
            fold = run_vm(wl, "s0", "interp,folding=True")
            assert base.stdout == fold.stdout, wl
            assert base.bytecodes_executed == fold.bytecodes_executed

    def test_fewer_instructions_and_cycles(self):
        base = run_vm("compress", "s0", "interp")
        fold = run_vm("compress", "s0", "interp,folding=True")
        assert fold.instructions < base.instructions
        assert fold.cycles < base.cycles
        assert fold.folded_bytecodes > 1000

    def test_dispatch_jumps_reduced(self):
        base = run_vm("jess", "s0", "interp")
        fold = run_vm("jess", "s0", "interp,folding=True")
        assert (fold.category_counts[NCat.IJUMP]
                < 0.8 * base.category_counts[NCat.IJUMP])

    def test_folded_trace_well_formed(self):
        fold = run_vm("db", "s0",
                      "interp,folding=True,record=True")
        tr = fold.trace
        assert tr.n == fold.instructions
        # folded groups: a dispatch block is followed by >1 handler body
        assert tr.base_cycles() == fold.cycles

    def test_folding_noop_for_jit_mode(self):
        base = run_vm("db", "s0", "jit")
        fold = run_vm("db", "s0", "jit,folding=True")
        # compiled chunks are not interp templates: nothing folds except
        # around interpreted library paths
        assert fold.stdout == base.stdout

    def test_template_slicing(self):
        from repro.vm.interp_templates import shared_templates, _DISPATCH_LEN
        tpl = shared_templates().tpl[Op.IADD]
        body = tpl.slice_rows(_DISPATCH_LEN, tpl.n)
        assert body.n == tpl.n - _DISPATCH_LEN
        # dispatch's bc-fetch patch is gone; body patches rebased
        assert len(body.patch_ea) == len(tpl.patch_ea) - 1
        assert body.pc[0] == tpl.pc[_DISPATCH_LEN]
        nojump = tpl.slice_rows(0, tpl.n - 1)
        assert nojump.cat[-1] != int(NCat.JUMP)


class TestIndirectPredictors:
    def _dispatch_pattern(self, n=600, period=6):
        pcs = [0x100] * n
        cats = [int(NCat.IJUMP)] * n
        takens = [True] * n
        targets = [0x5000 + 64 * (i % period) for i in range(n)]
        return pcs, cats, takens, targets

    def test_target_cache_learns_repeating_sequences(self):
        res = run_indirect_predictor(TargetCache(),
                                     *self._dispatch_pattern())
        assert res["accuracy"] > 0.9

    def test_plain_btb_fails_same_pattern(self):
        class BTBOnly:
            def __init__(self):
                self.t = {}

            def predict(self, pc):
                return self.t.get(pc)

            def update(self, pc, target):
                self.t[pc] = target

        res = run_indirect_predictor(BTBOnly(), *self._dispatch_pattern())
        assert res["accuracy"] < 0.1

    def test_hybrid_keeps_monomorphic_sites(self):
        # One stable site: hybrid must not be worse than BTB there.
        pcs = [0x200] * 100
        cats = [int(NCat.ICALL)] * 100
        takens = [True] * 100
        targets = [0x9000] * 100
        res = run_indirect_predictor(HybridIndirectPredictor(),
                                     pcs, cats, takens, targets)
        assert res["correct"] >= 98

    def test_real_interpreter_trace_gain(self):
        trace = run_vm("compress", "s0",
                       "interp,record=True").trace
        events = trace.transfers()
        tc = run_indirect_predictor(TargetCache(), *events)
        assert tc["accuracy"] > 0.5
        assert tc["events"] > 1000


class TestWritePolicy:
    def test_write_around_does_not_install(self):
        st = simulate(CacheConfig(1024, 32, 1, write_allocate=False),
                      np.array([0, 4]), writes=np.array([True, False]))
        assert st.total_misses == 2

    def test_write_allocate_installs(self):
        st = simulate(CacheConfig(1024, 32, 1, write_allocate=True),
                      np.array([0, 4]), writes=np.array([True, False]))
        assert st.total_misses == 1

    def test_write_around_protects_read_working_set(self):
        # Reads fit the cache exactly; streaming writes evict them under
        # write-allocate but not under write-around.
        reads = np.concatenate([np.arange(0, 1024, 32)] * 2)
        stream_writes = np.arange(4096, 4096 + 8 * 1024, 32)
        addrs = np.concatenate([reads[:32], stream_writes, reads[:32]])
        writes = np.zeros(len(addrs), dtype=bool)
        writes[32:32 + len(stream_writes)] = True
        wa = simulate(CacheConfig(1024, 32, 2, write_allocate=True),
                      addrs, writes=writes)
        wna = simulate(CacheConfig(1024, 32, 2, write_allocate=False),
                       addrs, writes=writes)
        assert wna.total_misses < wa.total_misses

    def test_policy_in_name(self):
        assert "wna" in CacheConfig(1024, 32, 1, write_allocate=False).name


class TestBytecodeLocality:
    def test_coverage_math(self):
        counts = np.zeros(N_OPCODES, dtype=np.int64)
        counts[int(Op.IADD)] = 90
        counts[int(Op.ISUB)] = 10
        bl = BytecodeLocality(counts)
        assert bl.distinct == 2
        assert bl.coverage_of_top(1) == pytest.approx(0.9)
        assert bl.opcodes_for_coverage(0.90) == 1
        assert bl.opcodes_for_coverage(0.95) == 2

    def test_empty_counts(self):
        bl = BytecodeLocality(np.zeros(N_OPCODES, dtype=np.int64))
        assert bl.total == 0
        assert bl.coverage_of_top(15) == 0.0

    def test_vm_histogram_populated(self):
        result = run_vm("compress", "s0", "interp")
        bl = BytecodeLocality(result.opcode_counts)
        assert bl.total == result.bytecodes_executed
        assert bl.coverage_of_top(15) > 0.5   # the paper's concentration

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            BytecodeLocality(np.zeros(3))


class TestMethodLocality:
    def test_reuse_histogram(self):
        profiles = {
            "A.once": {"invocations": 1},
            "B.twice": {"invocations": 2},
            "C.hot": {"invocations": 5000},
        }
        sizes = {"A.once": 10, "B.twice": 30, "C.hot": 12}
        ml = MethodLocality(profiles, sizes)
        hist = ml.reuse_histogram()
        assert hist["1"] == 1
        assert hist["2"] == 1
        assert hist[">100"] == 1

    def test_small_method_fraction_dynamic(self):
        profiles = {
            "A.small": {"invocations": 90},
            "B.big": {"invocations": 10},
        }
        sizes = {"A.small": 8, "B.big": 200}
        ml = MethodLocality(profiles, sizes)
        assert ml.fraction_invocations_small(16) == pytest.approx(0.9)

    def test_method_sizes_of_program(self):
        from repro.workloads import get_workload
        program = get_workload("db").build("s0")
        sizes = method_sizes_of(program)
        assert "spec/Record.getKey" in sizes
        assert sizes["spec/Record.getKey"] <= 16   # a tiny accessor


class TestScaleStudyAndLocalityExperiments:
    def test_locality_experiment(self):
        from repro.experiments import get_experiment
        res = get_experiment("locality")(scale="s0",
                                         benchmarks=("compress",))
        row = res.rows[0]
        assert row[2] > 50      # top-15 coverage %
        assert row[3] <= row[1]  # 90% coverage needs <= distinct opcodes

    def test_indirect_experiment(self):
        from repro.experiments import get_experiment
        res = get_experiment("ablation_indirect")(
            scale="s0", benchmarks=("compress",))
        by = {(r[0], r[1]): r for r in res.rows}
        interp = by[("compress", "interp")]
        assert interp[4] > interp[3] + 20   # target-cache >> BTB

    def test_scale_study_translate_share_shrinks(self):
        from repro.experiments import get_experiment
        res = get_experiment("scale_study")(benchmarks=("db",))
        shares = [r[3] for r in res.rows]   # s0, s1, s10 translate shares
        assert shares[0] > shares[-1]

    def test_folding_experiment(self):
        from repro.experiments import get_experiment
        res = get_experiment("ablation_folding")(
            scale="s0", benchmarks=("compress",))
        row = res.rows[0]
        assert row[1] > 5        # cycle saving %
        assert row[4] < row[3]   # mispredict improves
        assert row[6] > row[5]   # ipc@8 improves


class TestVictimCache:
    def test_victim_recovers_pair_conflicts(self):
        import numpy as np
        from repro.arch.caches import CacheConfig, simulate
        addrs = np.array([0, 1024, 0, 1024] * 20)
        dm = simulate(CacheConfig(1024, 32, 1), addrs)
        dmv = simulate(CacheConfig(1024, 32, 1, victim_entries=4), addrs)
        assert dm.miss_rate > 0.9
        # the victim buffer turns the ping-pong into (near-)hits
        assert dmv.effective_miss_rate < 0.1
        assert int(dmv.victim_hits.sum()) > 70

    def test_victim_capacity_bounded(self):
        import numpy as np
        from repro.arch.caches import CacheConfig, simulate
        # 8 conflicting blocks with a 2-entry victim buffer: little help
        addrs = np.array([1024 * k for k in range(8)] * 10)
        small = simulate(CacheConfig(1024, 32, 1, victim_entries=2), addrs)
        assert small.effective_miss_rate > 0.7

    def test_no_victim_by_default(self):
        import numpy as np
        from repro.arch.caches import CacheConfig, simulate
        st = simulate(CacheConfig(1024, 32, 1), np.array([0, 1024, 0]))
        assert int(st.victim_hits.sum()) == 0
        assert st.effective_miss_rate == st.miss_rate

    def test_victim_on_real_trace_helps_dm_icache(self):
        from repro.analysis import run_vm
        from repro.arch.caches import CacheConfig, simulate
        trace = run_vm("javac", "s0", "jit,record=True").trace
        plain = simulate(CacheConfig(8 << 10, 32, 1), trace.pc)
        helped = simulate(CacheConfig(8 << 10, 32, 1, victim_entries=8),
                          trace.pc)
        assert helped.effective_miss_rate <= plain.miss_rate

    def test_victim_ablation_never_hurts(self):
        from repro.experiments import get_experiment
        res = get_experiment("ablation_victim")(scale="s0",
                                                benchmarks=("javac",))
        for row in res.rows:
            assert row[3] <= row[2] + 1e-9
