"""Analysis: instruction mix, hybrid oracle model, runners, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    OracleAnalysis,
    format_bars,
    format_stacked_bars,
    format_table,
    indirect_fraction,
    mix_from_counts,
    oracle_run,
    run_vm,
    summarize,
)
from repro.analysis.hybrid import MethodDecision
from repro.native.nisa import MIX_BUCKETS, N_CATEGORIES, NCat
from repro.vm import RunConfig


class TestMix:
    def test_fractions_sum_to_one(self):
        counts = np.arange(N_CATEGORIES, dtype=np.int64)
        mix = mix_from_counts(counts)
        assert sum(mix.values()) == pytest.approx(1.0)
        assert set(mix) == set(MIX_BUCKETS)

    def test_empty_counts(self):
        mix = mix_from_counts(np.zeros(N_CATEGORIES, dtype=np.int64))
        assert all(v == 0.0 for v in mix.values())

    def test_summary_groups(self):
        counts = np.zeros(N_CATEGORIES, dtype=np.int64)
        counts[NCat.LOAD] = 3
        counts[NCat.STORE] = 1
        counts[NCat.BRANCH] = 4
        counts[NCat.IALU] = 2
        s = summarize(mix_from_counts(counts))
        assert s["memory"] == pytest.approx(0.4)
        assert s["transfer"] == pytest.approx(0.4)
        assert s["compute"] == pytest.approx(0.2)

    def test_indirect_fraction(self):
        counts = np.zeros(N_CATEGORIES, dtype=np.int64)
        counts[NCat.IJUMP] = 1
        counts[NCat.ICALL] = 1
        counts[NCat.RET] = 2
        counts[NCat.IALU] = 6
        assert indirect_fraction(counts) == pytest.approx(0.4)


class TestMethodDecision:
    def test_crossover_formula(self):
        d = MethodDecision("m", n=10, interp_total=1000, translate=300,
                           exec_total=500)
        # I=100/inv, E=50/inv, N = 300/(100-50) = 6; n=10 > 6 -> compile
        assert d.crossover == pytest.approx(6.0)
        assert d.compile
        assert d.oracle_cost == 800

    def test_interpret_when_translate_never_amortizes(self):
        d = MethodDecision("m", n=1, interp_total=100, translate=500,
                           exec_total=20)
        assert not d.compile
        assert d.oracle_cost == 100

    def test_infinite_crossover_when_exec_not_cheaper(self):
        import math
        d = MethodDecision("m", n=5, interp_total=100, translate=50,
                           exec_total=200)
        assert math.isinf(d.crossover)
        assert not d.compile

    def test_oracle_cost_is_min(self):
        d = MethodDecision("m", n=3, interp_total=90, translate=40,
                           exec_total=30)
        assert d.oracle_cost == min(40 + 30, 90)


class TestOracleModel:
    @pytest.fixture(scope="class")
    def analysis(self):
        analysis, mixed = oracle_run("db", "s0")
        return analysis, mixed

    def test_projection_matches_enactment(self, analysis):
        a, mixed = analysis
        # The analytical opt projection must agree with a real mixed run
        # within a few percent (they differ only in scheduler noise).
        assert a.oracle_total == pytest.approx(mixed.cycles, rel=0.05)

    def test_oracle_never_worse_than_both_poles(self, analysis):
        a, _ = analysis
        assert a.oracle_total <= a.jit_total + 1
        assert a.oracle_total <= a.interp_total + 1

    def test_strategy_round_trip(self, analysis):
        a, _ = analysis
        config = a.config()
        assert config.name == "oracle"
        assert config.compile_set == frozenset(a.methods_to_compile)
        assert RunConfig.parse(config.token) == config

    def test_summary_keys(self, analysis):
        a, _ = analysis
        s = a.summary()
        assert s["methods"] == len(a.decisions)
        assert 0 <= s["oracle_saving"] < 1
        assert s["interp_to_jit_ratio"] > 0


class TestRunner:
    def test_token_heads_name_the_policy(self):
        assert RunConfig.parse("interp").threshold is None
        assert RunConfig.parse("jit") == RunConfig(threshold=1)
        assert RunConfig.parse("counter3").name == "counter"
        assert RunConfig.parse("oracle,compile_set=A.m").compile_set == {
            "A.m"}
        for token in ("warp-speed", "jit,warp=1", "counter", "jit,inline",
                      "jit,profile=False"):
            with pytest.raises(ValueError):
                RunConfig.parse(token)

    def test_config_passthrough(self):
        c = RunConfig(threshold=5)
        assert RunConfig.of(c) is c
        assert RunConfig.of("counter5") == c
        with pytest.raises(TypeError):
            RunConfig.of(("counter", 5))

    def test_run_vm_modes(self):
        interp = run_vm("hello", "s0", "interp")
        jit = run_vm("hello", "s0", "jit")
        assert interp.methods_compiled == 0
        assert jit.methods_compiled > 0

    def test_run_vm_lock_manager_selection(self):
        r = run_vm("hello", "s0", "jit,lock_manager=thin-lock")
        assert r.sync["acquire_ops"] > 0

    def test_trace_cache_round_trip(self, tmp_path):
        from repro.analysis.runner import get_trace
        cache = str(tmp_path / "cache")
        t1 = get_trace("hello", "s0", "interp", cache_dir=cache)
        t2 = get_trace("hello", "s0", "interp", cache_dir=cache)
        assert t1.n == t2.n
        assert (t1.pc == t2.pc).all()
        import os
        assert sorted(os.listdir(cache)) == ["runs", "traces"]


class TestCounterThresholdBehaviour:
    def test_threshold_interpolates(self):
        jit = run_vm("db", "s0", "jit")
        counter = run_vm("db", "s0", "counter4")
        interp = run_vm("db", "s0", "interp")
        assert interp.stdout == counter.stdout == jit.stdout
        assert 0 < counter.methods_compiled < jit.methods_compiled or \
            counter.methods_compiled <= jit.methods_compiled
        assert counter.translate_cycles < jit.translate_cycles

    def test_threshold_validation(self):
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError):
                RunConfig(threshold=bad)


class TestReporting:
    def test_table_contains_all_cells(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, "x"]], title="T")
        assert "T" in out and "bb" in out and "30" in out and "2.500" in out

    def test_bars_scale_to_peak(self):
        out = format_bars([("x", 10.0), ("y", 5.0)], width=10)
        x_line, y_line = out.splitlines()
        assert x_line.count("#") == 10
        assert y_line.count("#") == 5

    def test_stacked_bars_have_legend(self):
        out = format_stacked_bars(
            [("a", [("t", 0.3), ("e", 0.7)])], width=20
        )
        assert "legend" in out
        assert "t" in out and "e" in out

    def test_empty_bars(self):
        assert format_bars([], title="nothing") == "nothing"

    def test_large_numbers_formatted(self):
        out = format_table(["n"], [[1234567]])
        assert "1,234,567" in out
