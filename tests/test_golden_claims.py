"""Golden regression tests pinning the paper's qualitative claims.

Perf refactors must not silently break the *reproduction*: these pin
the headline architectural shapes — the interpreter's indirect-branch
problem and the JIT translate-phase write-miss dominance — with
comfortable margins below the measured values, so legitimate model
tweaks pass while a broken engine fails loudly.
"""

from __future__ import annotations

import pytest

from repro.analysis.runner import get_trace
from repro.arch.branch import PREDICTORS, run_predictor
from repro.arch.caches import simulate_split_l1

BENCHMARKS = ("db", "compress", "jess")


@pytest.fixture(scope="module")
def traces():
    return {
        (name, mode): get_trace(name, "s0", mode)
        for name in BENCHMARKS
        for mode in ("interp", "jit")
    }


def _indirect_mpki(trace) -> float:
    """Indirect-target mispredictions per kilo-instruction (gshare+BTB)."""
    result = run_predictor(PREDICTORS["gshare"](), *trace.transfers())
    return 1000.0 * result.indirect_mispredicts / trace.n


class TestInterpreterIndirectBranchProblem:
    """Section 4/Table 2: the dispatch switch makes interpreter-mode
    indirect branches far more frequent *and* far less predictable."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_interp_indirect_mpki_exceeds_jit(self, traces, name):
        interp = _indirect_mpki(traces[(name, "interp")])
        jit = _indirect_mpki(traces[(name, "jit")])
        # Measured gap is >=3x on every benchmark; pin half that margin.
        assert interp > 1.5 * jit, (
            f"{name}: interpreter indirect MPKI {interp:.1f} no longer "
            f"dominates JIT's {jit:.1f}"
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_interp_indirect_mpki_absolute_floor(self, traces, name):
        # The switch dispatch gives every benchmark >20 indirect
        # mispredicts per 1k instructions at s0 (measured 40-45).
        assert _indirect_mpki(traces[(name, "interp")]) > 20.0

    # db is translate-dominated at s0, which masks the per-transfer rate
    # gap there (the per-instruction MPKI tests above still cover it).
    @pytest.mark.parametrize("name", ("compress", "jess"))
    def test_interp_gshare_misprediction_worse(self, traces, name):
        rates = {
            mode: run_predictor(
                PREDICTORS["gshare"](),
                *traces[(name, mode)].transfers()
            ).misprediction_rate
            for mode in ("interp", "jit")
        }
        assert rates["interp"] > rates["jit"]


class TestTranslatePhaseWriteMisses:
    """Figures 3/5: JIT-mode data misses are dominated by writes, and
    the translate portion's misses are mostly code-installation
    writes."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_translate_misses_mostly_writes(self, traces, name):
        res = simulate_split_l1(traces[(name, "jit")],
                                attribute_translate=True)
        dc = res.dcache
        writes_in_translate = dc.write_misses[1] / max(1, dc.misses[1])
        # Measured 74-84%; "dominates" pinned at a clear majority.
        assert writes_in_translate > 0.6, (
            f"{name}: only {100 * writes_in_translate:.0f}% of "
            "translate-phase D-misses are writes"
        )

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_jit_write_miss_share_exceeds_interp(self, traces, name):
        # Figure 3's configuration: direct-mapped D-cache, 32B lines.
        shares = {
            mode: simulate_split_l1(traces[(name, mode)],
                                    dcache={"assoc": 1})
            .dcache.write_miss_fraction
            for mode in ("interp", "jit")
        }
        assert shares["jit"] > 0.35
        assert shares["jit"] > shares["interp"] + 0.1


class TestModeLocalityOrdering:
    """Figure 4's companion shape: the interpreter's tiny I-footprint
    beats the JIT's generated code on instruction locality."""

    @pytest.mark.parametrize("name", BENCHMARKS)
    def test_interp_icache_beats_jit(self, traces, name):
        rates = {
            mode: simulate_split_l1(traces[(name, mode)]).icache.miss_rate
            for mode in ("interp", "jit")
        }
        assert rates["interp"] < rates["jit"]
