"""Differential harness over the full execution-configuration matrix.

Perf claims are only trustworthy on top of a correctness net: for every
workload, every pair drawn from interp × jit × jit_opt × lock_elision
× tiered must be *semantically indistinguishable* — identical program
output,
identical heap effects, identical (normalized) synchronization effects.
The runs are deterministic, so any divergence is a real bug in one of
the execution engines, not noise.

Random-program coverage of the same matrix lives in ``repro.fuzz``
(see ``tests/test_fuzz_corpus.py`` for its regression corpus).
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.runner import run_vm
from repro.vm import JavaVM, RunConfig
from repro.workloads.base import all_workloads

from helpers import all_pure_ops_program

WORKLOADS = sorted(all_workloads())

#: s0 covers every workload; s1 re-checks everything at the paper's scale.
SCALES = ("s0", "s1")

#: The full configuration matrix: name -> run config.  ``tiered`` uses
#: hair-trigger thresholds so promotion and OSR fire even inside the
#: small s0 runs.
CONFIGS = {
    "interp": RunConfig(threshold=None),
    "jit": RunConfig(),
    "jit_opt": RunConfig(jit_opt=True),
    "lock_elision": RunConfig(lock_elision=True),
    "tiered": RunConfig(policy="tiered", t2_invocations=3, t2_backedges=32),
}

#: Configs whose sync comparison needs the elision-normalized view
#: (tier 2 of the tiered ladder elides locks too).
ELIDING = frozenset({"lock_elision", "tiered"})

CONFIG_PAIRS = list(itertools.combinations(CONFIGS, 2))

#: Per-(workload, config) cycle counts recorded by the matrix test.
CYCLE_RECORD: dict[tuple[str, str], int] = {}


def _observables(result, elision: bool = False) -> dict:
    """The mode-independent facts of one run.

    ``elision`` selects the normalized sync view: a lock-elision run
    legitimately skips monitor operations, but every skip is shadowed
    (``elided_*``), so acquire/release totals fold the elided ops back
    in, and the per-case breakdown — which elision genuinely changes —
    is only compared between non-eliding configurations.
    """
    sync = result.sync
    obs = {
        "stdout": result.stdout,
        "bytecodes": result.bytecodes_executed,
        "classes_loaded": result.classes_loaded,
        "heap": result.heap,
        "sync_acquires": sync["acquire_ops"] + sync.get("elided_acquires", 0),
        "sync_releases": sync["release_ops"] + sync.get("elided_releases", 0),
    }
    if not elision:
        obs["sync_cases"] = sync["case_counts"]
        obs["sync_objects"] = sync["distinct_objects"]
    return obs


def _run(workload: str, scale: str, config: str):
    result = run_vm(workload, scale, CONFIGS[config])
    CYCLE_RECORD[(f"{workload}@{scale}", config)] = result.cycles
    return result


@pytest.mark.parametrize("left,right", CONFIG_PAIRS,
                         ids=[f"{a}-vs-{b}" for a, b in CONFIG_PAIRS])
@pytest.mark.parametrize("workload", WORKLOADS)
class TestConfigMatrix:
    """Every configuration pair, every workload, at s0."""

    def test_pair_semantically_equivalent(self, workload, left, right):
        elision = bool(ELIDING & {left, right})
        lo = _observables(_run(workload, "s0", left), elision)
        ro = _observables(_run(workload, "s0", right), elision)
        for key in lo:
            assert lo[key] == ro[key], (
                f"{workload}@s0: {left}/{right} diverge on {key}: "
                f"{lo[key]!r} != {ro[key]!r}"
            )


@pytest.mark.parametrize("left,right", CONFIG_PAIRS,
                         ids=[f"{a}-vs-{b}" for a, b in CONFIG_PAIRS])
def test_all_pure_ops_pair_equivalent(left, right):
    """The matrix over a program that runs every pure op: the fuzz
    generator never emits 19 of them."""
    elision = bool(ELIDING & {left, right})
    lo, ro = (_observables(JavaVM(all_pure_ops_program(), CONFIGS[c]).run(),
                           elision) for c in (left, right))
    assert lo == ro


@pytest.mark.parametrize("workload", WORKLOADS)
def test_elision_reports_no_violations(workload):
    result = _run(workload, "s0", "lock_elision")
    assert result.sync.get("elision_violations", 0) == 0


def test_cycle_counts_recorded_for_all_configs():
    """The matrix run doubles as the per-config cycle census: every
    (workload, config) cell must hold a positive recorded cycle count,
    so regressions in any engine's cost accounting surface here."""
    for workload in WORKLOADS:
        for config in CONFIGS:
            cycles = CYCLE_RECORD.get((f"{workload}@s0", config))
            if cycles is None:       # populate (e.g. under -k selection)
                cycles = _run(workload, "s0", config).cycles
            assert cycles > 0, f"{workload}/{config} recorded no cycles"


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("workload", WORKLOADS)
class TestInterpVsJit:
    def test_observables_identical(self, workload, scale):
        interp = run_vm(workload, scale, "interp")
        jit = run_vm(workload, scale, "jit")
        oi, oj = _observables(interp), _observables(jit)
        for key in oi:
            assert oi[key] == oj[key], (
                f"{workload}@{scale}: interp/jit diverge on {key}: "
                f"{oi[key]!r} != {oj[key]!r}"
            )
        # The modes really were different executions, not two aliases.
        assert interp.methods_compiled == 0
        assert jit.methods_compiled > 0


@pytest.mark.parametrize("workload", WORKLOADS)
class TestOtherEnginesAgree:
    """The mixed-mode engines sit between the two poles and must agree
    with both on every observable."""

    def test_counter_threshold_matches(self, workload):
        base = _observables(run_vm(workload, "s0", "interp"))
        counter = _observables(run_vm(workload, "s0", "counter4"))
        assert counter == base

    def test_folding_interpreter_matches(self, workload):
        base = _observables(run_vm(workload, "s0", "interp"))
        folded = _observables(run_vm(workload, "s0", "interp,folding=True"))
        assert folded == base

    def test_tiered_matches_and_promotes(self, workload):
        base = _observables(run_vm(workload, "s0", "interp"),
                            elision=True)
        result = run_vm(workload, "s0", CONFIGS["tiered"])
        assert _observables(result, elision=True) == base
        # Hair-trigger thresholds: the ladder must actually climb.
        assert result.tiering["promotions_t1"] > 0


def test_stdout_nonempty_for_checksum_workloads():
    """The net has teeth only if workloads actually print checksums."""
    silent = [w for w in WORKLOADS
              if not run_vm(w, "s0", "interp").stdout]
    assert not silent, f"workloads with no observable output: {silent}"
