"""Disabled fault-layer overhead guard.

The fault-injection layer promises that when no plan is active every
hook site costs one module-attribute check (``if faults.ACTIVE is not
None``).  Two guards keep that honest: an absolute per-check ceiling,
and a relative budget — the hook crossings a cache-backed fig3 run
actually performs (counted under an injection-free ``noop`` plan),
priced at the disabled-check cost, must stay under 1% of fig3's wall
time.
"""

import time

import pytest

from repro import faults
from repro.analysis import cache
from repro.experiments import get_experiment

BENCHMARKS = ("db",)

# Generous absolute ceiling: the real cost is tens of nanoseconds; a
# slow CI box gets ~10x headroom before this trips.
MAX_CHECK_NS = 500.0


@pytest.fixture(autouse=True)
def _faults_off():
    faults.deactivate()
    faults.LEDGER.reset()
    yield
    faults.deactivate()
    faults.LEDGER.reset()


def test_disabled_faults_absolute_ceiling():
    probe = faults.measure_disabled_overhead(200_000)
    assert probe["check_ns"] < MAX_CHECK_NS, probe


def test_disabled_fault_layer_under_one_percent_of_fig3(tmp_path,
                                                        monkeypatch):
    # The hook sites live in the cache layer, so the budget only means
    # something for a cache-backed run.
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    cache.reset_stats()
    fn = get_experiment("fig3")

    # Cold run populates the cache; the timed run is the warm (hook-
    # heavy, lookup-dominated) path the disabled layer must not tax.
    fn(scale="s0", benchmarks=BENCHMARKS)
    started = time.perf_counter()
    fn(scale="s0", benchmarks=BENCHMARKS)
    fig3_seconds = time.perf_counter() - started

    # Count the hook crossings of the same run under a plan that
    # injects nothing.
    active = faults.activate("noop")
    try:
        fn(scale="s0", benchmarks=BENCHMARKS)
        crossings = active.checks
    finally:
        faults.deactivate()

    assert crossings > 0, "cache-backed run must cross fault hooks"
    probe = faults.measure_disabled_overhead(200_000)
    worst_case = crossings * probe["check_ns"] * 1e-9
    budget = 0.01 * fig3_seconds
    assert worst_case <= budget, (
        f"{crossings} hook crossings x {probe['check_ns']:.0f}ns = "
        f"{worst_case * 1e6:.1f}us exceeds 1% of fig3's "
        f"{fig3_seconds:.2f}s ({budget * 1e3:.2f}ms)"
    )
