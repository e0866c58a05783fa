"""Disabled-tracer overhead guard.

The observability layer promises that a disabled tracer costs one
attribute check at each instrumentation site.  This guard keeps that
promise honest two ways: absolute per-call ceilings on the disabled
fast path, and a relative budget — the events an *enabled* fig3 run
actually records, priced at the disabled ``span()`` cost, must stay
under 2% of fig3's wall time.
"""

import time

import pytest

from repro.experiments import get_experiment
from repro.obs.tracer import TRACER, measure_disabled_overhead

BENCHMARKS = ("db",)

# Generous absolute ceilings: the real cost is tens of nanoseconds; a
# slow CI box gets 10x headroom before these trip.
MAX_CHECK_NS = 500.0
MAX_SPAN_NS = 4000.0


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACER.disable()
    TRACER.reset()
    yield
    TRACER.disable()
    TRACER.reset()


def test_disabled_tracer_absolute_ceilings():
    probe = measure_disabled_overhead(200_000)
    assert probe["check_ns"] < MAX_CHECK_NS, probe
    assert probe["span_ns"] < MAX_SPAN_NS, probe


def test_disabled_tracer_overhead_under_two_percent_of_fig3():
    fn = get_experiment("fig3")

    # Warm once so workload construction noise doesn't inflate either
    # measurement, then time a cold-simulator untraced run.
    fn(scale="s0", benchmarks=BENCHMARKS)
    started = time.perf_counter()
    fn(scale="s0", benchmarks=BENCHMARKS)
    fig3_seconds = time.perf_counter() - started

    # Count the events the same run records when tracing is on.
    TRACER.enable()
    try:
        fn(scale="s0", benchmarks=BENCHMARKS)
        n_events = len(TRACER.events) + len(TRACER.counters)
    finally:
        TRACER.disable()
        TRACER.reset()

    probe = measure_disabled_overhead(200_000)
    worst_case = n_events * probe["span_ns"] * 1e-9
    budget = 0.02 * fig3_seconds
    assert worst_case <= budget, (
        f"{n_events} events x {probe['span_ns']:.0f}ns = "
        f"{worst_case * 1e3:.2f}ms exceeds 2% of fig3's "
        f"{fig3_seconds:.2f}s ({budget * 1e3:.2f}ms)"
    )
