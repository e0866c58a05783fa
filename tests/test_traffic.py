"""The traffic scenario engine: specs, schedules, codegen, measurement.

Small request counts keep these inside tier-1 budgets; the full-scale
ladder runs in the server-bench CI job (repro.experiments.server).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.server import GUARDS, run_server
from repro.obs.record import evaluate
from repro.obs.tracer import TRACER
from repro.traffic import (HANDLERS, PRESETS, ScenarioSpec, get_preset,
                           run_scenario)
from repro.vm import lines

SMALL = get_preset("api").replace(requests=1500)


@pytest.fixture(scope="module")
def tiered_small():
    """One shared small tiered run for the read-only assertions."""
    return run_scenario(SMALL, "tiered")


# -- spec validation and round-trip ------------------------------------
def test_spec_rejects_unknown_handler():
    with pytest.raises(ValueError, match="unknown handler"):
        ScenarioSpec(name="x", mix={"nosuch": 1.0})


def test_spec_rejects_bad_arrival_and_weights():
    with pytest.raises(ValueError, match="arrival"):
        ScenarioSpec(name="x", mix={"get": 1.0}, arrival="weekly")
    with pytest.raises(ValueError, match="positive"):
        ScenarioSpec(name="x", mix={"get": 0.0})
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", mix={"get": 1.0}, requests=0)


def test_spec_json_round_trip():
    spec = get_preset("burst")
    again = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
    assert again == spec
    with pytest.raises(ValueError, match="unknown spec fields"):
        ScenarioSpec.from_dict({**spec.to_dict(), "bogus": 1})


def test_presets_are_valid_and_cover_arrivals():
    arrivals = {s.arrival for s in PRESETS.values()}
    assert {"closed", "open", "burst", "diurnal"} <= arrivals
    for spec in PRESETS.values():
        assert set(spec.mix) <= set(HANDLERS)


# -- schedules ---------------------------------------------------------
def test_schedules_are_deterministic_and_seed_sensitive():
    spec = SMALL
    assert np.array_equal(spec.handler_schedule(), spec.handler_schedule())
    assert np.array_equal(spec.payload_schedule(), spec.payload_schedule())
    other = spec.replace(seed=spec.seed + 1)
    assert not np.array_equal(spec.handler_schedule(),
                              other.handler_schedule())


def test_payloads_stay_inside_the_working_set():
    payloads = SMALL.payload_schedule()
    assert payloads.min() >= 0
    assert payloads.max() < SMALL.working_set


@pytest.mark.parametrize("arrival", ["open", "burst", "diurnal"])
def test_arrival_schedules_are_monotone(arrival):
    spec = SMALL.replace(arrival=arrival)
    arr = spec.arrival_schedule()
    assert arr is not None and len(arr) == spec.requests
    assert np.all(np.diff(arr) >= 0)


def test_closed_loop_has_no_arrival_schedule():
    assert SMALL.arrival_schedule() is None


# -- execution and measurement -----------------------------------------
def test_runs_are_deterministic(tiered_small):
    again = run_scenario(SMALL, "tiered")
    assert again.vm_result.cycles == tiered_small.vm_result.cycles
    assert again.vm_result.stdout == tiered_small.vm_result.stdout
    assert np.array_equal(again.tracker.end, tiered_small.tracker.end)


def test_all_requests_complete_with_valid_spans(tiered_small):
    t = tiered_small.tracker
    assert t.completed == SMALL.requests
    assert np.all(t.end >= t.start)
    assert np.all(t.start >= t.arrive)
    assert tiered_small.service.min() > 0


def test_checksum_is_identical_across_execution_configs(tiered_small):
    interp = run_scenario(SMALL, "interp")
    jit = run_scenario(SMALL, "jit")
    assert (interp.vm_result.stdout == jit.vm_result.stdout
            == tiered_small.vm_result.stdout)


def _counting_line_runs(monkeypatch) -> list:
    """Count, in ``runs[0]``, the calls of every hot line generated from
    now on (``repro.vm.lines``), timed or not."""
    runs, build = [0], lines.build

    def spy(*args):
        line = build(*args)
        if line is None:
            return None
        fn = line[0]

        def counted(*call):
            runs[0] += 1
            return fn(*call)
        return (counted, *line[1:])

    monkeypatch.setattr(lines, "build", spy)
    return runs


def test_tracer_on_matches_tracer_off(monkeypatch):
    """With the tracer on, the stepper runs timing wrappers around the
    same semantics, handlers, hot lines and back-edge hook: the record,
    but for its wall-clock field, must not change, and lines must run
    in both runs."""
    runs = _counting_line_runs(monkeypatch)
    plain = run_scenario(SMALL, "tiered").to_dict()
    untraced_runs = runs[0]
    TRACER.enable()
    try:
        traced = run_scenario(SMALL, "tiered").to_dict()
    finally:
        TRACER.disable()
        TRACER.reset()
    del traced["wall_seconds"], plain["wall_seconds"]
    assert traced == plain
    assert untraced_runs > 0 and runs[0] - untraced_runs == untraced_runs


def test_closed_loop_sojourn_equals_service(tiered_small):
    assert np.array_equal(tiered_small.sojourn, tiered_small.service)
    assert tiered_small.tracker.idle_cycles == 0


def test_open_loop_tracks_idle_and_queueing():
    # Offered load well under capacity, so the machine demonstrably
    # drains and idles between arrivals.
    spec = get_preset("open-poisson").replace(requests=800, rate=0.2)
    res = run_scenario(spec, "tiered")
    t = res.tracker
    assert t.completed == spec.requests
    # The machine idled at least once waiting for an arrival, and
    # sojourn (arrival -> completion) dominates service once queued.
    assert t.idle_cycles > 0
    assert t.blocked_polls > 0
    assert res.sojourn.sum() >= res.service.sum()
    assert np.all(t.start >= t.arrive)


def test_window_samples_cover_the_run(tiered_small):
    samples = tiered_small.window_samples()
    w = tiered_small.window_requests
    assert len(samples) == SMALL.requests // w
    assert np.all(samples > 0)


def test_result_record_is_json_ready(tiered_small):
    record = tiered_small.to_dict()
    json.dumps(record)  # must not raise
    assert record["requests"] == SMALL.requests
    assert record["mode"] == "tiered"
    assert record["mix_realized"].keys() == set(SMALL.mix)
    assert sum(record["mix_realized"].values()) == SMALL.requests
    lat = record["latency_cycles"]["service"]
    assert lat["p50"] <= lat["p99"] <= lat["max"]
    assert record["cycles"] == (record["busy_cycles"]
                                + record["idle_cycles"])


def test_handler_mix_respects_weights():
    # 55% get vs 1% rare at 1500 draws: get must dominate rare.
    counts = np.bincount(SMALL.handler_schedule(),
                         minlength=len(SMALL.handler_kinds()))
    by_kind = dict(zip(SMALL.handler_kinds(), counts.tolist()))
    assert by_kind["get"] > 10 * by_kind["rare"]


def test_incomplete_scenarios_raise():
    # A drained-too-early tracker (more threads than work is fine; a
    # wrong budget is not): starve the VM with a tiny bytecode budget.
    from repro.vm.machine import ExecutionLimitExceeded
    with pytest.raises(ExecutionLimitExceeded):
        run_scenario(SMALL, "interp,max_bytecodes=1000")


# -- the server experiment ladder --------------------------------------
def test_server_ladder_guards_at_small_scale():
    spec = get_preset("api").replace(requests=2500)
    data = run_server(spec, windows=25)
    guards = evaluate(GUARDS, data)
    # Checksums and completion must hold even at toy scale.
    assert guards["schema"]
    assert guards["checksums_agree"]
    assert guards["requests_completed"]
    assert guards["cold_archive_populated"]
    assert guards["warm_archive_all_hits"]
    assert guards["monitor_ladder_exercised"]
    cold = data["configs"]["tiered_cold"]
    warm = data["configs"]["tiered_warm"]
    assert warm["translate_cycles"] < cold["translate_cycles"]
