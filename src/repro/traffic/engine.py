"""Drive a traffic scenario through the VM and measure it honestly.

The :class:`RequestTracker` is the VM-side half of the scenario engine:
it owns the precomputed request schedule (handler kind, payload,
arrival time), hands requests to worker threads through the generated
program's ``Runtime.poll``/``Runtime.done`` natives, and timestamps
every dispatch and completion in *simulated cycles*.  Open-loop
arrivals are enforced for real: a worker that polls before the next
request's arrival time parks (``NATIVE_BLOCKED``), and when the whole
machine goes idle the tracker advances the cycle clock to the next
arrival — so queueing delay, burst backlogs and diurnal ramps are
visible in the latency distribution instead of being simulated away.

:func:`run_scenario` builds the program, runs it under any
:class:`~repro.vm.config.RunConfig` (or its token, optionally against a
shared code archive), and reduces the per-request record to the
measurements the server bench guards: throughput, exact tail-latency
percentiles in cycles, per-window cycles-per-request samples with
steady-state detection (:mod:`repro.bench.stats`), the lock-case mix,
tier-transition counters and code-archive churn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..bench.stats import detect_steady, percentiles
from ..obs import TRACER
from ..vm.config import RunConfig
from ..vm.machine import JavaVM, VMResult
from ..vm.threads import RUNNABLE, WAITING
from .codegen import KIND_BITS, build_program
from .spec import ScenarioSpec

#: Default number of measurement windows a run is cut into.
DEFAULT_WINDOWS = 50

#: Cold-start segment: the first requests of the run, where translate
#: and tier-up costs concentrate.
COLD_START_REQUESTS = 200


class RequestTracker:
    """Request dispatcher, per-request cycle spans, idle-clock source."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.n = spec.requests
        handler = spec.handler_schedule()
        payload = spec.payload_schedule()
        self.handler_sched = handler
        # Packed (payload << KIND_BITS) | kind, as a plain list: the
        # poll fast path runs once per request and python-list indexing
        # beats numpy scalar reads by ~5x there.
        self._packed = ((payload << KIND_BITS) | handler).tolist()
        arrival = spec.arrival_schedule()
        self._arrival = arrival.tolist() if arrival is not None else None
        self.arrive = np.zeros(self.n, dtype=np.int64)
        self.start = np.zeros(self.n, dtype=np.int64)
        self.end = np.zeros(self.n, dtype=np.int64)
        self.req_thread = np.zeros(self.n, dtype=np.int16)
        self.next = 0
        self.completed = 0
        self.idle_cycles = 0
        self.blocked_polls = 0
        self._current: dict[int, int] = {}
        self._waiters: list = []

    # -- native hooks ---------------------------------------------------
    def poll(self, vm: JavaVM, thread):
        """Dispatch the next request to ``thread`` (or park / drain)."""
        i = self.next
        if i >= self.n:
            return -1
        now = vm.sink.cycles
        if self._arrival is not None and self._arrival[i] > now:
            # Nothing has arrived yet: park until the machine idles
            # forward to the next arrival (or another thread's work
            # moves the clock past it).
            self.blocked_polls += 1
            thread.state = WAITING
            self._waiters.append(thread)
            return vm.NATIVE_BLOCKED
        self.next = i + 1
        self.start[i] = now
        self.arrive[i] = now if self._arrival is None else self._arrival[i]
        self._current[thread.thread_id] = i
        self.req_thread[i] = thread.thread_id
        return self._packed[i]

    def complete(self, vm: JavaVM, thread) -> None:
        i = self._current.pop(thread.thread_id, None)
        if i is None:
            return
        self.end[i] = vm.sink.cycles
        self.completed += 1

    # -- VM idle hook ---------------------------------------------------
    def on_idle(self, vm: JavaVM) -> bool:
        """No thread is runnable: advance the clock to the next arrival.

        Returns True when any parked worker was released (the scheduler
        re-scans instead of declaring deadlock).  Idle cycles are
        charged to the sink — simulated time passes while the server
        waits for load — and tracked separately so utilization is
        reportable.
        """
        if not self._waiters:
            return False
        if self.next < self.n:
            target = self._arrival[self.next]
            now = vm.sink.cycles
            if target > now:
                vm.sink.emit_cycles(target - now)
                self.idle_cycles += target - now
        waiters, self._waiters = self._waiters, []
        for t in waiters:
            t.state = RUNNABLE
        return True


@dataclass
class TrafficResult:
    """One scenario run: the VM result plus the per-request record."""

    spec: ScenarioSpec
    config: RunConfig
    vm_result: VMResult
    tracker: RequestTracker
    wall_seconds: float
    window_requests: int
    steady_window: int
    steady_cv: float

    def __post_init__(self) -> None:
        t = self.tracker
        self.service = t.end - t.start
        self.sojourn = t.end - t.arrive
        self.first_cycle = int(t.start[0]) if t.n else 0
        self.last_cycle = int(t.end.max()) if t.n else 0

    # -- windows --------------------------------------------------------
    def window_samples(self) -> np.ndarray:
        """Cycles-per-request of each completed measurement window.

        Requests are ordered by completion time and cut into windows of
        ``window_requests``; each sample is the cycle span the window
        occupied divided by its size.  Early windows absorb translate /
        tier-up costs, so this is the stream steady-state detection
        judges.
        """
        t = self.tracker
        w = self.window_requests
        end_sorted = np.sort(t.end)
        boundaries = end_sorted[w - 1::w]
        if boundaries.size == 0:
            return np.zeros(0, dtype=np.float64)
        edges = np.concatenate([[self.first_cycle], boundaries])
        return np.diff(edges).astype(np.float64) / w

    def steady_verdict(self):
        return detect_steady(self.window_samples().tolist(),
                             window=self.steady_window,
                             cv_threshold=self.steady_cv)

    # -- the JSON record ------------------------------------------------
    def to_dict(self) -> dict:
        t, r = self.tracker, self.vm_result
        span_cycles = max(1, self.last_cycle - self.first_cycle)
        busy = r.cycles - t.idle_cycles
        cold_n = min(COLD_START_REQUESTS, t.n)
        verdict = self.steady_verdict()
        samples = self.window_samples()
        kinds = self.spec.handler_kinds()
        mix_counts = np.bincount(t.handler_sched,
                                 minlength=len(kinds)).tolist()
        out = {
            "scenario": self.spec.name,
            "mode": self.config.token,
            "requests": t.n,
            "stdout": list(r.stdout),
            "wall_seconds": round(self.wall_seconds, 3),
            "cycles": r.cycles,
            "instructions": r.instructions,
            "bytecodes": r.bytecodes_executed,
            "translate_cycles": r.translate_cycles,
            "install_cycles": r.install_cycles,
            "idle_cycles": t.idle_cycles,
            "busy_cycles": busy,
            "utilization": round(busy / max(1, r.cycles), 4),
            "throughput_rpmc": round(1e6 * t.n / span_cycles, 3),
            "throughput_busy_rpmc": round(1e6 * t.n / max(1, busy), 3),
            "latency_cycles": {
                "service": percentiles(self.service),
                "sojourn": percentiles(self.sojourn),
            },
            "cold_start": {
                "requests": cold_n,
                **percentiles(self.service[:cold_n]),
            },
            "mix_realized": dict(zip(kinds, mix_counts)),
            "windows": {
                "requests_per_window": self.window_requests,
                "cycles_per_request": [round(float(s), 2) for s in samples],
            },
            "steady": verdict.to_dict(),
            "lock_mix": r.sync,
            "methods_compiled": r.methods_compiled,
            "methods_installed": r.methods_installed,
            "classes_loaded": r.classes_loaded,
        }
        if r.tiering is not None:
            out["tiering"] = {k: r.tiering[k] for k in (
                "promotions_t1", "promotions_t2", "osr_entries",
                "deopts", "speculative_marks")}
        if r.archive is not None:
            out["archive"] = r.archive
        return out


def run_scenario(
    spec: ScenarioSpec,
    config: RunConfig | str = "tiered",
    *,
    code_archive: str = "",
    windows: int = DEFAULT_WINDOWS,
    window_requests: int | None = None,
    steady_window: int = 5,
    steady_cv: float = 0.10,
) -> TrafficResult:
    """Build, run and measure one scenario under one run config.

    The scenario runs without daemon threads.  A config that keeps the
    default ``max_bytecodes`` gets a budget scaled to the request count.
    ``code_archive`` names a shared compiled-code archive directory
    (empty string disables, mirroring ``run_vm``).  Results are never
    served from the run cache: the per-request record lives outside
    :class:`VMResult`, and archive warmth must stay observable.
    """
    config = RunConfig.of(config)
    budget = config.max_bytecodes
    if budget == RunConfig.max_bytecodes:
        budget = max(budget, 300 * spec.requests)
    program = build_program(spec)
    tracker = RequestTracker(spec)
    vm = JavaVM(program,
                config.replace(spawn_daemons=False, max_bytecodes=budget),
                code_archive=code_archive)
    vm.request_source = tracker
    started = time.perf_counter()
    if TRACER.enabled:
        with TRACER.span("traffic.scenario", scenario=spec.name,
                         mode=config.token,
                         requests=spec.requests, threads=spec.threads,
                         arrival=spec.arrival) as sp:
            result = vm.run()
            sp.attrs.update(cycles=result.cycles,
                            translate_cycles=result.translate_cycles,
                            completed=tracker.completed,
                            idle_cycles=tracker.idle_cycles)
    else:
        result = vm.run()
    wall = time.perf_counter() - started

    if tracker.completed != spec.requests:
        raise RuntimeError(
            f"scenario {spec.name}: {tracker.completed} of "
            f"{spec.requests} requests completed")

    w = window_requests or max(1, spec.requests // max(1, windows))
    traffic = TrafficResult(spec, config, result, tracker, wall, w,
                            steady_window, steady_cv)
    if TRACER.enabled:
        for k, cpr in enumerate(traffic.window_samples().tolist()):
            TRACER.emit("traffic.window", 0.0, index=k,
                        cycles_per_request=round(cpr, 2))
        TRACER.add("vm.traffic.requests", tracker.completed)
        TRACER.add("vm.traffic.idle_cycles", tracker.idle_cycles)
    return traffic
