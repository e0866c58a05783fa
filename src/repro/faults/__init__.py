"""``repro.faults`` — deterministic, seeded fault injection.

The paper's methodology rests on long trace/replay suites completing
reliably; this package makes the failure modes of that infrastructure
*testable*.  A fault plan (see :mod:`repro.faults.plan` for the
grammar) can kill or hang a pool worker at a chosen job, truncate or
garble a cache archive mid-store, abandon a file lock owned by a dead
process, and slow IO down — all deterministically, so CI can assert
that a faulted run produces byte-identical output to a clean one.

Activation::

    REPRO_FAULTS="worker-kill@1;seed=7" python -m repro.experiments ...
    python -m repro.experiments fig1 --jobs 2 --faults "corrupt-archive"

or programmatically via :func:`activate` / :func:`deactivate`.  Hook
sites in the cache and scheduler guard with ``if faults.ACTIVE is not
None`` so the disabled layer costs one attribute check (bench guard:
``benchmarks/test_bench_faults_overhead.py``).  Every injected,
observed, and recovered fault lands in :data:`LEDGER` (and the obs
tracer when enabled) and is reported in the run manifest, where the
``faults`` guard of :mod:`repro.obs.record` checks it.
"""

from __future__ import annotations

import os
import sys
import time

from .ledger import CATEGORIES, LEDGER, FaultLedger  # noqa: F401
from .plan import (  # noqa: F401 - public re-exports
    KINDS,
    WORKER_KINDS,
    ActivePlan,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    PlanError,
    apply_worker_fault,
)

ENV_VAR = "REPRO_FAULTS"

#: The active plan's runtime state, or ``None``.  Hook sites guard with
#: ``if faults.ACTIVE is not None`` — keep reads going through the
#: module attribute so activation is visible everywhere at once.
ACTIVE: ActivePlan | None = None


def activate(plan) -> ActivePlan:
    """Activate a plan (text, :class:`FaultPlan`, or :class:`ActivePlan`)
    with a fresh injection budget; returns the runtime state."""
    global ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if isinstance(plan, ActivePlan):
        plan = plan.plan
    plan = ActivePlan(plan)
    ACTIVE = plan
    return plan


def deactivate() -> None:
    global ACTIVE
    ACTIVE = None


def active() -> ActivePlan | None:
    return ACTIVE


def activate_from_env() -> ActivePlan | None:
    """Activate the ``$REPRO_FAULTS`` plan, if any (spawned workers
    inherit the environment, so env-activated plans reach them too)."""
    text = os.environ.get(ENV_VAR)
    return activate(text) if text else None


# -- ledger conveniences ------------------------------------------------

def note_observed(kind: str, **attrs) -> None:
    LEDGER.note("observed", kind, **attrs)


def note_recovery(kind: str, **attrs) -> None:
    LEDGER.note("recovered", kind, **attrs)


def measure_disabled_overhead(iters: int = 200_000) -> dict:
    """Per-call cost of the disabled hook guard, in nanoseconds.

    Measures the exact call-site idiom (``if faults.ACTIVE is not
    None``: a module attribute read plus an identity check) so the
    bench guard can price a run's hook crossings.
    """
    if ACTIVE is not None:
        raise RuntimeError("fault layer must be inactive to measure "
                           "the disabled path")
    module = sys.modules[__name__]
    started = time.perf_counter()
    for _ in range(iters):
        if module.ACTIVE is not None:
            pass  # pragma: no cover - inactive by precondition
    elapsed = time.perf_counter() - started
    return {"iters": iters, "check_ns": 1e9 * elapsed / iters}


activate_from_env()
