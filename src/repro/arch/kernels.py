"""Simulation-kernel selection.

Every hot simulator has one entry point — the cache's
:func:`~repro.arch.caches.simulate`, the branch front end's
:func:`~repro.arch.branch.replay` (which Table 2 and the pipeline both
count) and :func:`~repro.arch.pipeline.simulate_pipeline` — and two
implementations behind it that produce bit-identical results:

- ``scalar`` — the original event-at-a-time Python loops, kept as the
  reference oracle;
- ``vector`` — the default: each simulator's serial loop (the cache's
  LRU lookup, the direction predictors' counter tables, the pipeline
  scheduler's recurrence) runs in C, one call per stream
  (:mod:`repro.arch.compiled`), and numpy derives everything else.
  Without a C compiler, or for inputs the C side does not take, each
  layer falls back to its scalar reference.

The kernel is chosen per call: an explicit ``kernel=`` argument wins,
then the ``REPRO_SIM_KERNEL`` environment variable (consulted at call
time so tests and benchmarks can flip it), then the default.
"""

from __future__ import annotations

import os

KERNELS = ("scalar", "vector")

ENV_VAR = "REPRO_SIM_KERNEL"

DEFAULT_KERNEL = "vector"


def active_kernel(override: str | None = None) -> str:
    """Resolve the kernel to use for one simulator call."""
    kernel = override or os.environ.get(ENV_VAR) or DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown simulation kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel
