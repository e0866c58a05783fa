"""The experiments' entry point to a trace they replay.

A :class:`~repro.native.trace.Trace` memoizes the streams the cache,
branch and pipeline simulators derive from it, so consecutive
consumers of one trace share one derivation; nothing is retained
between traces.  :func:`get_replay` is
:func:`~repro.analysis.runner.get_trace` under the name the end-to-end
benchmark's ledger (``benchmarks/e2e/ledger.py``) counts replays by.
"""

from __future__ import annotations

from ..native.trace import Trace

#: The ledger times the memoized stream methods as ``TraceReplay.*``.
TraceReplay = Trace


def get_replay(workload: str, scale: str = "s1", config="jit",
               cache_dir: str | None = None) -> Trace:
    """The trace of (workload, scale, run config) to replay."""
    from .runner import get_trace

    return get_trace(workload, scale, config, cache_dir=cache_dir)
