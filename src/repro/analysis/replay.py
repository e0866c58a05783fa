"""Single-pass trace replay: decode each cached trace once.

Every figure used to re-derive the same streams from a trace it fetched
itself — the memory mask, the data-reference columns, the transfer
events, the branch replay context.  A :class:`TraceReplay` wraps one
:class:`~repro.native.trace.Trace` and memoizes those derived streams,
and :func:`get_replay` adds a small process-level LRU so consecutive
consumers of the same (workload, scale, run config) share one decode.

The simulators accept a ``TraceReplay`` wherever they accept a
``Trace`` (duck-typed: ``simulate_split_l1`` uses the cached streams,
``extract_transfers``/``compare_predictors`` use ``transfers()`` /
``branch_context()``, ``simulate_pipeline`` uses ``pipeline_columns()``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..native.trace import Trace


class TraceReplay:
    """One trace plus its memoized derived streams."""

    __slots__ = ("trace", "_memo")

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._memo: dict = {}

    @property
    def n(self) -> int:
        return self.trace.n

    def _get(self, key, build):
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value

    # -- shared derived streams ---------------------------------------
    def memory_mask(self) -> np.ndarray:
        return self._get("memory_mask", lambda: self.trace.is_memory)

    def instruction_stream(self):
        """(pcs, translate_mask) of the instruction fetches."""
        return self._get(
            "instruction_stream",
            lambda: (self.trace.pc, self.trace.in_translate),
        )

    def data_stream(self):
        """(addrs, writes, translate_mask) of the data references."""
        def build():
            mem = self.memory_mask()
            t = self.trace
            return (t.ea[mem], t.is_write[mem], t.in_translate[mem])
        return self._get("data_stream", build)

    def transfers(self):
        """(pc, cat, taken, target) arrays of the control transfers."""
        def build():
            t = self.trace
            mask = t.is_transfer
            return (t.pc[mask], t.cat[mask], t.is_taken[mask],
                    t.target[mask])
        return self._get("transfers", build)

    def branch_context(self, btb_entries: int = 1024, use_ras: bool = True):
        """Shared :class:`~repro.arch.branch.vector.BranchReplayContext`
        (read-only, so safe to reuse across predictors and calls)."""
        def build():
            from ..arch.branch.vector import BranchReplayContext
            return BranchReplayContext(*self.transfers(),
                                       btb_entries=btb_entries,
                                       use_ras=use_ras)
        return self._get(("branch_context", btb_entries, use_ras), build)

    def pipeline_columns(self, config, kernel: str):
        """The pipeline model's width-independent
        :func:`~repro.arch.pipeline.superscalar.event_columns`, shared
        by every width of a sweep."""
        from ..arch.pipeline.superscalar import event_columns
        return self._get(
            ("pipeline_columns", kernel, config.columns_key()),
            lambda: event_columns(self.trace, config, kernel))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceReplay(n={self.n}, derived={sorted(self._memo)})"


#: Process-level LRU of decoded replays, keyed by (workload, scale,
#: run config, resolved cache dir).  Small: replays hold full traces.
_REPLAY_MEMO: "OrderedDict[tuple, TraceReplay]" = OrderedDict()
_REPLAY_CAPACITY = 4


def get_replay(workload: str, scale: str = "s1", config="jit",
               cache_dir: str | None = None) -> TraceReplay:
    """The :class:`TraceReplay` for (workload, scale, run config),
    decoding the cached trace at most once per process (LRU-bounded)."""
    from ..vm.config import RunConfig
    from . import cache as _cache
    from .runner import get_trace

    config = RunConfig.of(config)
    key = (workload, scale, config, _cache.resolve_dir(cache_dir))
    replay = _REPLAY_MEMO.get(key)
    if replay is not None:
        _REPLAY_MEMO.move_to_end(key)
        return replay
    replay = TraceReplay(get_trace(workload, scale, config,
                                   cache_dir=cache_dir))
    _REPLAY_MEMO[key] = replay
    while len(_REPLAY_MEMO) > _REPLAY_CAPACITY:
        _REPLAY_MEMO.popitem(last=False)
    return replay


def clear_replay_memo() -> None:
    """Drop memoized replays (benchmarks; fresh CLI invocations)."""
    _REPLAY_MEMO.clear()
