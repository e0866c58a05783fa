"""A trace is the one object the simulators replay.

It memoizes the streams they derive from it, whoever fetched it: every
simulator and sweep over one trace shares one derivation, and nothing
outlives the trace.
"""

from __future__ import annotations

import weakref
from collections import Counter

from repro.analysis.replay import get_replay
from repro.analysis.runner import get_trace
from repro.arch.branch import compare_predictors
from repro.arch.caches import simulate_split_l1
from repro.arch.pipeline import ipc_by_width, superscalar
from repro.native.trace import Trace


def test_nothing_is_retained_per_process(tmp_path):
    """Dropping the last reference to a replayed trace frees it and
    its derived streams: no process-level memo keeps it alive."""
    get_replay("hello", "s0", "jit", cache_dir=str(tmp_path))  # record
    trace = get_replay("hello", "s0", "jit", cache_dir=str(tmp_path))
    simulate_split_l1(trace)
    compare_predictors(trace)
    column = weakref.ref(trace.instruction_stream()[0])
    stream = weakref.ref(trace.data_stream()[0])
    del trace
    assert column() is None and stream() is None


def test_one_derivation_per_trace(monkeypatch):
    """The branch predictors under both kernels and a pipeline width
    sweep over one bare trace extract its transfers once, and the
    sweep computes its event columns once."""
    derived = Counter()
    gather = Trace._gather
    event_columns = superscalar.event_columns

    def counted_transfers(trace, name, selection=None):
        # Each derivation of the transfers gathers their categories once.
        if (name, selection) == ("cat", "transfer"):
            derived["transfers"] += 1
        return gather(trace, name, selection)

    def counted_columns(*args, **kwargs):
        derived["event_columns"] += 1
        return event_columns(*args, **kwargs)

    monkeypatch.setattr(Trace, "_gather", counted_transfers)
    monkeypatch.setattr(superscalar, "event_columns", counted_columns)
    trace = get_trace("hello", "s0", "interp", cache_dir="")
    vector = compare_predictors(trace, kernel="vector")
    scalar = compare_predictors(trace, kernel="scalar")
    ipc_by_width(trace, widths=(1, 2, 4, 8))
    assert {k: vars(r) for k, r in vector.items()} == \
        {k: vars(r) for k, r in scalar.items()}
    assert derived == {"transfers": 1, "event_columns": 1}
