"""Split-L1 cache harness over native traces.

Drives a pair of caches with the instruction-fetch and data-reference
streams of a :class:`~repro.native.trace.Trace`, with the paper's
default geometries (Table 3: 64 KB / 32 B lines, 2-way I, 4-way D) as
defaults.
"""

from __future__ import annotations

import numpy as np

from ...native.trace import Trace
from .cache import CacheConfig, CacheStats, simulate

#: The paper's Table 3 geometries.
DEFAULT_ICACHE = dict(size=64 << 10, block=32, assoc=2)
DEFAULT_DCACHE = dict(size=64 << 10, block=32, assoc=4)


class SplitL1Result:
    """I- and D-cache statistics for one trace."""

    def __init__(self, icache: CacheStats, dcache: CacheStats) -> None:
        self.icache = icache
        self.dcache = dcache

    def __repr__(self) -> str:
        return f"SplitL1Result(I={self.icache!r}, D={self.dcache!r})"


def simulate_split_l1(
    trace: Trace,
    icache: dict | None = None,
    dcache: dict | None = None,
    attribute_translate: bool = False,
    window: int = 0,
) -> SplitL1Result:
    """Run a trace through a split L1.

    The trace memoizes its streams, so every geometry swept over it
    shares them.  ``attribute_translate=True`` produces two statistic
    groups per cache: group 0 = outside translate, group 1 = inside
    translate (Figure 5).
    ``window`` produces the Figure 6 time series.
    """
    icfg = CacheConfig(**{**DEFAULT_ICACHE, **(icache or {})})
    dcfg = CacheConfig(**{**DEFAULT_DCACHE, **(dcache or {})})

    pcs, i_translate = trace.instruction_stream()
    addrs, writes, d_translate = trace.data_stream()
    n_groups = 2 if attribute_translate else 1
    istats = simulate(
        icfg, pcs,
        groups=i_translate.astype(np.int64) if attribute_translate else None,
        n_groups=n_groups, window=window,
    )
    dstats = simulate(
        dcfg, addrs, writes=writes,
        groups=d_translate.astype(np.int64) if attribute_translate else None,
        n_groups=n_groups, window=window,
    )
    return SplitL1Result(istats, dstats)
