"""Cache simulation."""

from .cache import CacheConfig, CacheStats, simulate
from .harness import (
    DEFAULT_DCACHE,
    DEFAULT_ICACHE,
    SplitL1Result,
    simulate_split_l1,
)

__all__ = [
    "CacheConfig",
    "CacheStats",
    "DEFAULT_DCACHE",
    "DEFAULT_ICACHE",
    "SplitL1Result",
    "simulate",
    "simulate_split_l1",
]
