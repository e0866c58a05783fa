"""Benchmark configuration.

``pytest benchmarks/e2e`` and the two disabled-layer overhead guards run
here.  They must be self-contained and deterministic: no trace cache
unless a test sets one up itself.
"""

import os

os.environ.setdefault("REPRO_TRACE_CACHE", "")
