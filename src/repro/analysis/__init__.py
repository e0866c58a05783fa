"""Analyses: hybrid oracle model, instruction mix, runners, reporting."""

from .cache import CacheStats, cache_key, source_digest
from .hybrid import MethodDecision, OracleAnalysis
from .mix import indirect_fraction, mix_from_counts, mix_from_trace, summarize
from .parallel import Job, oracle_job, run_job, run_jobs, trace_job
from .report import format_bars, format_stacked_bars, format_table
from .runner import get_trace, oracle_analysis, oracle_run, run_vm

__all__ = [
    "CacheStats",
    "Job",
    "MethodDecision",
    "OracleAnalysis",
    "cache_key",
    "format_bars",
    "format_stacked_bars",
    "format_table",
    "get_trace",
    "indirect_fraction",
    "mix_from_counts",
    "mix_from_trace",
    "oracle_analysis",
    "oracle_job",
    "oracle_run",
    "run_job",
    "run_jobs",
    "run_vm",
    "source_digest",
    "summarize",
    "trace_job",
]
