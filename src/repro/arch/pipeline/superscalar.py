"""Trace-driven superscalar pipeline model (Figures 9 and 10).

An out-of-order-completion, W-wide-fetch model with the structures that
dominate wide-issue behaviour for this study:

- W-way fetch, one taken control transfer per cycle,
- Table 2's front end — gshare, a 1K-entry BTB and a 16-entry
  return-address stack — steering fetch; a mispredict stalls fetch
  until the branch resolves, plus a redirect penalty,
- split L1 caches; an I-miss stalls fetch, a D-miss lengthens the
  load's latency (and thereby dependent instructions and branch
  resolution),
- a reorder buffer bounding in-flight instructions; register
  dependences delay an instruction's start, in-order retirement frees
  ROB slots.

Everything but the fetch width and the ROB size is a property of the
trace and the cache/penalty config, so :func:`event_columns` computes it
once as per-event columns, from the cache model's miss masks and the
branch front end's mispredict mask (:func:`repro.arch.branch.replay`)
over the trace's memoized streams, and the trace memoizes the columns
across a width sweep.  One scheduler recurrence consumes
them: :func:`_schedule` in Python, the reference, under ``scalar``; the
same recurrence compiled from C (:mod:`repro.arch.compiled`) under
``vector``, falling back to :func:`_schedule` when no C compiler is
available.

The absolute IPC is a model artifact; the experiments use its *relative*
behaviour across modes and widths, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from ...native.nisa import NCat
from ..branch.predictors import Gshare, replay
from ..caches import CacheConfig, simulate
from .. import compiled
from ..kernels import active_kernel

#: Execution latency per category (cycles).
LATENCY = {
    int(NCat.NOP): 1, int(NCat.IALU): 1, int(NCat.IMUL): 4,
    int(NCat.IDIV): 20, int(NCat.FALU): 3, int(NCat.FMUL): 4,
    int(NCat.FDIV): 12, int(NCat.LOAD): 2, int(NCat.STORE): 1,
    int(NCat.BRANCH): 1, int(NCat.JUMP): 1, int(NCat.IJUMP): 1,
    int(NCat.CALL): 1, int(NCat.ICALL): 1, int(NCat.RET): 1,
}

_LOAD = int(NCat.LOAD)

#: Scheduler register file: registers 0..32, then the slot every absent
#: source (``-1``) reads, which stays 0, and the write-only slot every
#: absent destination writes.
_NO_SRC, _NO_DST = 33, 34

#: Events per scheduler chunk; columns become lists one chunk at a time.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class PipelineConfig:
    """Machine parameters."""

    width: int = 4
    rob_size: int = 64
    mispredict_penalty: int = 4
    icache_size: int = 64 << 10
    dcache_size: int = 64 << 10
    block: int = 32
    icache_assoc: int = 2
    dcache_assoc: int = 4
    imiss_penalty: int = 8
    dmiss_penalty: int = 8

    def __post_init__(self) -> None:
        # Width 0 would never end a fetch group (an unbounded machine),
        # and ROB size 0 leaves no slot for an event to wait on.
        for name in ("width", "rob_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"PipelineConfig.{name} must be >= 1, "
                                 f"got {getattr(self, name)}")

    def columns_key(self) -> tuple:
        """This config's fields but the scheduler-only ones (width, ROB
        size): configs with equal keys have equal :func:`event_columns`."""
        return tuple(getattr(self, f.name) for f in fields(self)
                     if f.name not in ("width", "rob_size"))


class PipelineResult:
    """IPC and component counts for one simulation."""

    def __init__(self, instructions: int, cycles: int,
                 mispredicts: int, imisses: int, dmisses: int) -> None:
        self.instructions = instructions
        self.cycles = max(cycles, 1)
        self.mispredicts = mispredicts
        self.imisses = imisses
        self.dmisses = dmisses

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles

    def __repr__(self) -> str:
        return (
            f"PipelineResult(ipc={self.ipc:.2f}, n={self.instructions}, "
            f"cycles={self.cycles})"
        )


class EventColumns(NamedTuple):
    """Width-independent scheduler inputs, one entry per event.

    ``fetch`` is the fetch disruption just before the event: the
    previous event's taken transfer or mispredict, and this event's
    I-miss.  0 means none; otherwise bit 1 is set, bits 2 and up hold
    the stall cycles, and bit 0 marks a disruption that is an I-miss
    alone, where a full fetch group still takes its own cycle first
    (after a transfer the group has already ended).  ``drain`` is the
    stall after the last event.  ``lat`` is the execution latency
    including any D-miss penalty.  Absent register operands are
    remapped to :data:`_NO_SRC` / :data:`_NO_DST`.
    """

    fetch: np.ndarray
    lat: np.ndarray
    dst: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    drain: int
    mispredicts: int
    imisses: int
    dmisses: int


def event_columns(trace, cfg: PipelineConfig,
                  kernel: str | None = None) -> EventColumns:
    """The scheduler's per-event columns for the native ``trace`` under
    ``cfg``.

    The I/D miss masks come from the cache model and the mispredict
    mask from the branch front end Table 2 counts (gshare + BTB + RAS),
    all over the trace's memoized streams; the kernels differ only in
    how those models run, and both yield identical columns.
    """
    kernel = active_kernel(kernel)
    n = trace.n
    cat = np.asarray(trace.cat, dtype=np.int64)
    mem = trace.memory_mask()
    transfer = trace.transfer_mask()

    imiss = _miss_mask(cfg.icache_size, cfg.block, cfg.icache_assoc,
                       trace.instruction_stream()[0], kernel)
    dmiss = np.zeros(n, dtype=bool)
    dmiss[mem] = _miss_mask(cfg.dcache_size, cfg.block, cfg.dcache_assoc,
                            trace.data_stream()[0], kernel)
    misp = np.zeros(n, dtype=bool)
    misp[transfer] = replay(Gshare(), trace, kernel)[0]

    lat_table = np.zeros(max(LATENCY) + 1, dtype=np.int64)
    lat_table[list(LATENCY)] = list(LATENCY.values())
    lat = lat_table[cat]
    lat[(cat == _LOAD) & dmiss] += cfg.dmiss_penalty

    # An I-miss stalls fetch before its event; a mispredict or a taken
    # transfer ends the fetch group after its event.
    ends = misp.copy()
    ends[transfer] |= trace.transfers()[2]
    after = np.where(misp, cfg.mispredict_penalty, ends.astype(np.int64))
    ended = np.zeros(n, dtype=bool)
    ended[1:] = ends[:-1]
    stall = np.where(imiss, cfg.imiss_penalty, 0)
    stall[1:] += after[:-1]
    fetch = np.where(ended | imiss, 4 * stall + 2 + (imiss & ~ended), 0)
    drain = int(after[-1]) if n else 0

    dst = np.where(trace.dst < 0, _NO_DST, trace.dst)
    src1 = np.where(trace.src1 < 0, _NO_SRC, trace.src1)
    src2 = np.where(trace.src2 < 0, _NO_SRC, trace.src2)
    return EventColumns(
        *(_compact(c) for c in (fetch, lat, dst, src1, src2)), drain,
        int(misp.sum()), int(imiss.sum()), int(dmiss.sum()))


def _compact(column: np.ndarray) -> np.ndarray:
    """The column in the smallest unsigned type that holds it (memoized
    columns stay a few bytes per event)."""
    return column.astype(np.min_scalar_type(int(column.max(initial=0))))


def _miss_mask(size: int, block: int, assoc: int, addrs,
               kernel: str) -> np.ndarray:
    """Per-reference miss mask of a fresh write-allocate LRU cache."""
    return simulate(CacheConfig(size, block, assoc), addrs,
                    kernel=kernel).miss


def _schedule(cols: EventColumns, width: int, rob_size: int) -> int:
    """Total cycles of the fetch / ROB / in-order-issue scheduler.

    The ROB is a sliding window: event ``i`` cannot issue before event
    ``i - rob_size`` is done.  ``window`` holds the done times of the
    previous ``rob_size`` events followed by those of the current chunk.
    """
    ready = [0] * (_NO_DST + 1)   # per-register done time
    # A ROB longer than the trace never fills: its slots past the
    # trace's length would never be read.
    window = [0] * min(rob_size, len(cols.lat))
    issue = 1                     # earliest issue cycle of the next event
    free = width                  # fetch slots left in the current cycle
    last_done = 0
    for lo in range(0, len(cols.lat), _CHUNK):
        chunk = [c[lo:lo + _CHUNK].tolist() for c in (
            cols.fetch, cols.lat, cols.dst, cols.src1, cols.src2)]
        window = window[-rob_size:]
        append = window.append
        # ``zip`` reads ``window`` through a list iterator while the
        # loop appends to it, so ``head`` is the done time appended
        # ``rob_size`` events earlier.
        for fetch, lat, dst, s1, s2, head in zip(*chunk, window):
            # -- fetch --------------------------------------------------
            if fetch:
                if fetch & 1 and not free:
                    issue += 1
                issue += fetch >> 2
                free = width
            elif not free:
                issue += 1
                free = width
            # -- ROB space, then dependences ----------------------------
            # In-order issue (UltraSPARC-class): an instruction whose
            # operands are not ready stalls issue, so dense dependence
            # chains (compiled code) pay; independent filler
            # (interpreter handler bookkeeping) streams through.
            t = ready[s1]
            u = ready[s2]
            if u > t:
                t = u
            if head >= t:
                t = head + 1
            if t > issue:
                issue = t
                free = width
            done = issue + lat
            ready[dst] = done
            append(done)
            free -= 1
        last_done = max(last_done, max(window))
    return max(issue - 1 + cols.drain, last_done)


def simulate_pipeline(trace, config: PipelineConfig | None = None,
                      kernel: str | None = None) -> PipelineResult:
    """Run a native trace through the pipeline model.

    The trace memoizes its :func:`event_columns`, so every width of a
    sweep shares one computation of them.
    """
    cfg = config or PipelineConfig()
    kernel = active_kernel(kernel)
    cols = trace.pipeline_columns(cfg, kernel)
    cycles = (compiled.note("pipeline", compiled.schedule(
        cols, cfg.width, cfg.rob_size)) if kernel == "vector" else None)
    if cycles is None:
        cycles = _schedule(cols, cfg.width, cfg.rob_size)
    return PipelineResult(len(cols.lat), cycles, cols.mispredicts,
                          cols.imisses, cols.dmisses)


def ipc_by_width(trace, widths=(1, 2, 4, 8), **kwargs) -> dict[int, PipelineResult]:
    """Figure 9's sweep: IPC at several issue widths."""
    return {
        w: simulate_pipeline(trace, PipelineConfig(width=w, **kwargs))
        for w in widths
    }
