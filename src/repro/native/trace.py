"""Native trace recording and archives.

The runtime emits native instruction events through a *sink*.  Two sinks
exist: :class:`CountingSink` only accumulates cycle and category counts
(cheap; used for the timing studies of Section 3), and
:class:`RecordingSink` additionally records the full event stream into a
columnar :class:`Trace` archive that the cache / branch / pipeline
simulators replay (the Shade-trace equivalent).

The hot-loop contract: ``emit`` runs once per executed bytecode (and
more for runtime stubs), so a sink does as little as possible there.
Only ``cycles`` is a live running total that callers may read mid-run
(the profiler, tiering, the traffic clock and the translate stubs do).
``instructions``, ``cat_counts`` and ``translate_cycles`` are derived
when read, from a per-template emission count, so they are exact at
any time but cost a pass over the distinct templates.  A recording
sink writes no array per emission either: it appends the template to a
log and the patch values to three flat lists, and expands the log into
columns once, in :meth:`RecordingSink.trace`.  Per-event data
(effective addresses, branch outcomes, targets) is only consumed by a
recording sink: code that would build it for the sink's sake must
check ``sink.records`` first.

``emit_run(template, k, eas, takens, targets)`` stands for ``k``
consecutive ``emit`` calls of one template, with the patch streams of
the ``k`` emissions concatenated: a counting sink multiplies, and a
recording sink logs the run as ``k`` entries.  Loops that emit one
template per installed instruction or per class-file word use it, so a
counting sink costs them one call per loop, not one per iteration.
"""

from __future__ import annotations

import io
from typing import Sequence

import numpy as np

from .costs import CYCLES_BY_CAT
from .nisa import (
    FLAG_TAKEN,
    FLAG_TRANSLATE,
    FLAG_WRITE,
    MEMORY_CATS,
    N_CATEGORIES,
    NCat,
    TRANSFER_CATS,
)
from .template import Template

_COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1", "src2")
_DTYPES = {
    "pc": np.int64,
    "cat": np.int16,
    "ea": np.int64,
    "flags": np.int16,
    "target": np.int64,
    "dst": np.int16,
    "src1": np.int16,
    "src2": np.int16,
}


def _any_of(cat: np.ndarray, cats) -> np.ndarray:
    """``np.isin(cat, cats)`` as one comparison per category, several
    times faster on the int16 category column."""
    mask = np.zeros(cat.shape, dtype=bool)
    for c in sorted(cats):
        mask |= cat == c
    return mask


#: Structured row dtype of the ``.npy`` archive format.  A plain
#: ``np.save`` of this record array is its archive; :meth:`Trace.from_npy`
#: views those bytes as columns without decoding or copying them.
_RECORD_DTYPE = np.dtype([(c, _DTYPES[c]) for c in _COLUMNS])


class Trace:
    """An immutable columnar native-instruction trace.

    Columns (parallel arrays of length ``n``):

    - ``pc``      instruction address
    - ``cat``     :class:`~repro.native.nisa.NCat` code
    - ``ea``      effective address for memory operations (0 otherwise)
    - ``flags``   event flag bits (taken / write / translate / ...)
    - ``target``  control-transfer target pc (0 otherwise)
    - ``dst``, ``src1``, ``src2``  register operands (-1 = none)

    A trace is what the cache, branch and pipeline simulators replay.
    It memoizes the streams they derive from it (the data references,
    the control transfers, the branch replay context, the pipeline's
    per-event columns), so every simulator and every geometry or width
    swept over one trace shares one derivation.
    """

    __slots__ = tuple(_COLUMNS) + ("n", "_memo")

    def __init__(self, **columns: np.ndarray) -> None:
        lengths = {len(columns[c]) for c in _COLUMNS}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        for c in _COLUMNS:
            setattr(self, c, columns[c])
        self.n = lengths.pop()
        self._memo: dict = {}

    # -- constructors -------------------------------------------------
    @classmethod
    def from_columns(cls, **columns) -> "Trace":
        """Build from any array-likes, coercing dtypes."""
        coerced = {
            c: np.asarray(columns[c], dtype=_DTYPES[c]) for c in _COLUMNS
        }
        return cls(**coerced)

    @classmethod
    def empty(cls) -> "Trace":
        return cls.from_columns(**{c: [] for c in _COLUMNS})

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"]) -> "Trace":
        if not traces:
            return cls.empty()
        return cls(
            **{
                c: np.concatenate([getattr(t, c) for t in traces])
                for c in _COLUMNS
            }
        )

    # -- persistence ---------------------------------------------------
    def to_records(self) -> np.ndarray:
        """The trace as one structured record array (``.npy`` format)."""
        records = np.empty(self.n, dtype=_RECORD_DTYPE)
        for c in _COLUMNS:
            records[c] = getattr(self, c)
        return records

    @classmethod
    def from_npy(cls, data: bytes) -> "Trace":
        """The trace whose ``.npy`` record array (the format
        :func:`repro.analysis.cache.store_trace` writes) is ``data``:
        read-only column views of those very bytes, nothing copied.
        Raises :class:`ValueError` unless ``data`` is one 1-D array of
        the trace record dtype with every row present."""
        fh = io.BytesIO(data)
        version = np.lib.format.read_magic(fh)
        read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}
        if version not in read_header:
            raise ValueError(f"unsupported .npy version {version}")
        shape, _, dtype = read_header[version](fh)
        if dtype != _RECORD_DTYPE or len(shape) != 1:
            raise ValueError(f"not a trace record array: {dtype} {shape}")
        if len(data) - fh.tell() != shape[0] * dtype.itemsize:
            raise ValueError(f"truncated trace of {shape[0]} records")
        records = np.frombuffer(data, dtype, count=shape[0],
                                offset=fh.tell())
        return cls(**{c: records[c] for c in _COLUMNS})

    # -- derived views ---------------------------------------------------
    def select(self, mask: np.ndarray) -> "Trace":
        """A sub-trace of the rows where ``mask`` is true."""
        return Trace(**{c: getattr(self, c)[mask] for c in _COLUMNS})

    @property
    def is_memory(self) -> np.ndarray:
        return _any_of(self.cat, MEMORY_CATS)

    @property
    def is_write(self) -> np.ndarray:
        return (self.flags & FLAG_WRITE) != 0

    @property
    def is_transfer(self) -> np.ndarray:
        return _any_of(self.cat, TRANSFER_CATS)

    @property
    def is_taken(self) -> np.ndarray:
        return (self.flags & FLAG_TAKEN) != 0

    @property
    def in_translate(self) -> np.ndarray:
        return (self.flags & FLAG_TRANSLATE) != 0

    def category_counts(self) -> np.ndarray:
        """Dynamic count per :class:`NCat`, length ``N_CATEGORIES``."""
        return np.bincount(self.cat, minlength=N_CATEGORIES).astype(np.int64)

    def base_cycles(self) -> int:
        """Total cycles under the flat cost model."""
        return int(CYCLES_BY_CAT[self.cat].sum())

    # -- memoized replay streams -------------------------------------------
    def _get(self, key, build):
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value

    def memory_mask(self) -> np.ndarray:
        return self._get("memory_mask", lambda: self.is_memory)

    def transfer_mask(self) -> np.ndarray:
        return self._get("transfer_mask", lambda: self.is_transfer)

    def instruction_stream(self):
        """(pcs, translate_mask) of the instruction fetches."""
        return self._get("instruction_stream",
                         lambda: (self.pc, self.in_translate))

    def data_stream(self):
        """(addrs, writes, translate_mask) of the data references."""
        def build():
            mem = self.memory_mask()
            flags = self.flags[mem]
            return (self.ea[mem], (flags & FLAG_WRITE) != 0,
                    (flags & FLAG_TRANSLATE) != 0)
        return self._get("data_stream", build)

    def transfers(self):
        """(pc, cat, taken, target) arrays of the control transfers."""
        def build():
            mask = self.transfer_mask()
            return (self.pc[mask], self.cat[mask], self.is_taken[mask],
                    self.target[mask])
        return self._get("transfers", build)

    def branch_context(self):
        """Shared :class:`~repro.arch.branch.vector.BranchReplayContext`
        of :meth:`transfers` (read-only, so safe to reuse across
        predictors, Table 2 and the pipeline model)."""
        def build():
            from ..arch.branch.vector import BranchReplayContext
            return BranchReplayContext(*self.transfers())
        return self._get("branch_context", build)

    def pipeline_columns(self, config, kernel: str):
        """The pipeline model's width-independent
        :func:`~repro.arch.pipeline.superscalar.event_columns`, shared
        by every width of a sweep."""
        from ..arch.pipeline.superscalar import event_columns
        return self._get(
            ("pipeline_columns", kernel, config.columns_key()),
            lambda: event_columns(self, config, kernel))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace(n={self.n})"


class CountingSink:
    """Accumulates cycles and per-category counts; records nothing.

    Also tracks the same totals split by the *translate* flag so that
    Section 3's translate-vs-execute accounting works without a full
    trace.  ``cycles`` is live; the other totals are exact integer sums
    over ``emits`` (template -> times emitted), computed when read.

    ``Interpreter.step`` inlines :meth:`emit` for the pure bytecodes it
    quickens, so it relies on this layout: an emission adds
    ``template.cycles`` to ``cycles`` and one to ``emits[template]``.
    """

    records = False

    def __init__(self) -> None:
        self.cycles = 0
        self.emits: dict[Template, int] = {}

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        self.cycles += template.cycles
        emits = self.emits
        emits[template] = emits.get(template, 0) + 1

    def emit_run(self, template: Template, k: int, eas=(), takens=(),
                 targets=()) -> None:
        """``k`` consecutive emissions of ``template`` (module docs)."""
        if k:
            self.cycles += template.cycles * k
            emits = self.emits
            emits[template] = emits.get(template, 0) + k

    @property
    def instructions(self) -> int:
        return sum(t.n * k for t, k in self.emits.items())

    @property
    def translate_cycles(self) -> int:
        return sum(t.cycles * k for t, k in self.emits.items() if t.translate)

    @property
    def cat_counts(self) -> np.ndarray:
        counts = np.zeros(N_CATEGORIES, dtype=np.int64)
        for t, k in self.emits.items():
            counts += t.cat_counts * k
        return counts

    def emit_cycles(self, cycles: int) -> None:
        """Charge raw cycles with no instruction stream (lock spins etc.)."""
        self.cycles += cycles


#: Patch values a recording sink keeps as Python ints before packing
#: them into arrays.  Unpacked, every value of a long recording stays
#: alive until the freeze, which leaves the heap fragmented for whatever
#: the process runs next.
_PACK_VALUES = 1 << 13


class RecordingSink(CountingSink):
    """Counts *and* records the full native event stream.

    Recording is a log, expanded once.  ``emit`` appends the template to
    the log and extends three flat lists with the emission's patch
    values, which are packed into arrays every few thousand values; no
    column is written per emission (``emit_run`` appends ``k`` log
    entries and the run's concatenated values the same way).
    :meth:`trace` builds every column with one gather over the
    concatenated rows of the distinct templates, then scatters each
    patch stream into the rows its templates' ``patch_*`` indices name.
    """

    records = True

    def __init__(self) -> None:
        super().__init__()
        self._log: list[Template] = []
        self._eas: list[int] = []
        self._takens: list[bool] = []
        self._targets: list[int] = []
        #: ``(eas, takens, targets)`` arrays packed from the lists above.
        self._packed: list[tuple[np.ndarray, ...]] = []

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        # CountingSink.emit, inlined: this runs once per emission.
        self.cycles += template.cycles
        emits = self.emits
        emits[template] = emits.get(template, 0) + 1
        self._log.append(template)
        self._eas.extend(eas)
        self._takens.extend(takens)
        self._targets.extend(targets)
        if len(self._eas) > _PACK_VALUES:
            self._pack()

    def emit_run(self, template: Template, k: int, eas=(), takens=(),
                 targets=()) -> None:
        if not k:
            return
        self.cycles += template.cycles * k
        emits = self.emits
        emits[template] = emits.get(template, 0) + k
        self._log.extend([template] * k)
        self._eas.extend(eas)
        self._takens.extend(takens)
        self._targets.extend(targets)
        if len(self._eas) > _PACK_VALUES:
            self._pack()

    def _pack(self) -> None:
        """Move the listed patch values into one packed array each."""
        self._packed.append((np.array(self._eas, dtype=np.int64),
                             np.array(self._takens, dtype=np.int16),
                             np.array(self._targets, dtype=np.int64)))
        self._eas.clear()
        self._takens.clear()
        self._targets.clear()

    def trace(self) -> Trace:
        """Freeze the recorded stream into a :class:`Trace`.

        Raises :class:`ValueError` naming the field when the ``ea``,
        ``taken`` or ``target`` values logged differ in number from the
        patch rows the logged templates declare.
        """
        if not self._log:
            return Trace.empty()
        # ``emits`` holds the distinct templates in first-emission order.
        table = list(self.emits)
        index = {t: i for i, t in enumerate(table)}
        ids = np.fromiter(map(index.__getitem__, self._log), dtype=np.intp,
                          count=len(self._log))
        src, lengths = _expand([t.pc for t in table], ids)
        cols = {
            c: _concat([getattr(t, c) for t in table], _DTYPES[c])[src]
            for c in _COLUMNS
        }
        starts = _exclusive_cumsum(lengths)
        self._pack()
        for k, field in enumerate(("ea", "taken", "target")):
            values = np.concatenate([chunk[k] for chunk in self._packed])
            patch = [getattr(t, "patch_" + field) for t in table]
            pick, counts = _expand(patch, ids)
            if len(pick) != len(values):
                raise ValueError(
                    f"{field}: {len(values)} patch values logged for "
                    f"{len(pick)} patch rows"
                )
            rows = _concat(patch, np.intp)[pick] + np.repeat(starts, counts)
            if field == "taken":
                flags = cols["flags"]
                flags[rows] = (flags[rows] & ~FLAG_TAKEN) | values * FLAG_TAKEN
            else:
                cols[field][rows] = values
        return Trace(**cols)

    def __len__(self) -> int:
        return self.instructions


def _concat(blocks: list, dtype) -> np.ndarray:
    return np.concatenate(blocks).astype(dtype, copy=False)


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a), dtype=np.intp)
    np.cumsum(a[:-1], out=out[1:])
    return out


def _expand(blocks: list, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index into ``concat(blocks)`` that yields
    ``concat(blocks[i] for i in ids)``, and the length of each picked
    block: one ``repeat`` of per-pick offsets plus one ``arange``."""
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    lengths = sizes[ids]
    offsets = _exclusive_cumsum(sizes)[ids] - _exclusive_cumsum(lengths)
    gather = np.repeat(offsets, lengths) + np.arange(int(lengths.sum()),
                                                     dtype=np.intp)
    return gather, lengths
