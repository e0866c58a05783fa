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
log and the patch values to three flat lists, and
:meth:`RecordingSink.trace` freezes them into a :class:`TraceLog`
without expanding it.  That log is the trace's stored form, and a
frozen or loaded trace holds only it: each column, and each stream a
simulator reads, is decoded from it when first read.  Per-event data
(effective addresses, branch outcomes, targets) is only consumed by a
recording sink: code that would build it for the sink's sake must
check ``sink.records`` first.

A producer may log a whole run of emissions in one step through
:meth:`RecordingSink.appenders`, as the stepper's hot lines do
(``repro.vm.lines``): it extends the log and the three lists itself,
adds the run's cycles, and defers the run's template counts.
:meth:`RecordingSink.trace` numbers the templates in order of their
first appearance in the log, so when those counts fold in never
changes a stored trace's bytes.

``emit_run(template, k, eas, takens, targets)`` stands for ``k``
consecutive ``emit`` calls of one template, with the patch streams of
the ``k`` emissions concatenated: a counting sink multiplies, and a
recording sink logs the run as ``k`` entries.  Loops that emit one
template per installed instruction or per class-file word use it, so a
counting sink costs them one call per loop, not one per iteration.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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

    ``log`` is the :class:`TraceLog` the columns expand from, the form
    a trace is stored in: a recording's template log, or for a trace
    built from columns, one template holding every row.  A trace made
    :meth:`from_log` is decoded on demand: a column is gathered from
    the log when first read and memoized, contiguous and read-only,
    and :meth:`data_stream` and :meth:`transfers` gather only the rows
    they keep, so no full ``ea`` or ``target`` column is ever built
    for them.  The gathers run in C
    (:func:`~repro.arch.compiled.gather_rows`) under the ``vector``
    kernel; otherwise, or when C cannot run, the first read builds
    every column at once with :func:`expand`.
    """

    __slots__ = ("n", "log", "_cols", "_memo")

    def __init__(self, **columns: np.ndarray) -> None:
        lengths = {len(columns[c]) for c in _COLUMNS}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        self._cols = {c: columns[c] for c in _COLUMNS}
        self.n = lengths.pop()
        self.log = TraceLog.whole(columns)
        self._memo: dict = {}

    pc = property(lambda self: self._column("pc"))
    cat = property(lambda self: self._column("cat"))
    ea = property(lambda self: self._column("ea"))
    flags = property(lambda self: self._column("flags"))
    target = property(lambda self: self._column("target"))
    dst = property(lambda self: self._column("dst"))
    src1 = property(lambda self: self._column("src1"))
    src2 = property(lambda self: self._column("src2"))

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

    @classmethod
    def from_log(cls, log: "TraceLog") -> "Trace":
        """The trace ``log`` describes, holding only the log: nothing is
        decoded until read.  Raises :class:`ValueError` as
        :func:`expand` would, naming the field whose patch stream holds
        a different number of values than the logged templates declare
        patch rows."""
        table = log.table
        emits = np.bincount(log.ids, minlength=len(table.sizes))
        for field, counts, values in zip(_PATCH_FIELDS, table.patch_counts,
                                         log[2:]):
            rows = int(emits @ counts)
            if rows != len(values):
                raise ValueError(
                    f"{field}: {len(values)} patch values logged for "
                    f"{rows} patch rows"
                )
        trace = cls.__new__(cls)
        trace._cols = {}
        trace.n = int(emits @ table.sizes)
        trace.log = log
        trace._memo = {"emits": emits}
        return trace

    # -- decoding ---------------------------------------------------------
    def _column(self, name: str) -> np.ndarray:
        column = self._cols.get(name)
        if column is None:
            column = self._gather(name)
            column.flags.writeable = False
            self._cols[name] = column
        return column

    def _gather(self, name: str, selection: str | None = None
                ) -> np.ndarray:
        """Column ``name`` at the ``"memory"`` or ``"transfer"`` rows,
        or at every row for ``None``: gathered from the log in C while
        columns are missing, else from the columns."""
        if len(self._cols) < len(_COLUMNS):
            from ..arch import compiled
            from ..arch.kernels import active_kernel
            out = None
            if active_kernel() == "vector":
                out = self._decode(name, selection)
            if compiled.note("decode", out) is not None:
                return out
            self._cols = expand(*self.log)
        column = self._cols[name]
        if selection is None:
            return column
        return column[self.is_memory if selection == "memory"
                      else self.is_transfer]

    def _decode(self, name: str, selection: str | None):
        """:meth:`_gather`'s C gather, or ``None`` when C cannot run."""
        from ..arch.compiled import gather_rows
        plan = self._plan(selection)
        table, patch = self.log.table, None
        k = _PATCHED.get(name)
        if k is not None:
            patch = (table.patch_counts[k], plan.patch_ranks[k],
                     self.log[2 + k], FLAG_TAKEN if name == "flags" else 0)
        return gather_rows(self.log.ids, plan.first, plan.count,
                           table.columns[name][plan.rows], plan.n, patch)

    def _plan(self, selection: str | None) -> "_Plan":
        """Which rows of each template ``selection`` keeps, and where in
        the kept rows each patch row lands (-1 when it is dropped)."""
        def build():
            table = self.log.table
            cat, sizes = table.columns["cat"], table.sizes
            keep = (np.ones(len(cat), dtype=bool) if selection is None
                    else _any_of(cat, _SELECTIONS[selection]))
            owner = np.repeat(np.arange(len(sizes)), sizes)
            count = np.bincount(owner[keep], minlength=len(sizes))
            first = _exclusive_cumsum(count)
            rank = np.cumsum(keep) - 1 - first[owner]
            rank[~keep] = -1
            starts = _exclusive_cumsum(sizes)
            return _Plan(
                first, count, np.flatnonzero(keep),
                int(self._memo["emits"] @ count),
                tuple(rank[np.repeat(starts, counts) + rows]
                      for rows, counts in zip(table.patch_rows,
                                              table.patch_counts)))
        return self._get(("plan", selection), build)

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
        # Nothing in the replay reads it; the end-to-end benchmark's
        # ledger still names it among the replay streams it times.
        return self.is_memory

    def instruction_stream(self):
        """(pcs, translate_mask) of the instruction fetches."""
        return self._get("instruction_stream",
                         lambda: (self.pc, self.in_translate))

    def data_stream(self):
        """(addrs, writes, translate_mask) of the data references."""
        def build():
            flags = self._gather("flags", "memory")
            return (self._gather("ea", "memory"), (flags & FLAG_WRITE) != 0,
                    (flags & FLAG_TRANSLATE) != 0)
        return self._get("data_stream", build)

    def transfers(self):
        """(pc, cat, taken, target) arrays of the control transfers."""
        def build():
            return (self._gather("pc", "transfer"),
                    self._gather("cat", "transfer"),
                    (self._gather("flags", "transfer") & FLAG_TAKEN) != 0,
                    self._gather("target", "transfer"))
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

    Under a plain counting sink, ``Interpreter.step`` counts a pure
    bytecode's template inline instead of calling :meth:`emit`, and the
    JIT charges a translation's whole translate routine as one
    histogram through :meth:`emit_counts` instead of walking it (any
    other sink gets the calls).  Both rely on this layout: an emission
    adds ``template.cycles`` to ``cycles`` and one to
    ``emits[template]``, and nothing else, so any sequence of emissions
    is fully described by its per-template counts and their cycles.
    ``cat_counts`` is one product of the count vector with the stacked
    per-template category rows.

    A producer may count emissions of its own and add them to ``tally``
    later, as the stepper's hot lines do (``repro.vm.lines``): it
    registers a callable in ``deferred`` that adds them, and reading
    ``emits`` calls each first, so ``emits`` is exact whenever read.
    ``tally`` is the same dict without that fold, for the producers.
    """

    records = False

    def __init__(self) -> None:
        self.cycles = 0
        self.tally: dict[Template, int] = {}
        self.deferred: list = []

    @property
    def emits(self) -> dict[Template, int]:
        for fold in self.deferred:
            fold()
        return self.tally

    @emits.setter
    def emits(self, value: dict[Template, int]) -> None:
        self.tally = value

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        self.cycles += template.cycles
        emits = self.tally
        emits[template] = emits.get(template, 0) + 1

    def emit_run(self, template: Template, k: int, eas=(), takens=(),
                 targets=()) -> None:
        """``k`` consecutive emissions of ``template`` (module docs)."""
        if k:
            self.cycles += template.cycles * k
            emits = self.tally
            emits[template] = emits.get(template, 0) + k

    @property
    def instructions(self) -> int:
        return sum(t.n * k for t, k in self.emits.items())

    @property
    def translate_cycles(self) -> int:
        return sum(t.cycles * k for t, k in self.emits.items() if t.translate)

    @property
    def cat_counts(self) -> np.ndarray:
        emits = self.emits
        if not emits:
            return np.zeros(N_CATEGORIES, dtype=np.int64)
        times = np.fromiter(emits.values(), np.int64, len(emits))
        return times @ np.array([t.cat_counts for t in emits],
                                dtype=np.int64)

    def emit_cycles(self, cycles: int) -> None:
        """Charge raw cycles with no instruction stream (lock spins etc.)."""
        self.cycles += cycles

    def emit_counts(self, counts: dict[Template, int], cycles: int) -> None:
        """Emissions given as ``template -> times emitted`` with their
        total ``cycles``, in one step: the counting effect of any
        sequence of :meth:`emit` and :meth:`emit_run` calls of those
        templates.  It carries no events, so only a plain counting sink
        may be charged this way."""
        self.cycles += cycles
        emits = self.tally
        for t, k in counts.items():
            emits[t] = emits.get(t, 0) + k


#: Patch values a recording sink keeps as Python ints before packing
#: them into arrays.  Unpacked, every value of a long recording stays
#: alive until the freeze, which leaves the heap fragmented for whatever
#: the process runs next.
_PACK_VALUES = 1 << 13


class RecordingSink(CountingSink):
    """Counts *and* records the full native event stream.

    Recording is a log.  ``emit`` appends the template to the log and
    extends three flat lists with the emission's patch values, which
    are packed into arrays every few thousand values; no column is
    written per emission (``emit_run`` appends ``k`` log entries and
    the run's concatenated values the same way).  :meth:`trace` freezes
    the log into a :class:`Trace` that decodes it on demand.
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
        emits = self.tally
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
        emits = self.tally
        emits[template] = emits.get(template, 0) + k
        self._log.extend([template] * k)
        self._eas.extend(eas)
        self._takens.extend(takens)
        self._targets.extend(targets)
        if len(self._eas) > _PACK_VALUES:
            self._pack()

    def appenders(self) -> tuple:
        """``(log, eas, takens, targets, pack)``: the log, the three
        patch-value lists and the step that packs the lists once the eas
        pass :data:`_PACK_VALUES`.  A producer that logs a whole run of
        emissions at once (the stepper's hot lines, ``repro.vm.lines``)
        extends them itself, adds the run's cycles to ``cycles`` and
        defers its template counts (:class:`CountingSink`)."""
        return self._log, self._eas, self._takens, self._targets, self._pack

    def _pack(self) -> None:
        """Move the listed patch values into one packed array each."""
        self._packed.append((np.array(self._eas, dtype=np.int64),
                             np.array(self._takens, dtype=np.int16),
                             np.array(self._targets, dtype=np.int64)))
        self._eas.clear()
        self._takens.clear()
        self._targets.clear()

    def trace(self) -> Trace:
        """Freeze the recorded stream into a :class:`Trace` that keeps
        its :class:`TraceLog`.

        Raises :class:`ValueError` naming the field when the ``ea``,
        ``taken`` or ``target`` values logged differ in number from the
        patch rows the logged templates declare.
        """
        if not self._log:
            return Trace.empty()
        # Templates are numbered in first-emission order, read from the
        # log: a producer's deferred counts fold into ``emits`` out of it.
        table = list(dict.fromkeys(self._log))
        index = {t: i for i, t in enumerate(table)}
        ids = np.fromiter(map(index.__getitem__, self._log),
                          dtype=np.uint16 if len(table) <= 1 << 16
                          else np.uint32, count=len(self._log))
        self._pack()
        values = [np.concatenate([chunk[k] for chunk in self._packed])
                  for k in range(3)]
        # The frozen log's values stand for the packed arrays from now
        # on, so the sink keeps no second copy of them.
        self._packed = [tuple(values)]
        return Trace.from_log(TraceLog(TemplateTable.of(table), ids, *values))

    def __len__(self) -> int:
        return self.instructions


_PATCH_FIELDS = ("ea", "taken", "target")
#: The column each patch field writes -> the field's index.
_PATCHED = {"ea": 0, "flags": 1, "target": 2}
#: The rows :meth:`Trace.data_stream` and :meth:`Trace.transfers` keep.
_SELECTIONS = {"memory": MEMORY_CATS, "transfer": TRANSFER_CATS}


class _Plan(NamedTuple):
    """The rows one selection keeps of a :class:`TemplateTable`: per
    template, its kept rows ``rows[first[t]:first[t] + count[t]]``; the
    ``n`` kept events of the whole log; and per patch field, the kept
    row each patch row lands on, -1 where it is dropped."""

    first: np.ndarray
    count: np.ndarray
    rows: np.ndarray
    n: int
    patch_ranks: tuple


class TemplateTable(NamedTuple):
    """The distinct templates of a :class:`TraceLog`: each column's rows
    of every template, concatenated, each template's row count, and per
    patch field (:data:`_PATCH_FIELDS`) the templates' own ``patch_*``
    rows, concatenated, with each template's count of them."""

    columns: dict
    sizes: np.ndarray
    patch_rows: tuple
    patch_counts: tuple

    @classmethod
    def of(cls, templates: Sequence[Template]) -> "TemplateTable":
        patches = [[getattr(t, "patch_" + f) for t in templates]
                   for f in _PATCH_FIELDS]
        return cls(
            {c: _concat([getattr(t, c) for t in templates], _DTYPES[c])
             for c in _COLUMNS},
            np.array([t.n for t in templates], dtype=np.int64),
            tuple(_concat(rows, np.int64) for rows in patches),
            tuple(np.array([len(r) for r in rows], dtype=np.int64)
                  for rows in patches))


#: Leading bytes of a stored :class:`TraceLog`, then the header: the
#: format version, the id width in bytes and the lengths of the
#: template count, table rows, three patch-row arrays, ids and three
#: patch-value streams.
_LOG_MAGIC = b"TRACELOG"
_LOG_VERSION = 1
_LOG_HEADER = 11


def _layout(id_dtype) -> list:
    """``(dtype, header length index)`` of each stored array, in order:
    template sizes, the three patch counts, the eight table columns,
    the three patch-row arrays, the ids and the three patch streams."""
    return ([(np.int64, 0)] * 4 + [(_DTYPES[c], 1) for c in _COLUMNS]
            + [(np.int64, 2), (np.int64, 3), (np.int64, 4), (id_dtype, 5),
               (np.int64, 6), (np.int16, 7), (np.int64, 8)])


class TraceLog(NamedTuple):
    """A trace as the template log it expands from (:func:`expand`):
    the distinct templates, which one each emission was (``ids``, one
    ``uint16`` each, ``uint32`` past 65,536 templates) and the ``ea``,
    ``taken`` and ``target`` patch values of all emissions, in order.

    Its bytes (:meth:`to_bytes`) are the stored form of a trace: the
    magic, the header, then each array of :func:`_layout` as raw
    little-endian values padded to 8 bytes."""

    table: TemplateTable
    ids: np.ndarray
    eas: np.ndarray
    takens: np.ndarray
    targets: np.ndarray

    @classmethod
    def whole(cls, columns: dict) -> "TraceLog":
        """The log of one template holding every row of ``columns``,
        emitted once, with no patch rows."""
        none = np.zeros(0, dtype=np.int64)
        once = np.zeros(1, dtype=np.int64)
        table = TemplateTable(
            {c: columns[c] for c in _COLUMNS},
            np.array([len(columns["pc"])], dtype=np.int64),
            (none,) * 3, (once,) * 3)
        return cls(table, np.zeros(1, dtype=np.uint16), none,
                   np.zeros(0, dtype=np.int16), none)

    def to_bytes(self) -> bytes:
        t = self.table
        arrays = [t.sizes, *t.patch_counts, *(t.columns[c] for c in _COLUMNS),
                  *t.patch_rows, self.ids, self.eas, self.takens,
                  self.targets]
        header = np.array(
            [_LOG_VERSION, self.ids.dtype.itemsize, len(t.sizes),
             len(t.columns["pc"]), *map(len, t.patch_rows), len(self.ids),
             len(self.eas), len(self.takens), len(self.targets)],
            dtype="<i8")
        parts = [_LOG_MAGIC, header.tobytes()]
        for array, (dtype, _) in zip(arrays, _layout(self.ids.dtype)):
            raw = np.ascontiguousarray(
                array, dtype=np.dtype(dtype).newbyteorder("<")).tobytes()
            parts += (raw, bytes(-len(raw) % 8))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TraceLog":
        """The log whose :meth:`to_bytes` is ``data``, as read-only views
        of it.  Raises :class:`ValueError` unless ``data`` holds exactly
        one log whose ids name its templates and whose patch rows lie
        inside their templates."""
        start = len(_LOG_MAGIC) + 8 * _LOG_HEADER
        if len(data) < start or data[:len(_LOG_MAGIC)] != _LOG_MAGIC:
            raise ValueError("not a trace log")
        header = np.frombuffer(data, "<i8", _LOG_HEADER, len(_LOG_MAGIC))
        version, id_size, *lengths = header.tolist()
        if version != _LOG_VERSION or id_size not in (2, 4):
            raise ValueError(f"unsupported trace log {version}/{id_size}")
        if min(lengths) < 0:
            raise ValueError(f"negative trace log lengths {lengths}")
        arrays, offset = [], start
        for dtype, k in _layout(np.uint16 if id_size == 2 else np.uint32):
            dtype = np.dtype(dtype).newbyteorder("<")
            end = offset + lengths[k] * dtype.itemsize
            if end > len(data):
                raise ValueError("truncated trace log")
            arrays.append(np.frombuffer(data, dtype, lengths[k], offset))
            offset = end + -end % 8
        if offset != len(data):
            raise ValueError(f"trace log of {offset} bytes in {len(data)}")
        sizes, *counts = arrays[:4]
        rows = arrays[12:15]
        n_templates, n_rows = lengths[:2]
        if ((sizes < 0) | (sizes > n_rows)).any() or sizes.sum() != n_rows:
            raise ValueError("template sizes do not cover the table")
        for field, c, r in zip(_PATCH_FIELDS, counts, rows):
            if ((c < 0) | (c > len(r))).any() or c.sum() != len(r):
                raise ValueError(f"{field}: patch counts do not cover "
                                 f"{len(r)} patch rows")
            if ((r < 0) | (r >= np.repeat(sizes, c))).any():
                raise ValueError(f"{field}: patch row outside its template")
        ids = arrays[15]
        if len(ids) and int(ids.max()) >= n_templates:
            raise ValueError(f"template id {int(ids.max())} past "
                             f"{n_templates} templates")
        table = TemplateTable(dict(zip(_COLUMNS, arrays[4:12])), sizes,
                              tuple(rows), tuple(counts))
        return cls(table, ids, *arrays[16:])


def expand(table: TemplateTable, ids: np.ndarray, eas: np.ndarray,
           takens: np.ndarray, targets: np.ndarray) -> dict:
    """The read-only columns of the trace a template log describes, all
    at once: the reference :class:`Trace`'s on-demand decode equals,
    and what it runs when it cannot gather in C.

    One gather index over the table's rows serves all eight columns;
    each patch stream is then scattered into the rows its templates'
    patch rows name.  Raises :class:`ValueError` naming the field when
    a stream holds a different number of values than the logged
    templates declare patch rows.
    """
    src, lengths = _gather_index(table.sizes, ids)
    cols = {c: table.columns[c][src] for c in _COLUMNS}
    starts = _exclusive_cumsum(lengths)
    for field, rows, counts, values in zip(
            _PATCH_FIELDS, table.patch_rows, table.patch_counts,
            (eas, takens, targets)):
        pick, picked = _gather_index(counts, ids)
        if len(pick) != len(values):
            raise ValueError(
                f"{field}: {len(values)} patch values logged for "
                f"{len(pick)} patch rows"
            )
        at = rows[pick] + np.repeat(starts, picked)
        if field == "taken":
            flags = cols["flags"]
            flags[at] = (flags[at] & ~FLAG_TAKEN) | values * FLAG_TAKEN
        else:
            cols[field][at] = values
    for column in cols.values():
        column.flags.writeable = False
    return cols


def _concat(blocks: list, dtype) -> np.ndarray:
    return np.concatenate(blocks).astype(dtype, copy=False)


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a), dtype=np.intp)
    np.cumsum(a[:-1], out=out[1:])
    return out


def _gather_index(sizes: np.ndarray, ids: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Index into blocks of ``sizes`` rows each, laid end to end, that
    picks block ``ids[0]``, then ``ids[1]``, ..., and the length of each
    pick: one ``repeat`` of per-pick offsets plus one ``arange``."""
    lengths = sizes[ids]
    offsets = _exclusive_cumsum(sizes)[ids] - _exclusive_cumsum(lengths)
    gather = np.repeat(offsets, lengths) + np.arange(int(lengths.sum()),
                                                     dtype=np.intp)
    return gather, lengths
