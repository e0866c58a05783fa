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
any time but cost a pass over the distinct templates.  Per-event data
(effective addresses, branch outcomes, targets) is only consumed by a
recording sink: code that would build it for the sink's sake must
check ``sink.records`` first.
"""

from __future__ import annotations

import os
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
#: Structured row dtype of the ``.npy`` archive format.  A plain
#: ``np.save`` of this record array can be reopened with
#: ``mmap_mode="r"``, so loading a cached trace costs a page-table
#: mapping instead of a full decompress-and-copy.
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
    """

    __slots__ = tuple(_COLUMNS) + ("n",)

    def __init__(self, **columns: np.ndarray) -> None:
        lengths = {len(columns[c]) for c in _COLUMNS}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {lengths}")
        for c in _COLUMNS:
            setattr(self, c, columns[c])
        self.n = lengths.pop()

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
    def from_records(cls, records: np.ndarray) -> "Trace":
        if records.dtype != _RECORD_DTYPE or records.ndim != 1:
            raise ValueError(
                f"not a trace record array: dtype={records.dtype}, "
                f"ndim={records.ndim}"
            )
        # Field views of a memory map stay lazy: pages fault in as the
        # simulators touch each column.
        return cls(**{c: records[c] for c in _COLUMNS})

    def save(self, path: str) -> None:
        """Persist by extension: ``.npy`` (mappable record array,
        the cache format) or anything else as a compressed ``.npz``."""
        if str(path).endswith(".npy"):
            np.save(path, self.to_records(), allow_pickle=False)
        else:
            np.savez_compressed(
                path, **{c: getattr(self, c) for c in _COLUMNS}
            )

    @classmethod
    def load(cls, path: str) -> "Trace":
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        if str(path).endswith(".npy"):
            records = np.load(path, mmap_mode="r", allow_pickle=False)
            return cls.from_records(records)
        with np.load(path) as data:
            return cls(**{c: data[c] for c in _COLUMNS})

    # -- derived views ---------------------------------------------------
    def select(self, mask: np.ndarray) -> "Trace":
        """A sub-trace of the rows where ``mask`` is true."""
        return Trace(**{c: getattr(self, c)[mask] for c in _COLUMNS})

    @property
    def is_memory(self) -> np.ndarray:
        return np.isin(self.cat, list(MEMORY_CATS))

    @property
    def is_write(self) -> np.ndarray:
        return (self.flags & FLAG_WRITE) != 0

    @property
    def is_transfer(self) -> np.ndarray:
        return np.isin(self.cat, list(TRANSFER_CATS))

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
    """

    records = False

    def __init__(self) -> None:
        self.cycles = 0
        self.emits: dict[Template, int] = {}

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        self.cycles += template.cycles
        emits = self.emits
        emits[template] = emits.get(template, 0) + 1

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


class RecordingSink(CountingSink):
    """Counts *and* records the full native event stream."""

    records = True

    def __init__(self, initial_capacity: int = 1 << 16) -> None:
        super().__init__()
        self._cap = max(int(initial_capacity), 16)
        self._n = 0
        self._cols = {
            c: np.zeros(self._cap, dtype=_DTYPES[c]) for c in _COLUMNS
        }

    def _ensure(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._cap:
            return
        new_cap = self._cap
        while new_cap < need:
            new_cap *= 2
        for c in _COLUMNS:
            grown = np.zeros(new_cap, dtype=_DTYPES[c])
            grown[: self._n] = self._cols[c][: self._n]
            self._cols[c] = grown
        self._cap = new_cap

    def emit(self, template: Template, eas=(), takens=(), targets=()) -> None:
        super().emit(template, eas, takens, targets)
        n = template.n
        if n == 0:
            return
        self._ensure(n)
        s = self._n
        cols = self._cols
        cols["pc"][s : s + n] = template.pc
        cols["cat"][s : s + n] = template.cat
        cols["ea"][s : s + n] = template.ea
        cols["flags"][s : s + n] = template.flags
        cols["target"][s : s + n] = template.target
        cols["dst"][s : s + n] = template.dst
        cols["src1"][s : s + n] = template.src1
        cols["src2"][s : s + n] = template.src2
        if len(template.patch_ea):
            cols["ea"][s + template.patch_ea] = eas
        if len(template.patch_taken):
            rows = s + template.patch_taken
            taken_bits = np.asarray(takens, dtype=np.int16) * FLAG_TAKEN
            cols["flags"][rows] = (cols["flags"][rows] & ~FLAG_TAKEN) | taken_bits
        if len(template.patch_target):
            cols["target"][s + template.patch_target] = targets
        self._n += n

    def trace(self) -> Trace:
        """Freeze the recorded stream into a :class:`Trace`."""
        return Trace(
            **{c: self._cols[c][: self._n].copy() for c in _COLUMNS}
        )

    def __len__(self) -> int:
        return self._n
