"""Native-code templates.

A *template* is a short, pre-resolved sequence of native instructions —
an interpreter handler body, a chunk of JIT-compiled code for one
bytecode, a runtime-routine stub.  Templates are built once (at VM
start-up or at JIT-compile time) and then *emitted* into the trace every
time the corresponding work executes, with the per-execution values
(effective addresses, branch outcomes, indirect-jump targets) patched in.

This block-copy design is what makes whole-benchmark native traces
tractable in Python: per bytecode, the inner loop of trace generation
only logs which template ran and its patch values; the recorder expands
the log into columns with one numpy gather when the trace is frozen.

A template may also be *deferred*: the JIT compiles tens of thousands of
chunks that a counting sink only ever asks for ``n``, ``cycles``,
``translate`` and ``cat_counts``.  A deferred template carries those
and builds its numpy columns on the first read of any of them, through
the same :meth:`TemplateBuilder.build` an eager template comes from.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .costs import CYCLES_BY_CAT
from .layout import NATIVE_INSTR_BYTES, TextRegion
from .nisa import (
    FLAG_TAKEN,
    FLAG_TRANSLATE,
    FLAG_WRITE,
    N_CATEGORIES,
    NCat,
    NO_REG,
    TRANSFER_CATS,
)

#: Sentinel marking a field whose value is supplied at emission time.
PATCH = object()


#: Template attributes a deferred template builds on first read.
_COLUMN_FIELDS = ("pc", "cat", "ea", "flags", "target", "dst", "src1",
                  "src2", "patch_ea", "patch_taken", "patch_target")


class Template:
    """An immutable, pc-resolved native instruction block.

    Attributes are parallel numpy arrays of length :attr:`n`; the
    ``patch_*`` arrays hold the row indices whose corresponding field is
    filled in per emission, in the order the builder declared them.
    ``translate`` is true when the block belongs to the JIT's translate
    routine (its first instruction carries ``FLAG_TRANSLATE``).

    A template made by :meth:`deferred` starts with only ``name``,
    ``n``, ``cycles``, ``cat_counts``, ``translate``, ``base_pc`` and
    ``end_pc``; reading any column builds the columns, so every reader
    sees the attributes an eager template has.
    """

    __slots__ = _COLUMN_FIELDS + (
        "name",
        "n",
        "cycles",
        "cat_counts",
        "translate",
        "base_pc",
        "end_pc",
        "_build",
    )

    def __init__(
        self,
        name: str,
        pc: np.ndarray,
        cat: np.ndarray,
        ea: np.ndarray,
        flags: np.ndarray,
        target: np.ndarray,
        dst: np.ndarray,
        src1: np.ndarray,
        src2: np.ndarray,
        patch_ea: np.ndarray,
        patch_taken: np.ndarray,
        patch_target: np.ndarray,
    ) -> None:
        self.name = name
        self.n = n = len(pc)
        self.pc = pc
        self.cat = cat
        self.ea = ea
        self.flags = flags
        self.target = target
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.patch_ea = patch_ea
        self.patch_taken = patch_taken
        self.patch_target = patch_target
        self.cycles = int(CYCLES_BY_CAT[cat].sum())
        self.cat_counts = np.bincount(cat, minlength=N_CATEGORIES).astype(np.int64)
        self.translate = bool(n and flags[0] & FLAG_TRANSLATE)
        #: pc of the first instruction (templates are contiguous).
        self.base_pc = int(pc[0]) if n else 0
        #: pc one past the last instruction.
        self.end_pc = int(pc[-1]) + NATIVE_INSTR_BYTES if n else 0
        self._build = None

    @classmethod
    def deferred(cls, name: str, n: int, cycles: int, cat_counts: np.ndarray,
                 translate: bool, base_pc: int, build) -> "Template":
        """A template whose columns are built on first read.

        ``build()`` returns the equivalent eager template, whose arrays
        this one adopts the first time any column is read; ``build`` is
        then dropped.  The caller vouches that the scalars and
        ``cat_counts`` equal what the build yields.
        """
        t = cls.__new__(cls)
        t.name = name
        t.n = n
        t.cycles = cycles
        t.cat_counts = cat_counts
        t.translate = translate
        t.base_pc = base_pc if n else 0
        t.end_pc = base_pc + NATIVE_INSTR_BYTES * n if n else 0
        t._build = build
        return t

    @property
    def materialized(self) -> bool:
        """Whether the columns exist (always, for an eager template)."""
        return self._build is None

    def __getattr__(self, name: str):
        # Reached only when a slot is unset: a deferred template's
        # columns, before the first read of any of them.
        if name not in _COLUMN_FIELDS or self._build is None:
            raise AttributeError(name)
        built = self._build()
        for field in _COLUMN_FIELDS:
            setattr(self, field, getattr(built, field))
        self._build = None
        return getattr(self, name)

    def __len__(self) -> int:
        return self.n

    def slice_rows(self, start: int, end: int) -> "Template":
        """A sub-template of rows ``[start, end)`` with patch indices
        filtered and rebased (used by the folding interpreter to drop a
        handler's dispatch prefix or back-jump)."""

        def rebase(patch: np.ndarray) -> np.ndarray:
            kept = patch[(patch >= start) & (patch < end)]
            return (kept - start).astype(np.int64)

        sel = slice(start, end)
        return Template(
            name=f"{self.name}[{start}:{end}]",
            pc=self.pc[sel],
            cat=self.cat[sel],
            ea=self.ea[sel],
            flags=self.flags[sel],
            target=self.target[sel],
            dst=self.dst[sel],
            src1=self.src1[sel],
            src2=self.src2[sel],
            patch_ea=rebase(self.patch_ea),
            patch_taken=rebase(self.patch_taken),
            patch_target=rebase(self.patch_target),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Template({self.name!r}, n={self.n}, pc={self.base_pc:#x})"


class TemplateBuilder:
    """Accumulates instructions and resolves them into a :class:`Template`.

    Parameters
    ----------
    name:
        Diagnostic name (e.g. ``"handler:iadd"``).
    base_flags:
        Flag bits OR-ed into every instruction (e.g. ``FLAG_TRANSLATE``
        for code belonging to the JIT's translate routine).
    """

    def __init__(self, name: str = "", base_flags: int = 0) -> None:
        self.name = name
        self.base_flags = base_flags
        self._cat: list[int] = []
        self._ea: list[int] = []
        self._flags: list[int] = []
        self._target: list = []  # int, ("rel", k) or 0
        self._dst: list[int] = []
        self._src1: list[int] = []
        self._src2: list[int] = []
        self._patch_ea: list[int] = []
        self._patch_taken: list[int] = []
        self._patch_target: list[int] = []

    def instr(
        self,
        cat: NCat,
        dst: int = NO_REG,
        src1: int = NO_REG,
        src2: int = NO_REG,
        ea=None,
        taken=None,
        target=None,
        flags: int = 0,
    ) -> "TemplateBuilder":
        """Append one instruction.

        ``ea``, ``taken`` and ``target`` may each be a concrete value or
        the :data:`PATCH` sentinel; patched fields are supplied at
        emission time, in declaration order.
        """
        row = len(self._cat)
        f = self.base_flags | flags
        if cat == NCat.STORE:
            f |= FLAG_WRITE

        if ea is PATCH:
            self._patch_ea.append(row)
            ea_val = 0
        elif ea is None:
            ea_val = 0
        else:
            ea_val = int(ea)

        if taken is PATCH:
            self._patch_taken.append(row)
        elif taken is None:
            # Unconditional transfers are always taken.
            if cat in TRANSFER_CATS and cat != NCat.BRANCH:
                f |= FLAG_TAKEN
        elif taken:
            f |= FLAG_TAKEN

        if target is PATCH:
            self._patch_target.append(row)
            tgt_val = 0
        elif target is None:
            tgt_val = 0
        elif isinstance(target, tuple) and target[0] == "rel":
            tgt_val = target  # resolved in build()
        else:
            tgt_val = int(target)

        self._cat.append(int(cat))
        self._ea.append(ea_val)
        self._flags.append(f)
        self._target.append(tgt_val)
        self._dst.append(dst)
        self._src1.append(src1)
        self._src2.append(src2)
        return self

    # Convenience emitters -------------------------------------------------
    def ialu(self, dst=NO_REG, src1=NO_REG, src2=NO_REG, n: int = 1):
        """Append ``n`` integer ALU operations."""
        for _ in range(n):
            self.instr(NCat.IALU, dst=dst, src1=src1, src2=src2)
        return self

    def load(self, dst=NO_REG, src1=NO_REG, ea=PATCH):
        return self.instr(NCat.LOAD, dst=dst, src1=src1, ea=ea)

    def store(self, src1=NO_REG, src2=NO_REG, ea=PATCH):
        return self.instr(NCat.STORE, src1=src1, src2=src2, ea=ea)

    def rel(self, k: int) -> tuple:
        """A branch target ``k`` instructions away from the branch."""
        return ("rel", k)

    def __len__(self) -> int:
        return len(self._cat)

    def build(self, region: TextRegion | None = None, base_pc: int | None = None) -> Template:
        """Resolve pcs (allocating from ``region`` unless ``base_pc`` is
        given) and freeze into a :class:`Template`."""
        n = len(self._cat)
        if base_pc is None:
            if region is None:
                raise ValueError("either region or base_pc must be provided")
            base_pc = region.alloc(n)
        pc = base_pc + NATIVE_INSTR_BYTES * np.arange(n, dtype=np.int64)
        target = np.zeros(n, dtype=np.int64)
        for i, t in enumerate(self._target):
            if isinstance(t, tuple):
                target[i] = pc[i] + t[1] * NATIVE_INSTR_BYTES
            else:
                target[i] = t
        return Template(
            name=self.name,
            pc=pc,
            cat=np.asarray(self._cat, dtype=np.int16),
            ea=np.asarray(self._ea, dtype=np.int64),
            flags=np.asarray(self._flags, dtype=np.int16),
            target=target,
            dst=np.asarray(self._dst, dtype=np.int16),
            src1=np.asarray(self._src1, dtype=np.int16),
            src2=np.asarray(self._src2, dtype=np.int16),
            patch_ea=np.asarray(self._patch_ea, dtype=np.int64),
            patch_taken=np.asarray(self._patch_taken, dtype=np.int64),
            patch_target=np.asarray(self._patch_target, dtype=np.int64),
        )


def concat_templates(name: str, templates: Sequence[Template]) -> Template:
    """Concatenate already-resolved templates into one block.

    Used by the JIT to stitch per-bytecode chunks into a method body
    view; patch indices are re-based onto the combined block.
    """
    if not templates:
        raise ValueError("cannot concatenate zero templates")
    offsets = np.cumsum([0] + [t.n for t in templates[:-1]])
    return Template(
        name=name,
        pc=np.concatenate([t.pc for t in templates]),
        cat=np.concatenate([t.cat for t in templates]),
        ea=np.concatenate([t.ea for t in templates]),
        flags=np.concatenate([t.flags for t in templates]),
        target=np.concatenate([t.target for t in templates]),
        dst=np.concatenate([t.dst for t in templates]),
        src1=np.concatenate([t.src1 for t in templates]),
        src2=np.concatenate([t.src2 for t in templates]),
        patch_ea=np.concatenate(
            [t.patch_ea + off for t, off in zip(templates, offsets)]
        ).astype(np.int64),
        patch_taken=np.concatenate(
            [t.patch_taken + off for t, off in zip(templates, offsets)]
        ).astype(np.int64),
        patch_target=np.concatenate(
            [t.patch_target + off for t, off in zip(templates, offsets)]
        ).astype(np.int64),
    )
