"""Bytecode folding for the interpreter (the Section 4.4 proposal).

The paper observes that wide-issue scaling of the interpreter is capped
by the dispatch switch's unpredictable target, and suggests the remedy
picoJava applies in hardware: *fold* commonly occurring sequences of
simple bytecodes so that a group shares a single fetch/decode/dispatch.
``An interpreter code that identifies these sequences of bytecodes can
mitigate the effect of inaccurate target prediction and scale better.''

This module implements that interpreter variant at the trace level: a
:class:`FoldingSink` holds each simple handler emission for one step;
when the next bytecode is also simple (and nothing else — allocation,
call, lock, translate work — intervened), the pair is merged by
dropping the first handler's back-jump and the second handler's
dispatch block.  Groups fold up to ``max_group`` bytecodes, one
dispatch per group, exactly like picoJava's 2-4-byte folding groups.

Semantics are untouched; only the emitted native stream (and therefore
cycles, branch events and fetch behaviour) changes.
"""

from __future__ import annotations

from ..isa.opcodes import Op, OPINFO
from .interp_templates import _DISPATCH_LEN, InterpreterTemplates

#: Opcode kinds that may participate in a folding group (no control
#: transfer, no runtime call in the handler).
_FOLDABLE_KINDS = frozenset({
    "const", "load_local", "store_local", "iinc", "stack", "binop",
    "unop", "field", "array", "typecheck", "misc",
})


class _Variants:
    """The four slicings of one handler template."""

    __slots__ = ("full", "nojump", "body", "body_nojump")

    def __init__(self, template) -> None:
        n = template.n
        self.full = template
        self.nojump = template.slice_rows(0, n - 1)
        self.body = template.slice_rows(_DISPATCH_LEN, n)
        self.body_nojump = template.slice_rows(_DISPATCH_LEN, n - 1)


def build_fold_map(templates: InterpreterTemplates) -> dict[int, _Variants]:
    """id(template) -> variants, for every foldable handler."""
    fold_map: dict[int, _Variants] = {}
    for key, template in templates.tpl.items():
        if not isinstance(key, Op):
            continue
        if OPINFO[key].kind not in _FOLDABLE_KINDS:
            continue
        fold_map[id(template)] = _Variants(template)
    return fold_map


class FoldingSink:
    """Sink wrapper that merges consecutive simple handler emissions.

    Unknown templates (compiled chunks, runtime stubs, lock routines,
    the translator) flush any held emission and pass through unchanged,
    so folding groups never straddle non-interpreter work.
    """

    def __init__(self, inner, templates: InterpreterTemplates,
                 max_group: int = 3) -> None:
        self._inner = inner
        self._fold_map = build_fold_map(templates)
        self._max_group = max_group
        self._held = None        # (variants, eas, takens, targets, stripped)
        self._group = 0
        self.folded_bytecodes = 0
        self.dispatches_saved = 0

    # -- sink protocol ------------------------------------------------
    def emit(self, template, eas=(), takens=(), targets=()) -> None:
        variants = self._fold_map.get(id(template))
        if variants is None:
            self.flush()
            self._inner.emit(template, eas, takens, targets)
            return
        if self._held is not None and self._group < self._max_group:
            # Fold: the held handler loses its back-jump; the incoming
            # handler will lose its dispatch block.
            hv, h_eas, h_tak, h_tgt, h_stripped = self._held
            tpl = hv.body_nojump if h_stripped else hv.nojump
            self._inner.emit(tpl, h_eas, h_tak, h_tgt)
            self._held = (variants, tuple(eas)[1:], takens, targets, True)
            self._group += 1
            self.folded_bytecodes += 1
            self.dispatches_saved += 1
            return
        self.flush()
        self._held = (variants, tuple(eas), takens, targets, False)
        self._group = 1

    def flush(self) -> None:
        """Emit any held handler in its final form."""
        if self._held is None:
            return
        hv, eas, takens, targets, stripped = self._held
        self._held = None
        self._group = 0
        self._inner.emit(hv.body if stripped else hv.full,
                         eas, takens, targets)

    def emit_run(self, template, k, eas=(), takens=(), targets=()) -> None:
        if not k:
            return
        if id(template) in self._fold_map:
            # A run of one handler folds within itself: emit it singly.
            ne, nt, ng = (len(template.patch_ea), len(template.patch_taken),
                          len(template.patch_target))
            for i in range(k):
                self.emit(template, eas[i * ne:(i + 1) * ne],
                          takens[i * nt:(i + 1) * nt],
                          targets[i * ng:(i + 1) * ng])
            return
        # Explicit, not delegated: a held handler must reach the inner
        # sink before the run does.
        self.flush()
        self._inner.emit_run(template, k, eas, takens, targets)

    def emit_cycles(self, cycles: int) -> None:
        self._inner.emit_cycles(cycles)

    # -- delegation ------------------------------------------------------
    @property
    def records(self) -> bool:
        return self._inner.records

    def trace(self):
        self.flush()
        return self._inner.trace()

    def __getattr__(self, name):
        return getattr(self._inner, name)
