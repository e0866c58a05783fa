"""Native layer: layout, templates, trace recording."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opcodes import OPINFO, Op
from repro.native import (
    CYCLES_BY_CAT,
    CountingSink,
    FLAG_TAKEN,
    FLAG_TRANSLATE,
    FLAG_WRITE,
    NCat,
    PATCH,
    RecordingSink,
    Template,
    TemplateBuilder,
    TextRegion,
    Trace,
    concat_templates,
    mix_bucket,
    region_name,
)
from repro.native import trace as trace_module
from repro.native.layout import (
    BYTECODE_BASE,
    CODE_CACHE_BASE,
    HEAP_BASE,
    INTERP_TEXT_BASE,
    NATIVE_INSTR_BYTES,
    thread_stack_base,
)
from repro.native.nisa import MEMORY_CATS, N_CATEGORIES, TRANSFER_CATS
from repro.native.trace import _COLUMNS as TRACE_COLUMNS
from repro.native.trace import _DTYPES as TRACE_DTYPES
from repro.vm.folding import _FOLDABLE_KINDS, FoldingSink
from repro.vm.interp_templates import _DISPATCH_LEN


class TestLayout:
    def test_regions_disjoint(self):
        names = {
            region_name(a)
            for a in (INTERP_TEXT_BASE, CODE_CACHE_BASE, BYTECODE_BASE,
                      HEAP_BASE)
        }
        assert len(names) == 4

    def test_region_name_unmapped(self):
        assert region_name(0x10) == "unmapped"

    def test_thread_stacks_disjoint(self):
        assert thread_stack_base(1) - thread_stack_base(0) >= 0x10000

    def test_text_region_alloc_sequential(self):
        r = TextRegion(0x1000, 0x100, "t")
        a = r.alloc(4)
        b = r.alloc(2)
        assert b == a + 4 * NATIVE_INSTR_BYTES
        assert r.used_bytes == 24

    def test_text_region_exhaustion(self):
        r = TextRegion(0x1000, 16, "t")
        with pytest.raises(MemoryError):
            r.alloc(5)

    def test_text_region_negative(self):
        r = TextRegion(0x1000, 16, "t")
        with pytest.raises(ValueError):
            r.alloc(-1)


class TestTemplateBuilder:
    def test_pcs_sequential(self):
        b = TemplateBuilder("t")
        b.ialu(n=3)
        t = b.build(base_pc=0x100)
        assert list(t.pc) == [0x100, 0x104, 0x108]

    def test_patch_slots_recorded_in_order(self):
        b = TemplateBuilder("t")
        b.load(ea=PATCH)
        b.ialu()
        b.store(ea=PATCH)
        t = b.build(base_pc=0)
        assert list(t.patch_ea) == [0, 2]

    def test_static_ea_not_patched(self):
        b = TemplateBuilder("t")
        b.load(ea=0x1234)
        t = b.build(base_pc=0)
        assert len(t.patch_ea) == 0
        assert t.ea[0] == 0x1234

    def test_store_gets_write_flag(self):
        b = TemplateBuilder("t")
        b.store(ea=0x10)
        t = b.build(base_pc=0)
        assert t.flags[0] & FLAG_WRITE

    def test_unconditional_transfers_taken(self):
        b = TemplateBuilder("t")
        b.instr(NCat.JUMP, target=0x50)
        b.instr(NCat.RET, target=0x60)
        t = b.build(base_pc=0)
        assert all(t.flags & FLAG_TAKEN)

    def test_conditional_branch_not_taken_by_default(self):
        b = TemplateBuilder("t")
        b.instr(NCat.BRANCH, target=0x50)
        t = b.build(base_pc=0)
        assert not (t.flags[0] & FLAG_TAKEN)

    def test_relative_target_resolution(self):
        b = TemplateBuilder("t")
        b.ialu()
        b.instr(NCat.BRANCH, target=b.rel(2))
        t = b.build(base_pc=0x100)
        assert t.target[1] == 0x104 + 8

    def test_base_flags_applied_everywhere(self):
        b = TemplateBuilder("t", base_flags=FLAG_TRANSLATE)
        b.ialu(n=2)
        t = b.build(base_pc=0)
        assert all(t.flags & FLAG_TRANSLATE)

    def test_cycles_match_cost_model(self):
        b = TemplateBuilder("t")
        b.instr(NCat.IDIV)
        b.ialu()
        t = b.build(base_pc=0)
        assert t.cycles == int(CYCLES_BY_CAT[NCat.IDIV] + CYCLES_BY_CAT[NCat.IALU])

    def test_requires_region_or_pc(self):
        with pytest.raises(ValueError):
            TemplateBuilder("t").ialu().build()

    def test_cat_counts(self):
        b = TemplateBuilder("t")
        b.ialu(n=3)
        b.load(ea=0)
        t = b.build(base_pc=0)
        assert t.cat_counts[NCat.IALU] == 3
        assert t.cat_counts[NCat.LOAD] == 1


class TestConcat:
    def test_concat_rebases_patches(self):
        b1 = TemplateBuilder("a")
        b1.load(ea=PATCH)
        t1 = b1.build(base_pc=0)
        b2 = TemplateBuilder("b")
        b2.ialu()
        b2.store(ea=PATCH)
        t2 = b2.build(base_pc=0x100)
        t = concat_templates("ab", [t1, t2])
        assert list(t.patch_ea) == [0, 2]
        assert t.n == 3

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat_templates("x", [])


def _simple_template():
    b = TemplateBuilder("t")
    b.load(dst=5, ea=PATCH)
    b.instr(NCat.BRANCH, src1=5, taken=PATCH, target=PATCH)
    b.store(src1=5, ea=0xAA)
    return b.build(base_pc=0x40)


class TestRecordingSink:
    def test_records_and_patches(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        assert tr.n == 3
        assert tr.ea[0] == 0x99
        assert tr.flags[1] & FLAG_TAKEN
        assert tr.target[1] == 0x123
        assert tr.ea[2] == 0xAA

    def test_taken_false_patch(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (False,), (0x123,))
        tr = sink.trace()
        assert not (tr.flags[1] & FLAG_TAKEN)

    def test_long_sequence_patches_each_emission(self, monkeypatch):
        # Pack the patch values several times along the sequence.
        monkeypatch.setattr(trace_module, "_PACK_VALUES", 16)
        sink = RecordingSink()
        t = _simple_template()
        for k in range(100):
            sink.emit(t, (0x1000 + k,), (k % 2 == 0,), (0x2000 + k,))
        assert len(sink) == 300
        tr = sink.trace()
        k = np.arange(100)
        assert tr.ea[3 * k].tolist() == (0x1000 + k).tolist()
        assert tr.target[3 * k + 1].tolist() == (0x2000 + k).tolist()
        assert ((tr.flags[3 * k + 1] & FLAG_TAKEN) != 0).tolist() == (
            (k % 2 == 0).tolist())
        assert (tr.ea[3 * k + 2] == 0xAA).all()

    @pytest.mark.parametrize("field", ["ea", "taken", "target"])
    def test_patch_count_mismatch_raises_at_freeze(self, field):
        patches = {"ea": (0x99,), "taken": (True,), "target": (0x123,)}
        sink = RecordingSink()
        t = _simple_template()
        sink.emit(t, patches["ea"], patches["taken"], patches["target"])
        short = dict(patches, **{field: ()})
        sink.emit(t, short["ea"], short["taken"], short["target"])
        sink.emit(t, patches["ea"], patches["taken"], patches["target"])
        with pytest.raises(ValueError, match=f"^{field}: 2 patch values "
                                             f"logged for 3 patch rows"):
            sink.trace()

    def test_numpy_patch_values(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), np.array([0x99]), np.array([True]),
                  np.array([0x123]))
        tr = sink.trace()
        assert tr.ea[0] == 0x99 and tr.target[1] == 0x123
        assert tr.flags[1] & FLAG_TAKEN

    def test_late_folded_tally_freezes_to_the_same_bytes(self):
        """Templates are numbered by first appearance in the log, so a
        producer that logs its runs through ``appenders`` and folds its
        template counts in later, in another order, freezes to the same
        stored bytes as the same emissions made one ``emit`` at a time."""
        a = _simple_template()
        b = TemplateBuilder("u")
        b.store(src1=1, ea=PATCH)
        b = b.build(base_pc=0x80)
        one_by_one = RecordingSink()
        one_by_one.emit(a, (1,), (True,), (2,))
        one_by_one.emit(b, (3,))
        one_by_one.emit(a, (4,), (False,), (5,))
        late = RecordingSink()
        log, eas, takens, targets, _ = late.appenders()
        log.extend((a, b, a))
        eas.extend((1, 3, 4))
        takens.extend((True, False))
        targets.extend((2, 5))
        late.cycles += 2 * a.cycles + b.cycles

        def fold():
            late.tally[b] = late.tally.get(b, 0) + 1
            late.tally[a] = late.tally.get(a, 0) + 2
            late.deferred.clear()
        late.deferred.append(fold)
        assert list(late.emits) == [b, a]
        assert (late.trace().log.to_bytes()
                == one_by_one.trace().log.to_bytes())
        assert late.cycles == one_by_one.cycles

    def test_counting_totals_match(self):
        t = _simple_template()
        c = CountingSink()
        r = RecordingSink()
        for _ in range(7):
            c.emit(t, (1,), (True,), (2,))
            r.emit(t, (1,), (True,), (2,))
        assert c.cycles == r.cycles == 7 * t.cycles
        assert c.instructions == r.instructions == 21
        assert (c.cat_counts == r.cat_counts).all()

    @pytest.mark.parametrize("sink_cls", [CountingSink, RecordingSink])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_derived_totals_match_eager_reference(self, sink_cls, data):
        """The totals a sink derives from its per-template emission
        counts equal a reference that sums eagerly on every emit, at
        every point of a random emit / emit_cycles sequence."""
        pool = _draw_pool(data)
        ops = data.draw(st.lists(
            st.one_of(st.integers(0, len(pool) - 1),
                      st.tuples(st.just("cycles"), st.integers(0, 500))),
            max_size=40))

        sink = sink_cls()
        cycles = instructions = translate = 0
        cats = np.zeros(len(NCat), dtype=np.int64)
        for op in ops:
            if isinstance(op, tuple):
                sink.emit_cycles(op[1])
                cycles += op[1]
            else:
                t = pool[op]
                sink.emit(t)
                cost = int(CYCLES_BY_CAT[t.cat].sum())
                cycles += cost
                instructions += t.n
                cats += np.bincount(t.cat, minlength=len(NCat))
                if t.n and t.flags[0] & FLAG_TRANSLATE:
                    translate += cost
            assert sink.cycles == cycles
            assert sink.instructions == instructions
            assert sink.translate_cycles == translate
            assert sink.cat_counts.tolist() == cats.tolist()
        if sink.records:
            trace = sink.trace()
            assert trace.n == instructions
            assert trace.category_counts().tolist() == cats.tolist()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_totals_equal_per_template_sums(self, data):
        """``cat_counts``, ``instructions`` and ``translate_cycles`` of
        any ``emits`` dict equal a loop over each template's rows, and
        ``emit_counts`` of it equals one ``emit_run`` per template."""
        pool = _draw_pool(data)
        emits = data.draw(st.dictionaries(st.sampled_from(pool),
                                          st.integers(1, 2**40)))
        cats = [0] * N_CATEGORIES
        instructions = translate = cycles = 0
        for t, k in emits.items():
            for cat in t.cat.tolist():
                cats[cat] += k
            cost = int(CYCLES_BY_CAT[t.cat].sum())
            instructions += t.n * k
            cycles += cost * k
            if t.n and t.flags[0] & FLAG_TRANSLATE:
                translate += cost * k
        sink = CountingSink()
        sink.emits = dict(emits)
        got = sink.cat_counts
        assert got.dtype == np.int64 and got.shape == (N_CATEGORIES,)
        assert got.tolist() == cats
        assert sink.instructions == instructions
        assert sink.translate_cycles == translate

        ran, counted = CountingSink(), CountingSink()
        for t, k in emits.items():
            ran.emit_run(t, k)
        counted.emit_counts(emits, cycles)
        assert counted.cycles == ran.cycles == cycles
        assert counted.emits == ran.emits == emits

    def test_empty_totals_are_int64_zeros(self):
        got = CountingSink().cat_counts
        assert got.dtype == np.int64
        assert got.tolist() == [0] * N_CATEGORIES

    def test_translate_cycles_tracked_by_flag(self):
        b = TemplateBuilder("x", base_flags=FLAG_TRANSLATE)
        b.ialu(n=2)
        t = b.build(base_pc=0)
        sink = CountingSink()
        sink.emit(t)
        assert sink.translate_cycles == t.cycles
        sink.emit(_simple_template(), (1,), (True,), (2,))
        assert sink.translate_cycles == t.cycles  # unflagged not counted


class _EagerRecordingSink(CountingSink):
    """Reference recorder: writes every emission into numpy columns at
    once, with slice writes plus fancy-indexed patch writes into
    doubling buffers."""

    records = True

    def __init__(self) -> None:
        super().__init__()
        self._cap = 16
        self._n = 0
        self._cols = {c: np.zeros(self._cap, dtype=TRACE_DTYPES[c])
                      for c in TRACE_COLUMNS}

    def _ensure(self, extra):
        need = self._n + extra
        if need <= self._cap:
            return
        while self._cap < need:
            self._cap *= 2
        for c in TRACE_COLUMNS:
            grown = np.zeros(self._cap, dtype=TRACE_DTYPES[c])
            grown[: self._n] = self._cols[c][: self._n]
            self._cols[c] = grown

    def emit(self, template, eas=(), takens=(), targets=()):
        super().emit(template, eas, takens, targets)
        n = template.n
        if n == 0:
            return
        self._ensure(n)
        s, cols = self._n, self._cols
        for c in TRACE_COLUMNS:
            cols[c][s : s + n] = getattr(template, c)
        if len(template.patch_ea):
            cols["ea"][s + template.patch_ea] = eas
        if len(template.patch_taken):
            rows = s + template.patch_taken
            bits = np.asarray(takens, dtype=np.int16) * FLAG_TAKEN
            cols["flags"][rows] = (cols["flags"][rows] & ~FLAG_TAKEN) | bits
        if len(template.patch_target):
            cols["target"][s + template.patch_target] = targets
        self._n += n

    def trace(self):
        return Trace(**{c: self._cols[c][: self._n].copy()
                        for c in TRACE_COLUMNS})


_FOLDABLE_OPS = [op for op in Op if OPINFO[op].kind in _FOLDABLE_KINDS]

#: One random instruction: category, and whether ea / taken / target is
#: a PATCH slot (else a fixed value).
_ROWS = st.tuples(
    st.sampled_from(list(NCat)),
    st.one_of(st.just(PATCH), st.none(), st.integers(0, 2**40)),
    st.one_of(st.just(PATCH), st.none(), st.booleans()),
    st.one_of(st.just(PATCH), st.none(), st.integers(0, 2**40)),
    st.sampled_from([0, FLAG_TRANSLATE]),
)


def _draw_pool(data):
    """A small pool of templates; each instruction may carry
    FLAG_TRANSLATE (only the first one decides), and a template may be
    empty."""
    rows = st.tuples(st.sampled_from(list(NCat)),
                     st.sampled_from([0, FLAG_TRANSLATE]))
    pool = []
    for spec in data.draw(st.lists(st.lists(rows, max_size=5),
                                   min_size=1, max_size=6)):
        b = TemplateBuilder(f"t{len(pool)}")
        for cat, flags in spec:
            b.instr(cat, ea=0x40, flags=flags)
        pool.append(b.build(base_pc=0x1000 * (len(pool) + 1)))
    return pool


def _build(name, rows, base_pc, handler=False):
    """A template from drawn rows.  ``handler`` wraps them the way an
    interpreter handler is shaped, so a FoldingSink can fold it: a
    dispatch block whose only patch is its first-row ea, the rows, and
    a final back-jump."""
    b = TemplateBuilder(name)
    if handler:
        b.load(dst=1, ea=PATCH)
        b.ialu(dst=2, src1=1, n=_DISPATCH_LEN - 2)
        b.instr(NCat.IJUMP, src1=2,
                target=base_pc + NATIVE_INSTR_BYTES * _DISPATCH_LEN)
    for k, (cat, ea, taken, target, flags) in enumerate(rows):
        b.instr(cat, dst=k % 7, src1=k % 5, ea=ea, taken=taken,
                target=target, flags=flags)
    if handler:
        b.instr(NCat.JUMP, target=base_pc)
    return b.build(base_pc=base_pc)


def _split(template, k, eas, takens, targets):
    """The ``k`` single emissions a run stands for."""
    sizes = (len(template.patch_ea), len(template.patch_taken),
             len(template.patch_target))
    return [tuple(values[i * n:(i + 1) * n]
                  for values, n in zip((eas, takens, targets), sizes))
            for i in range(k)]


def _totals(sink):
    return (sink.cycles, sink.instructions, sink.translate_cycles,
            sink.cat_counts.dtype, sink.cat_counts.tolist())


class TestTemplateLogEquivalence:
    """The template-log recorder yields the same trace, column for
    column and dtype for dtype, as eager per-emission slice writes,
    whatever the number of patch values it packs at a time.  A run
    (``emit_run`` of ``k`` emissions) equals ``k`` single emits on
    every sink, including through a folding sink."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_template_log_matches_eager_writes(self, data):
        specs = data.draw(st.lists(
            st.tuples(st.booleans(), st.lists(_ROWS, max_size=6)),
            min_size=1, max_size=6))
        pool, handlers = [], {}
        for i, (handler, rows) in enumerate(specs):
            t = _build(f"t{i}", rows, 0x10000 * (i + 1), handler)
            if handler:
                handlers[_FOLDABLE_OPS[i]] = t
            pool.append(t)
        # Alias some templates at extra pool slots: repeated templates.
        pool += [pool[i] for i in data.draw(st.lists(
            st.integers(0, len(pool) - 1), max_size=3))]
        def values(strategy, rows, k=1):
            n = len(rows) * k
            return tuple(data.draw(st.lists(strategy, min_size=n,
                                            max_size=n)))

        # ``k`` None is a single ``emit``; an int is an ``emit_run``.
        emissions = [
            (t, k, values(st.integers(0, 2**40), t.patch_ea, k or 1),
             values(st.booleans(), t.patch_taken, k or 1),
             values(st.integers(0, 2**40), t.patch_target, k or 1))
            for t, k in data.draw(st.lists(
                st.tuples(st.sampled_from(pool),
                          st.one_of(st.none(), st.integers(0, 4))),
                max_size=40))
        ]
        pack = data.draw(st.sampled_from([0, 1, 5, trace_module._PACK_VALUES]))

        templates = SimpleNamespace(tpl=handlers)
        for wrap in (lambda sink: sink,
                     lambda sink: FoldingSink(sink, templates)):
            log, eager = wrap(RecordingSink()), wrap(_EagerRecordingSink())
            count, count_ref = wrap(CountingSink()), wrap(CountingSink())
            with mock.patch.object(trace_module, "_PACK_VALUES", pack):
                for t, k, *patches in emissions:
                    singles = [patches] if k is None else _split(t, k, *patches)
                    for sink in (eager, count_ref):
                        for single in singles:
                            sink.emit(t, *single)
                    for sink in (log, count):
                        if k is None:
                            sink.emit(t, *patches)
                        else:
                            sink.emit_run(t, k, *patches)
                got, want = log.trace(), eager.trace()
            assert got.n == want.n == log.instructions
            for c in TRACE_COLUMNS:
                assert getattr(got, c).dtype == getattr(want, c).dtype, c
                assert getattr(got, c).tolist() == getattr(want, c).tolist(), c
            for sink in (count, count_ref):
                getattr(sink, "flush", lambda: None)()
            assert _totals(log) == _totals(eager)
            assert _totals(count) == _totals(count_ref) == _totals(eager)

    @pytest.mark.parametrize("sink_cls", [CountingSink, RecordingSink])
    def test_folding_run_flushes_held_handler_first(self, sink_cls):
        """A handler held by the folding sink reaches the inner sink
        before a run that follows it, as it would before ``k`` emits."""
        handler = _build("h", [(NCat.IALU, None, None, None, 0)], 0x10000,
                         handler=True)
        body = _build("b", [(NCat.STORE, PATCH, None, None, 0)], 0x20000)
        templates = SimpleNamespace(tpl={_FOLDABLE_OPS[0]: handler})
        run, singles = (FoldingSink(sink_cls(), templates) for _ in "ab")
        for sink in (run, singles):
            sink.emit(handler, (0x40,))
        run.emit_run(body, 3, (1, 2, 3))
        for ea in (1, 2, 3):
            singles.emit(body, (ea,))
        assert list(run._inner.emits) == list(singles._inner.emits) == [
            handler, body]
        assert _totals(run._inner) == _totals(singles._inner)
        if sink_cls.records:
            got, want = run.trace(), singles.trace()
            for c in TRACE_COLUMNS:
                assert getattr(got, c).tolist() == getattr(want, c).tolist(), c


class TestTrace:
    def test_roundtrip_save_load(self, tmp_path):
        from repro.analysis.cache import load_trace, store_trace
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        path = str(tmp_path / "traces" / "t.npy")
        store_trace(path, tr)
        tr2 = load_trace(path)
        assert tr2.n == tr.n
        assert (tr2.pc == tr.pc).all()
        assert (tr2.flags == tr.flags).all()

    def test_load_missing_is_a_miss(self, tmp_path):
        from repro.analysis import cache
        cache.reset_stats()
        assert cache.load_trace(str(tmp_path / "traces" / "nope.npy")) is None
        assert cache.STATS.trace_misses == 1
        assert cache.STATS.corrupt == 0

    def test_select_and_views(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        mem = tr.select(tr.is_memory)
        assert mem.n == 2
        assert int(tr.is_write.sum()) == 1
        assert int(tr.is_transfer.sum()) == 1

    def test_category_masks_match_isin(self):
        """``is_memory``/``is_transfer`` compare the category column
        directly; they equal ``np.isin`` for every category value."""
        cats = np.arange(N_CATEGORIES, dtype=np.int16).repeat(3)
        zeros = np.zeros(len(cats), dtype=np.int64)
        tr = Trace.from_columns(pc=zeros, cat=cats, ea=zeros, flags=zeros,
                                target=zeros, dst=zeros, src1=zeros,
                                src2=zeros)
        for mask, cats_of in ((tr.is_memory, MEMORY_CATS),
                              (tr.is_transfer, TRANSFER_CATS)):
            assert mask.dtype == bool
            assert mask.tolist() == np.isin(cats, list(cats_of)).tolist()

    def test_concatenate(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (1,), (True,), (2,))
        a = sink.trace()
        combined = Trace.concatenate([a, a, a])
        assert combined.n == 3 * a.n

    def test_concatenate_empty(self):
        assert Trace.concatenate([]).n == 0

    def test_mismatched_columns_raise(self):
        with pytest.raises(ValueError):
            Trace(
                pc=np.zeros(2, np.int64), cat=np.zeros(1, np.int16),
                ea=np.zeros(2, np.int64), flags=np.zeros(2, np.int16),
                target=np.zeros(2, np.int64), dst=np.zeros(2, np.int16),
                src1=np.zeros(2, np.int16), src2=np.zeros(2, np.int16),
            )

    def test_base_cycles(self):
        sink = RecordingSink()
        t = _simple_template()
        sink.emit(t, (1,), (True,), (2,))
        assert sink.trace().base_cycles() == t.cycles


class TestMixBuckets:
    @pytest.mark.parametrize("cat,bucket", [
        (NCat.LOAD, "load"), (NCat.STORE, "store"), (NCat.BRANCH, "branch"),
        (NCat.CALL, "call"), (NCat.ICALL, "call"), (NCat.IJUMP, "ijump"),
        (NCat.JUMP, "jump"), (NCat.RET, "ret"), (NCat.FALU, "fpu"),
        (NCat.IALU, "ialu"), (NCat.IMUL, "ialu"), (NCat.NOP, "nop"),
    ])
    def test_bucket(self, cat, bucket):
        assert mix_bucket(cat) == bucket
