"""Native layer: layout, templates, trace recording."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.native.layout import (
    BYTECODE_BASE,
    CODE_CACHE_BASE,
    HEAP_BASE,
    INTERP_TEXT_BASE,
    NATIVE_INSTR_BYTES,
    thread_stack_base,
)


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

    def test_grows_past_initial_capacity(self):
        sink = RecordingSink(initial_capacity=4)
        t = _simple_template()
        for _ in range(100):
            sink.emit(t, (1,), (False,), (2,))
        assert len(sink) == 300

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
        # A small pool of templates; each instruction may carry
        # FLAG_TRANSLATE (only the first one decides), and a template
        # may be empty.
        rows = st.tuples(st.sampled_from(list(NCat)),
                         st.sampled_from([0, FLAG_TRANSLATE]))
        pool = []
        for spec in data.draw(st.lists(st.lists(rows, max_size=5),
                                       min_size=1, max_size=6)):
            b = TemplateBuilder(f"t{len(pool)}")
            for cat, flags in spec:
                b.instr(cat, ea=0x40, flags=flags)
            pool.append(b.build(base_pc=0x1000 * (len(pool) + 1)))
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

    def test_translate_cycles_tracked_by_flag(self):
        b = TemplateBuilder("x", base_flags=FLAG_TRANSLATE)
        b.ialu(n=2)
        t = b.build(base_pc=0)
        sink = CountingSink()
        sink.emit(t)
        assert sink.translate_cycles == t.cycles
        sink.emit(_simple_template(), (1,), (True,), (2,))
        assert sink.translate_cycles == t.cycles  # unflagged not counted


class TestTrace:
    def test_roundtrip_save_load(self, tmp_path):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        path = str(tmp_path / "t.npz")
        tr.save(path)
        tr2 = Trace.load(path)
        assert tr2.n == tr.n
        assert (tr2.pc == tr.pc).all()
        assert (tr2.flags == tr.flags).all()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Trace.load(str(tmp_path / "nope.npz"))

    def test_select_and_views(self):
        sink = RecordingSink()
        sink.emit(_simple_template(), (0x99,), (True,), (0x123,))
        tr = sink.trace()
        mem = tr.select(tr.is_memory)
        assert mem.n == 2
        assert int(tr.is_write.sum()) == 1
        assert int(tr.is_transfer.sum()) == 1

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
