"""JIT compiler: chunk generation, layout, spills, inlining, code cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.runner import run_vm
from repro.fuzz.gen import gen_program
from repro.fuzz.oracle import run_oracle
from repro.isa import ArrayType, Field, JClass, Method, Op, Program, \
    ProgramBuilder
from repro.isa.pool import MethodRef
from repro.native.layout import CODE_CACHE_BASE
from repro.native.nisa import NCat
from repro.native.template import _COLUMN_FIELDS
from repro.vm import JavaVM
from repro.vm.jit import compiler as jit_compiler
from repro.vm.jit.inline import is_inlinable

from helpers import eval_both_modes, expr_main, run_program


def _compile_main(body_fn):
    """Build a main with ``body_fn`` and compile it; returns CompiledMethod."""
    pb = expr_main(body_fn)
    program = pb.build()
    vm = JavaVM(program, "jit")
    vm.boot()
    main = program.entry_method
    return vm._compiled[main], vm


class TestChunkGeneration:
    def test_chunks_align_with_bytecode(self):
        compiled, _vm = _compile_main(lambda m: m.iconst(1) and None)
        assert len(compiled.chunks) == len(compiled.method.code)

    def test_chunks_contiguous_in_code_cache(self):
        compiled, _vm = _compile_main(
            lambda m: m.iconst(1).iconst(2).iadd() and None
        )
        pcs = []
        for chunk in compiled.chunks:
            if chunk is not None:
                pcs.extend(chunk.template.pc.tolist())
        assert pcs == sorted(pcs)
        assert all(pc >= CODE_CACHE_BASE for pc in pcs)
        assert compiled.entry_pc <= pcs[0] < compiled.end_pc

    def test_branch_targets_point_at_chunks(self):
        def body(m):
            out = m.new_label()
            m.iconst(1).istore(1)
            m.iload(1).ifeq(out)
            m.iinc(1, 5)
            m.bind(out)
            m.iload(1)
        compiled, _vm = _compile_main(body)
        # find the BRANCH instruction in the chunk stream
        branch_targets = []
        chunk_pcs = set()
        for chunk in compiled.chunks:
            if chunk is None:
                continue
            chunk_pcs.add(chunk.base_pc)
            t = chunk.template
            for i in range(t.n):
                if t.cat[i] == int(NCat.BRANCH) and t.target[i]:
                    branch_targets.append(int(t.target[i]))
        assert branch_targets
        assert all(t in chunk_pcs for t in branch_targets)

    def test_pop_and_nop_produce_no_code(self):
        def body(m):
            m.iconst(1).iconst(2).pop().nop()
        compiled, _vm = _compile_main(body)
        kinds = [c is None for c in compiled.chunks]
        # pop (index 2) and nop (index 3) generate nothing
        assert kinds[2] and kinds[3]

    def test_getstatic_address_baked(self):
        def body(m):
            m.getstatic("Test", "s")
        pb = expr_main(body)
        pb._class_builders[0].static_field("s", "int")
        program = pb.build()
        vm = JavaVM(program, "jit")
        vm.boot()
        compiled = vm._compiled[program.entry_method]
        loads = []
        for chunk in compiled.chunks:
            if chunk is None:
                continue
            t = chunk.template
            for i in range(t.n):
                if t.cat[i] == int(NCat.LOAD) and t.ea[i]:
                    loads.append(int(t.ea[i]))
        statics_addr = vm.loader.ensure_loaded("Test").static_addr["s"]
        assert statics_addr in loads

    def test_code_cache_accounting(self):
        compiled, vm = _compile_main(lambda m: m.iconst(1) and None)
        assert vm.code_cache.used_bytes >= compiled.code_bytes > 0
        assert vm.jit.methods_compiled >= 1
        assert vm.jit.native_instructions_emitted > 0


class TestDeepStacksAndSpills:
    def test_deep_operand_stack_semantics(self):
        # Push 20 constants (beyond the 12 stack registers), sum them.
        def body(m):
            for i in range(20):
                m.iconst(i)
            for _ in range(19):
                m.iadd()
        assert eval_both_modes(body) == sum(range(20))

    def test_many_locals_semantics(self):
        def body(m):
            for i in range(1, 14):
                m.iconst(i).istore(i)
            m.iconst(0)
            for i in range(1, 14):
                m.iload(i).iadd()
        assert eval_both_modes(body) == sum(range(1, 14))

    def test_spilled_chunks_are_frame_relative(self):
        def body(m):
            for i in range(20):
                m.iconst(i)
            for _ in range(19):
                m.iadd()
        compiled, _vm = _compile_main(body)
        assert any(c is not None and c.ea_plan is not None
                   for c in compiled.chunks)


class TestInlining:
    def _getter_program(self):
        pb = ProgramBuilder("t", main_class="Main")
        holder = pb.cls("Holder")
        holder.field("v", "int")
        holder.method("<init>").return_()
        get = holder.method("get", returns=True)
        get.aload(0).getfield("Holder", "v").ireturn()
        m = pb.cls("Main").method("main", static=True)
        m.new("Holder").dup()
        m.invokespecial("Holder", "<init>", 0)
        m.astore(1)
        m.aload(1).iconst(41).putfield("Holder", "v")
        m.aload(1).invokevirtual("Holder", "get", 0, True)
        m.iconst(1).iadd().istore(2)
        m.getstatic("java/lang/System", "out").iload(2)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        return pb

    def test_monomorphic_getter_inlined(self):
        result = run_program(self._getter_program(), "jit")
        assert result.stdout == ["42"]
        assert result.inlined_sites >= 1

    def test_inline_disabled_flag(self):
        program = self._getter_program().build()
        vm = JavaVM(program, "jit,inline=False")
        result = vm.run()
        assert result.stdout == ["42"]
        assert result.inlined_sites == 0

    def test_polymorphic_target_not_inlined(self):
        pb = ProgramBuilder("t", main_class="Main")
        base = pb.cls("B")
        base.method("<init>").return_()
        bm = base.method("f", returns=True)
        bm.iconst(1).ireturn()
        sub = pb.cls("S", super_name="B")
        sub.method("<init>").return_()
        sm = sub.method("f", returns=True)
        sm.iconst(2).ireturn()
        m = pb.cls("Main").method("main", static=True)
        m.new("S").dup().invokespecial("S", "<init>", 0)
        m.invokevirtual("B", "f", 0, True).istore(1)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        assert pb.build().unique_target("B", "f") is None
        result = run_program(pb, "jit")
        assert result.stdout == ["2"]

    def test_is_inlinable_filters(self):
        pb = ProgramBuilder("t", main_class="M")
        cb = pb.cls("M")
        tiny = cb.method("tiny", returns=True)
        tiny.iconst(1).ireturn()
        loopy = cb.method("loopy", returns=True)
        top = loopy.new_label()
        loopy.bind(top)
        loopy.iconst(1).ifne(top)
        loopy.iconst(0).ireturn()
        sync = cb.method("sync", returns=True, synchronized=True)
        sync.iconst(1).ireturn()
        cb.method("main", static=True).return_()
        program = pb.build()
        methods = program.get_class("M").methods
        assert is_inlinable(methods["tiny"])
        assert not is_inlinable(methods["loopy"])   # has a branch
        assert not is_inlinable(methods["sync"])    # synchronized


#: A superclass name no class of a generated forest declares.
_DANGLING = "Gone"


@st.composite
def _class_forests(draw):
    """2-8 classes whose ``super_name`` chains end at a root (None) or
    at a missing class, at least one chain dangling; each class declares
    random methods and fields, and the classes are added in a random
    order."""
    n = draw(st.integers(2, 8))
    names = [f"C{i}" for i in range(n)]
    dangling = draw(st.integers(0, n - 1))
    classes = []
    for i, name in enumerate(names):
        if i == dangling:
            sup = _DANGLING
        else:
            sup = draw(st.sampled_from([None, _DANGLING] + names[:i]))
        cls = JClass(name, sup)
        for m in draw(st.sets(st.sampled_from("fgh"))):
            cls.add_method(Method(m))
        for f in sorted(draw(st.sets(st.sampled_from("xy")))):
            cls.add_field(Field(f, is_static=draw(st.booleans())))
        classes.append(cls)
    program = Program("forest")
    for cls in draw(st.permutations(classes)):
        program.add_class(cls)
    loaded = draw(st.sets(st.sampled_from(names)))
    return program, {program.classes[c] for c in loaded}


class TestHierarchyQueries:
    """``Program``'s class-hierarchy queries against brute-force
    definitions over random class forests."""

    @staticmethod
    def _chain(program, name):
        out = []
        while name in program.classes:
            out.append(program.classes[name])
            name = program.classes[name].super_name
        return out

    @given(_class_forests())
    @settings(max_examples=150, deadline=None)
    def test_queries_match_brute_force(self, forest):
        program, loaded = forest
        chain = {name: self._chain(program, name) for name in program.classes}
        for name in [*program.classes, _DANGLING]:
            below = tuple(c for c in program.classes.values()
                          if name in (a.name for a in chain[c.name]))
            assert program.subclasses(name) == below
            for other in program.classes:
                assert program.is_subclass(other, name) == (
                    name in (a.name for a in chain[other]))
            for m in "fgh":
                def resolve(cname):
                    return next((a.methods[m] for a in chain.get(cname, ())
                                 if m in a.methods), None)
                assert program.resolve_method(name, m) is resolve(name)
                ref = MethodRef(name, m, 0, False)
                virtual = {resolve(c.name) for c in below} - {None}
                got = program.call_targets(Op.INVOKEVIRTUAL, ref)
                assert set(got or ()) == virtual
                assert got is None or len(got) == len(virtual)
                static = program.call_targets(Op.INVOKESTATIC, ref)
                assert static == ([resolve(name)] if resolve(name) else None)
                assert program.unique_target(name, m) is (
                    virtual.pop() if len(virtual) == 1 else None)
                seen = {resolve(c.name) for c in below if c in loaded} - {None}
                assert program.unique_target(name, m, loaded) is (
                    seen.pop() if len(seen) == 1 else None)
            for f in "xy":
                owner = next((a for a in chain.get(name, ())
                              if f in (d.name for d in a.fields)), None)
                assert program.field_owner(name, f) is owner

        # The analyses walk by name; the interpreter's linked walk stops
        # at a class whose chain dangles, since it cannot be linked.
        program.link()
        for cls in program.classes.values():
            for m in "fgh":
                found = program.resolve_method(cls.name, m)
                if cls.linked:
                    assert cls.find_method(m) is found
                else:
                    assert cls.find_method(m) is cls.methods.get(m)

        # add_class drops the subclass index.
        leaf = program.add_class(JClass("Leaf", "C0"))
        assert program.subclasses("C0")[-1] is leaf


class TestTranslateTrace:
    def test_translation_charged_to_trace(self):
        pb = expr_main(lambda m: m.iconst(1) and None)
        program = pb.build()
        vm = JavaVM(program, "jit,record=True")
        result = vm.run()
        assert result.translate_cycles > 0
        trace = result.trace
        xl = trace.select(trace.in_translate)
        assert xl.n > 0
        # install stores target the code cache
        installs = xl.select(xl.is_write)
        assert (installs.ea >= CODE_CACHE_BASE).sum() > 0

    def test_translate_cost_scales_with_method_size(self):
        small, _ = _compile_main(lambda m: m.iconst(1) and None)
        def big(m):
            for i in range(40):
                m.iconst(i)
            for _ in range(39):
                m.iadd()
        large, _ = _compile_main(big)
        assert large.translate_cycles > small.translate_cycles


class TestDeferredTemplates:
    """A compiled chunk's deferred template equals the eager template
    ``TemplateBuilder.build`` makes from the same protos, and a counting
    run never builds its columns."""

    @pytest.fixture
    def compiled_chunks(self, monkeypatch):
        """Every (chunk, eager template, eager plan) compiled while the
        fixture is active, the reference lowered at compile time."""
        monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
        seen = []
        deferred = jit_compiler.JITCompiler._materialize

        def spy(self, name, protos, base_pc, chunk_pcs):
            chunk = deferred(self, name, protos, base_pc, chunk_pcs)
            seen.append((chunk, *jit_compiler.lower(
                name, protos, base_pc, chunk_pcs)))
            return chunk

        monkeypatch.setattr(jit_compiler.JITCompiler, "_materialize", spy)
        return seen

    @staticmethod
    def _check(seen):
        assert seen
        assert sum(":prologue" in c.template.name for c, _, _ in seen)
        for i, (chunk, eager, plan) in enumerate(seen):
            t = chunk.template
            # A counting run reads only the eager scalars and the
            # histogram, which deferred templates give without columns.
            assert not t.materialized, t.name
            for attr in ("name", "n", "cycles", "translate", "base_pc",
                         "end_pc"):
                assert getattr(t, attr) == getattr(eager, attr), attr
            assert t.cat_counts.dtype == np.int64
            assert t.cat_counts.tolist() == eager.cat_counts.tolist()
            assert not t.materialized
            # Either first read builds both the columns and the plan.
            if i % 2:
                assert chunk.ea_plan == plan
            for field in _COLUMN_FIELDS:
                got, want = getattr(t, field), getattr(eager, field)
                assert got.dtype == want.dtype, field
                assert got.tolist() == want.tolist(), field
            assert t.materialized
            assert chunk.ea_plan == plan

    @pytest.mark.parametrize("config", [
        "jit", "jit,jit_opt=True",
        "tiered,t2_invocations=3,t2_backedges=32"])
    @pytest.mark.parametrize("workload", ["jess", "mtrt"])
    def test_workload_chunks(self, compiled_chunks, workload, config):
        run_vm(workload, "s0", config, cache_dir="", code_archive="")
        self._check(compiled_chunks)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_program_chunks(self, compiled_chunks, seed):
        verdict = run_oracle(gen_program(seed))
        assert all(o.ok for o in verdict.outcomes.values())
        self._check(compiled_chunks)

    def test_recording_emit_builds_columns(self, compiled_chunks):
        run_vm("jess", "s0", "jit,record=True", cache_dir="",
               code_archive="")
        emitted = [c for c, _, _ in compiled_chunks if c.template.materialized]
        assert emitted and len(emitted) < len(compiled_chunks)
