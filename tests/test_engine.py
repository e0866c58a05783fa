"""VM engine: results, footprint, GC under the VM, compile policies."""

import pytest

from repro.isa import ArrayType, ProgramBuilder
from repro.vm import JavaVM, RunConfig

from helpers import expr_main, run_program


class TestVMResult:
    def test_result_fields_consistent(self):
        result = run_program(expr_main(lambda m: m.iconst(1) and None),
                             "jit")
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.execute_cycles == result.cycles - result.translate_cycles
        assert result.bytecodes_executed > 0
        assert result.classes_loaded > 0
        assert int(result.category_counts.sum()) == result.instructions

    def test_trace_none_without_recording(self):
        result = run_program(expr_main(lambda m: m.iconst(1) and None))
        assert result.trace is None

    def test_trace_matches_counts_when_recording(self):
        result = run_program(expr_main(lambda m: m.iconst(1) and None),
                             "interp,record=True")
        assert result.trace.n == result.instructions
        assert result.trace.base_cycles() == result.cycles

    def test_counting_and_recording_agree(self):
        pb = expr_main(lambda m: m.iconst(5).iconst(6).imul() and None)
        counted = run_program(pb, "jit")
        pb2 = expr_main(lambda m: m.iconst(5).iconst(6).imul() and None)
        recorded = run_program(pb2, "jit,record=True")
        assert counted.cycles == recorded.cycles
        assert counted.instructions == recorded.instructions


class TestFootprint:
    def test_components_positive(self):
        result = run_program(expr_main(lambda m: m.iconst(1) and None),
                             "jit")
        fp = result.footprint
        for key in ("vm_metadata", "bytecode", "heap_peak", "stacks",
                    "interp_text", "code_cache"):
            assert fp[key] > 0, key
        assert fp["jit_total"] > fp["interpreter_total"]

    def test_interp_mode_has_no_code_cache(self):
        result = run_program(expr_main(lambda m: m.iconst(1) and None),
                             "interp")
        assert result.footprint["code_cache"] == 0
        assert result.methods_compiled == 0


class TestGCUnderVM:
    def _alloc_loop(self, n):
        def body(m):
            loop = m.new_label()
            done = m.new_label()
            m.iconst(0).istore(1)
            m.bind(loop)
            m.iload(1).iconst(n).if_icmpge(done)
            # allocate garbage each iteration
            m.iconst(64).newarray(ArrayType.INT).pop()
            m.iinc(1, 1)
            m.goto(loop)
            m.bind(done)
            m.iload(1)
        return expr_main(body)

    def test_collector_reclaims_garbage(self):
        program = self._alloc_loop(500).build()
        vm = JavaVM(program, RunConfig(threshold=None, heap_limit=64 << 10))
        result = vm.run()
        assert result.stdout == ["500"]
        assert result.heap["gc_count"] >= 1
        assert result.heap["gc_freed_bytes"] > 0

    def test_live_data_survives_collection(self):
        def body(m):
            loop = m.new_label()
            done = m.new_label()
            m.iconst(32).newarray(ArrayType.INT).astore(2)   # keep alive
            m.aload(2).iconst(0).iconst(777).iastore()
            m.iconst(0).istore(1)
            m.bind(loop)
            m.iload(1).iconst(400).if_icmpge(done)
            m.iconst(64).newarray(ArrayType.INT).pop()
            m.iinc(1, 1)
            m.goto(loop)
            m.bind(done)
            m.aload(2).iconst(0).iaload()
        program = expr_main(body).build()
        vm = JavaVM(program, RunConfig(threshold=None, heap_limit=64 << 10))
        result = vm.run()
        assert result.stdout == ["777"]
        assert result.heap["gc_count"] >= 1

    def test_gc_consistent_across_modes(self):
        outs = []
        for threshold in (None, 1):
            vm = JavaVM(self._alloc_loop(300).build(),
                        RunConfig(threshold=threshold, heap_limit=64 << 10))
            outs.append(vm.run().stdout)
        assert outs[0] == outs[1]


class TestStrategies:
    def _counting_program(self):
        pb = ProgramBuilder("t", main_class="Main")
        cb = pb.cls("Main")
        f = cb.method("f", argc=1, returns=True, static=True)
        f.iload(0).iconst(1).iadd().ireturn()
        m = cb.method("main", static=True)
        m.iconst(0).istore(1)
        for _ in range(10):
            m.iload(1).invokestatic("Main", "f", 1, True).istore(1)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        return pb.build()

    def test_counter_threshold_compiles_later(self):
        vm = JavaVM(self._counting_program(), "counter5")
        result = vm.run()
        assert result.stdout == ["10"]
        prof = result.profiles["Main.f"]
        # interpreted 4 times, compiled from the 5th invocation
        assert prof["interp_cycles"] > 0
        assert prof["translate_cycles"] > 0

    def test_oracle_strategy_honours_set(self):
        vm = JavaVM(self._counting_program(),
                    RunConfig(policy="oracle", compile_set={"Main.f"}))
        result = vm.run()
        prof = result.profiles["Main.f"]
        assert prof["translate_cycles"] > 0
        main_prof = result.profiles["Main.main"]
        assert main_prof["translate_cycles"] == 0
        assert main_prof["interp_cycles"] > 0

    def test_methods_compiled_once(self):
        vm = JavaVM(self._counting_program(), "jit")
        result = vm.run()
        assert result.methods_compiled == len(
            {k for k, p in result.profiles.items()
             if p["translate_cycles"] > 0}
        )


class TestBootErrors:
    def test_main_must_be_static(self):
        from repro.vm import VMError
        pb = ProgramBuilder("t", main_class="Main")
        pb.cls("Main").method("main").return_()
        vm = JavaVM(pb.build())
        with pytest.raises(VMError, match="static"):
            vm.run()

    def test_missing_main_class(self):
        from repro.vm.classloader import ClassLoadError
        pb = ProgramBuilder("t", main_class="Nope")
        pb.cls("Main").method("main", static=True).return_()
        vm = JavaVM(pb.build())
        with pytest.raises(ClassLoadError):
            vm.run()

    def test_stdout_captured_in_order(self):
        def body(m):
            for text in ("one", "two", "three"):
                m.getstatic("java/lang/System", "out")
                m.ldc_str(text)
                m.invokevirtual("java/io/PrintStream", "println", 1, False)
            m.iconst(0)
        result = run_program(expr_main(body))
        assert result.stdout == ["one", "two", "three", "0"]
