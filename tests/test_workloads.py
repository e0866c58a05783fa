"""Workloads: registry, determinism, mode equivalence, characteristics."""

import pytest

from repro.vm import JavaVM
from repro.workloads import SPEC_BENCHMARKS, all_workloads, get_workload

ALL = sorted(all_workloads())


class TestRegistry:
    def test_all_spec_benchmarks_present(self):
        for name in SPEC_BENCHMARKS:
            assert name in all_workloads()
        assert "hello" in all_workloads()

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("quake")

    def test_bad_scale_raises(self):
        with pytest.raises(ValueError, match="scale"):
            get_workload("hello").build("s99")

    def test_builds_are_fresh_programs(self):
        w = get_workload("db")
        assert w.build("s0") is not w.build("s0")

    def test_mtrt_flagged_multithreaded(self):
        assert get_workload("mtrt").multithreaded
        assert not get_workload("compress").multithreaded


@pytest.mark.parametrize("name", ALL)
class TestEveryWorkload:
    def test_verifies_and_runs_interp(self, name):
        program = get_workload(name).build("s0")
        result = JavaVM(program, "interp").run()
        assert result.stdout, f"{name} produced no output"
        assert result.bytecodes_executed > 0

    def test_modes_agree(self, name):
        w = get_workload(name)
        interp = JavaVM(w.build("s0"), "interp").run()
        jit = JavaVM(w.build("s0"), "jit").run()
        assert interp.stdout == jit.stdout

    def test_deterministic(self, name):
        w = get_workload(name)
        a = JavaVM(w.build("s0"), "interp").run()
        b = JavaVM(w.build("s0"), "interp").run()
        assert a.stdout == b.stdout
        assert a.cycles == b.cycles
        assert a.bytecodes_executed == b.bytecodes_executed

    def test_scales_increase_work(self, name):
        if name == "hello":
            pytest.skip("hello has no scale knob")
        w = get_workload(name)
        small = JavaVM(w.build("s0"), "interp").run()
        big = JavaVM(w.build("s1"), "interp").run()
        assert big.bytecodes_executed > small.bytecodes_executed


class TestCharacteristics:
    """Each benchmark's architectural personality (the paper's Table/Fig
    commentary), asserted at s0 so the suite stays fast."""

    def _run(self, name, mode="jit", scale="s0"):
        return JavaVM(get_workload(name).build(scale), mode).run()

    def test_jit_beats_interpreter_on_hot_code(self):
        for name in ("compress", "mpegaudio", "mtrt"):
            interp = self._run(name, "interp")
            jit = self._run(name, "jit")
            assert interp.cycles > 2 * jit.cycles, name

    def test_translate_share_ordering(self):
        """hello/db translate-heavy; compress/jack execution-heavy."""
        shares = {}
        for name in ("hello", "db", "compress", "jack"):
            r = self._run(name, "jit", scale="s1")
            shares[name] = r.translate_cycles / r.cycles
        assert shares["hello"] > shares["compress"]
        assert shares["db"] > shares["compress"]
        assert shares["db"] > shares["jack"]

    def test_mtrt_uses_two_worker_threads(self):
        program = get_workload("mtrt").build("s0")
        vm = JavaVM(program, "interp")
        vm.run()
        workers = [t for t in vm.threads if t.name == "spec/RenderThread"]
        assert len(workers) == 2
        assert all(not t.is_alive for t in workers)

    def test_jack_is_sync_heaviest(self):
        ops = {
            name: self._run(name, "jit", "s1").sync["acquire_ops"]
            for name in ("jack", "compress", "mpegaudio")
        }
        assert ops["jack"] > 10 * ops["compress"]
        assert ops["jack"] > 10 * ops["mpegaudio"]

    def test_compress_has_high_method_reuse(self):
        r = self._run("compress", "jit", "s1")
        profiles = r.profiles
        find = profiles.get("spec/Compressor.findEntry")
        assert find and find["invocations"] > 500

    def test_db_methods_mostly_run_once(self):
        r = self._run("db", "jit", "s1")
        setups = [p for name, p in r.profiles.items() if "setup" in name]
        assert len(setups) >= 20
        assert all(p["invocations"] == 1 for p in setups)

    def test_mpegaudio_uses_fpu(self):
        from repro.native.nisa import NCat
        r = self._run("mpegaudio", "jit")
        fpu = (r.category_counts[NCat.FALU] + r.category_counts[NCat.FMUL]
               + r.category_counts[NCat.FDIV])
        assert fpu / r.instructions > 0.01

    def test_hello_prints_hello(self):
        assert self._run("hello").stdout == ["Hello, world"]

    def test_javac_emits_code_for_all_statements(self):
        r = self._run("javac", "interp", "s0")
        assert int(r.stdout[0]) > 0
