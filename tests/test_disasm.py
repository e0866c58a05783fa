"""Trace disassembler and region profiler."""

from repro.analysis import run_vm
from repro.native.disasm import (
    disassemble,
    format_region_profile,
    region_profile,
)
from repro.native.nisa import NCat
from repro.native.template import PATCH, TemplateBuilder
from repro.native.trace import RecordingSink


def _tiny_trace():
    b = TemplateBuilder("t")
    b.load(dst=5, src1=2, ea=PATCH)
    b.ialu(dst=6, src1=5)
    b.store(src1=6, ea=PATCH)
    b.instr(NCat.BRANCH, src1=6, taken=True, target=0x100)
    tpl = b.build(base_pc=0x0100_0000)
    sink = RecordingSink()
    sink.emit(tpl, (0x0600_0010, 0x0800_0020))
    return sink.trace()


class TestDisassemble:
    def test_lists_requested_rows(self):
        text = disassemble(_tiny_trace())
        lines = text.splitlines()
        assert len(lines) == 4
        assert "load" in lines[0] and "stack" in lines[0]
        assert "heap" in lines[2] and "<-" in lines[2]
        assert "taken" in lines[3]

    def test_window_clamps(self):
        assert disassemble(_tiny_trace(), start=3, count=10).count("\n") == 0

    def test_registers_rendered(self):
        text = disassemble(_tiny_trace())
        assert "r5" in text and "r6" in text

    def test_real_trace(self):
        trace = run_vm("hello", "s0",
                       "interp,record=True").trace
        text = disassemble(trace, start=0, count=50)
        assert len(text.splitlines()) == 50


class TestRegionProfile:
    def test_counts_by_region(self):
        profile = region_profile(_tiny_trace())
        assert profile["fetch"]["interp_text"] == 4
        assert profile["data_read"] == {"stack": 1}
        assert profile["data_write"] == {"heap": 1}

    def test_formatting(self):
        out = format_region_profile(_tiny_trace())
        assert "fetch" in out and "interp_text" in out and "%" in out

    def test_real_interpreter_profile(self):
        trace = run_vm("hello", "s0",
                       "interp,record=True").trace
        profile = region_profile(trace)
        assert "interp_text" in profile["fetch"]
        assert "bytecode" in profile["data_read"]
