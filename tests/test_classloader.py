"""Class loading: laziness, layout, resolution, address assignment."""

import pytest

from repro.fuzz.oracle import MATRIX, run_config
from repro.isa import ProgramBuilder
from repro.isa.method import JClass, Method
from repro.native.layout import BYTECODE_BASE, STATICS_BASE, VM_DATA_BASE
from repro.native.trace import CountingSink
from repro.vm import JavaVM
from repro.vm.classloader import ClassLoadError
from repro.vm.library import ensure_library
from repro.workloads import get_workload


def _program_with_hierarchy():
    pb = ProgramBuilder("t", main_class="Main")
    base = pb.cls("Base")
    base.field("a", "int")
    base.method("<init>").return_()
    sub = pb.cls("Sub", super_name="Base")
    sub.field("b", "float")
    sub.field("c", "ref")
    sub.method("<init>").return_()
    unused = pb.cls("NeverUsed")
    unused.method("<init>").return_()
    main = pb.cls("Main")
    main.static_field("s", "int")
    m = main.method("main", static=True)
    m.new("Sub").dup().invokespecial("Sub", "<init>", 0).pop()
    m.return_()
    return pb.build()


def _vm(program=None):
    vm = JavaVM(program or _program_with_hierarchy(), "interp")
    return vm


class TestLaziness:
    def test_unreferenced_class_not_loaded(self):
        vm = _vm()
        vm.run()
        assert vm.program.get_class("NeverUsed") not in vm.loader.mirrors
        assert vm.program.get_class("Sub") in vm.loader.mirrors

    def test_superclass_loaded_with_subclass(self):
        vm = _vm()
        vm.run()
        assert vm.program.get_class("Base") in vm.loader.mirrors

    def test_load_emits_classload_trace(self):
        from repro.native.nisa import FLAG_CLASSLOAD
        vm = JavaVM(_program_with_hierarchy(), "interp,record=True")
        result = vm.run()
        tr = result.trace
        marked = tr.select((tr.flags & FLAG_CLASSLOAD) != 0)
        assert marked.n > 0
        # Loading writes bytecode images into the bytecode region.
        bc_writes = marked.select(
            marked.is_write & (marked.ea >= BYTECODE_BASE)
        )
        assert bc_writes.n > 0

    def test_unknown_class_raises(self):
        pb = ProgramBuilder("t", main_class="Main")
        m = pb.cls("Main").method("main", static=True)
        m.new("NoSuchClass").pop()
        m.return_()
        vm = _vm(pb.build())
        with pytest.raises(ClassLoadError):
            vm.run()


class TestLayout:
    def test_field_offsets_inherit(self):
        vm = _vm()
        vm.boot()
        sub = vm.loader.ensure_loaded("Sub").jclass
        assert sub.field_offsets["a"] == 0          # inherited first
        assert sub.field_offsets["b"] == 4
        assert sub.field_offsets["c"] == 8
        assert sub.instance_bytes == 12

    def test_statics_in_statics_region(self):
        vm = _vm()
        vm.boot()
        main = vm.loader.ensure_loaded("Main")
        assert STATICS_BASE <= main.static_addr["s"] < STATICS_BASE + 0x100000
        assert main.statics["s"] == 0

    def test_bytecode_addresses_assigned(self):
        vm = _vm()
        vm.boot()
        sub = vm.loader.ensure_loaded("Sub")
        init = sub.jclass.methods["<init>"]
        assert vm.loader.methods[init].bc_addr >= BYTECODE_BASE
        assert init.bc_length > 0
        assert init.bc_offsets[0] == 0

    def test_metadata_addresses_distinct(self):
        vm = _vm()
        vm.boot()
        a = vm.loader.ensure_loaded("Base")
        b = vm.loader.ensure_loaded("Sub")
        assert a.meta_addr != b.meta_addr
        assert a.meta_addr >= VM_DATA_BASE

    def test_method_ids_unique(self):
        vm = _vm()
        vm.run()
        ids = [mm.method_id for mm in vm.loader.methods.values()]
        assert len(ids) == len(set(ids))

    def test_footprint_counters(self):
        vm = _vm()
        vm.run()
        assert vm.loader.metadata_bytes > 0
        assert vm.loader.bytecode_bytes > 0
        assert vm.loader.classes_loaded >= 4  # library + app classes


class TestResolution:
    def test_field_resolution_quickens(self):
        vm = _vm()
        idx = vm.program.get_class("Sub").pool.field_ref("Sub", "b")
        vm.boot()
        sub = vm.loader.ensure_loaded("Sub")
        # resolve a field ref twice: second time uses the cache
        first = vm.loader.resolve_field(sub, idx)
        count = vm.loader.resolution_count
        second = vm.loader.resolve_field(sub, idx)
        assert first == second
        assert vm.loader.resolution_count == count

    def test_static_field_found_in_superclass(self):
        pb = ProgramBuilder("t", main_class="Main")
        base = pb.cls("Base")
        base.static_field("shared", "int")
        pb.cls("Kid", super_name="Base")
        m = pb.cls("Main").method("main", static=True)
        m.iconst(5).putstatic("Kid", "shared")
        m.getstatic("Kid", "shared").istore(1)
        m.getstatic("java/lang/System", "out").iload(1)
        m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
        m.return_()
        vm = _vm(pb.build())
        assert vm.run().stdout == ["5"]

    def test_missing_field_raises(self):
        vm = _vm()
        idx = vm.program.get_class("Sub").pool.field_ref("Sub", "nope")
        vm.boot()
        sub = vm.loader.ensure_loaded("Sub")
        with pytest.raises(ClassLoadError, match="not found"):
            vm.loader.resolve_field(sub, idx)

    def test_resolution_charged_as_overhead(self):
        vm = _vm()
        vm.run()
        assert vm.loader.overhead_cycles > 0
        assert vm.loader.overhead_cycles < vm.sink.cycles


def _freeze(value):
    """A comparable deep copy of ``value``; classes and methods compare
    by identity (each is snapshotted on its own)."""
    if isinstance(value, (JClass, Method)):
        return ("ref", id(value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _freeze(v)) for k, v in value.items())
    if callable(value):
        return ("callable", id(value))
    return _attributes(value)


def _attributes(obj) -> tuple:
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    return (type(obj).__name__,) + tuple(
        (n, _freeze(getattr(obj, n, "<unset>"))) for n in sorted(names))


def _snapshot(program) -> dict:
    """Every attribute of every class, method and pool entry."""
    snap = {}
    for cls in program.classes.values():
        snap[cls.name] = _attributes(cls)
        for method in cls.methods.values():
            snap[method.qualified_name] = _attributes(method)
    return snap


class TestProgramIsReadOnly:
    @pytest.mark.parametrize("workload", ["jess", "mtrt"])
    def test_no_run_writes_the_program(self, workload):
        program = get_workload(workload).build("s0")
        ensure_library(program)
        before = _snapshot(program)
        assert any(k.endswith(".<init>") for k in before)
        for config in MATRIX:
            assert run_config(program, config).ok, config
            assert _snapshot(program) == before, config
