"""The runtime class library.

A miniature ``java.lang``/``java.util``/``java.io``, partly in bytecode
(so it executes — and is profiled/compiled — like application code) and
partly as native methods.  Library behaviour drives key observations of
the paper: the heavily *synchronized* collection and I/O classes are
where most monitor operations come from (Section 5), and tiny accessor
methods are the JIT's inlining fodder (Section 4.1).

The classes are built, verified and laid out once per process
(``shared_library``) and carry no run-time state, so every program links
the same objects: ``ensure_library`` adds them to a program that does
not already define them and lays out the program's own classes;
``boot_library`` creates the singletons (``System.out``, the daemon
queues) in each VM at boot.
"""

from __future__ import annotations

from ..isa.builder import ClassBuilder
from ..isa.method import Program
from ..isa.opcodes import ArrayType
from ..isa.verifier import verify_method
from .objects import JArray, JObject, JString

# ---------------------------------------------------------------------------
# native method implementations
# ---------------------------------------------------------------------------


def _obj_hashcode(vm, thread, args):
    return (args[0].addr >> 3) & 0x7FFFFFFF


def _obj_equals(vm, thread, args):
    return 1 if args[0] is args[1] else 0


def _obj_tostring(vm, thread, args):
    obj = args[0]
    name = obj.jclass.name if isinstance(obj, JObject) else "Object"
    return vm.intern_string(f"{name}@{obj.addr:x}")


def _string_value(ref) -> str:
    if isinstance(ref, JString):
        return ref.value
    raise TypeError(f"expected a String, got {ref!r}")


def _str_length(vm, thread, args):
    return len(_string_value(args[0]))


def _str_charat(vm, thread, args):
    s = _string_value(args[0])
    return ord(s[args[1]])


def _str_equals(vm, thread, args):
    other = args[1]
    if not isinstance(other, JString):
        return 0
    return 1 if args[0].value == other.value else 0


def _str_hashcode(vm, thread, args):
    h = 0
    for ch in _string_value(args[0]):
        h = (h * 31 + ord(ch)) & 0xFFFFFFFF
    return h - (1 << 32) if h & (1 << 31) else h


def _str_indexof(vm, thread, args):
    return _string_value(args[0]).find(chr(args[1]))


def _str_concat(vm, thread, args):
    out = _string_value(args[0]) + _string_value(args[1])
    result = vm.heap.new_string(out)
    vm.stubs.emit_copy(vm.sink, args[0].data_addr(), result.data_addr(),
                       len(out), 2)
    return result


def _str_substring(vm, thread, args):
    s = _string_value(args[0])
    return vm.heap.new_string(s[args[1]:args[2]])


def _sb_grow(vm, thread, args):
    sb = args[0]
    old = sb.fields["chars"]
    grown = vm.heap.new_array(ArrayType.CHAR, max(16, old.length * 2))
    grown.data[: old.length] = old.data
    vm.stubs.emit_copy(vm.sink, old.elem_addr(0), grown.elem_addr(0),
                       old.length, 2)
    sb.fields["chars"] = grown


def _sb_tostring(vm, thread, args):
    sb = args[0]
    chars = sb.fields["chars"]
    count = sb.fields["count"]
    text = "".join(chr(c) for c in chars.data[:count])
    result = vm.heap.new_string(text)
    vm.stubs.emit_copy(vm.sink, chars.elem_addr(0), result.data_addr(),
                       count, 2)
    return result


def _sb_append_str(vm, thread, args):
    sb, s = args[0], _string_value(args[1])
    chars = sb.fields["chars"]
    count = sb.fields["count"]
    while count + len(s) > chars.length:
        _sb_grow(vm, thread, (sb,))
        chars = sb.fields["chars"]
    for i, ch in enumerate(s):
        chars.data[count + i] = ord(ch)
    sb.fields["count"] = count + len(s)
    vm.stubs.emit_copy(vm.sink, args[1].data_addr(),
                       chars.elem_addr(count), len(s), 2)
    return sb


def _hashtable_key(ref):
    if isinstance(ref, JString):
        return ("s", ref.value)
    if isinstance(ref, int):
        return ("i", ref)
    return ("o", id(ref))


def _ht_init(vm, thread, args):
    args[0].fields["_map"] = {}


def _ht_put(vm, thread, args):
    table, key, value = args
    table.fields["_map"][_hashtable_key(key)] = value


def _ht_get(vm, thread, args):
    return args[0].fields["_map"].get(_hashtable_key(args[1]))


def _ht_containskey(vm, thread, args):
    return 1 if _hashtable_key(args[1]) in args[0].fields["_map"] else 0


def _ht_size(vm, thread, args):
    return len(args[0].fields["_map"])


def _math_sqrt(vm, thread, args):
    return float(args[0]) ** 0.5 if args[0] >= 0 else float("nan")


def _math_sin(vm, thread, args):
    import math
    return math.sin(args[0])


def _math_cos(vm, thread, args):
    import math
    return math.cos(args[0])


def _math_iabs(vm, thread, args):
    return -args[0] if args[0] < 0 else args[0]


def _math_fabs(vm, thread, args):
    return abs(float(args[0]))


def _math_imax(vm, thread, args):
    return max(args[0], args[1])


def _math_imin(vm, thread, args):
    return min(args[0], args[1])


def _system_arraycopy(vm, thread, args):
    src, spos, dst, dpos, n = args
    if not (isinstance(src, JArray) and isinstance(dst, JArray)):
        raise TypeError("arraycopy needs arrays")
    dst.data[dpos:dpos + n] = src.data[spos:spos + n]
    if n > 0:
        vm.stubs.emit_copy(vm.sink, src.elem_addr(spos), dst.elem_addr(dpos),
                           n, src.elem_bytes)


def _system_millis(vm, thread, args):
    return (vm.sink.cycles // 1_000_000) & 0x7FFFFFFF


def _ps_println(vm, thread, args):
    text = args[1]
    vm.stdout.append(text.value if isinstance(text, JString) else str(text))


def _ps_println_int(vm, thread, args):
    vm.stdout.append(str(args[1]))


def _thread_start(vm, thread, args):
    vm.spawn_thread(args[0])


def _thread_join(vm, thread, args):
    target = vm.thread_for(args[0])
    if target is None or not target.is_alive:
        return None
    if thread not in target.joined_by:
        target.joined_by.append(thread)
    from .threads import WAITING
    thread.state = WAITING
    return vm.NATIVE_BLOCKED


def _thread_isalive(vm, thread, args):
    target = vm.thread_for(args[0])
    return 1 if (target is not None and target.is_alive) else 0


# ---------------------------------------------------------------------------
# class builders
# ---------------------------------------------------------------------------


def _build_object() -> ClassBuilder:
    cb = ClassBuilder("java/lang/Object", super_name=None)
    init = cb.method("<init>")
    init.return_()
    cb.native_method("hashCode", 0, True, _obj_hashcode, cost=15,
                     escape=("none",))
    cb.native_method("equals", 1, True, _obj_equals, cost=10,
                     escape=("none", "none"))
    cb.native_method("toString", 0, True, _obj_tostring, cost=40,
                     escape=("none",))
    return cb


def _build_string() -> ClassBuilder:
    cb = ClassBuilder("java/lang/String")
    cb.native_method("length", 0, True, _str_length, cost=10,
                     escape=("none",))
    cb.native_method("charAt", 1, True, _str_charat, cost=15,
                     escape=("none", "none"))
    cb.native_method("equals", 1, True, _str_equals, cost=40,
                     escape=("none", "none"))
    cb.native_method("hashCode", 0, True, _str_hashcode, cost=40,
                     escape=("none",))
    cb.native_method("indexOf", 1, True, _str_indexof, cost=40,
                     escape=("none", "none"))
    cb.native_method("concat", 1, True, _str_concat, cost=80,
                     escape=("none", "none"))
    cb.native_method("substring", 2, True, _str_substring, cost=40,
                     escape=("none", "none", "none"))
    return cb


def _build_stringbuffer() -> ClassBuilder:
    cb = ClassBuilder("java/lang/StringBuffer")
    cb.field("chars", "ref")
    cb.field("count", "int")

    init = cb.method("<init>")
    init.aload(0).iconst(16).newarray(ArrayType.CHAR)
    init.putfield("java/lang/StringBuffer", "chars")
    init.aload(0).iconst(0).putfield("java/lang/StringBuffer", "count")
    init.return_()

    # synchronized StringBuffer append(char c)
    ap = cb.method("append", argc=1, returns=True, synchronized=True)
    ok = ap.new_label("ok")
    ap.aload(0).getfield("java/lang/StringBuffer", "count")
    ap.aload(0).getfield("java/lang/StringBuffer", "chars").arraylength()
    ap.if_icmplt(ok)
    ap.aload(0).invokevirtual("java/lang/StringBuffer", "_grow", 0, False)
    ap.bind(ok)
    ap.aload(0).getfield("java/lang/StringBuffer", "chars")
    ap.aload(0).getfield("java/lang/StringBuffer", "count")
    ap.iload(1).castore()
    ap.aload(0).dup().getfield("java/lang/StringBuffer", "count")
    ap.iconst(1).iadd().putfield("java/lang/StringBuffer", "count")
    ap.aload(0).areturn()

    ln = cb.method("length", returns=True)
    ln.aload(0).getfield("java/lang/StringBuffer", "count").ireturn()

    cb.native_method("_grow", 0, False, _sb_grow, synchronized=True, cost=80,
                     escape=("none",))
    cb.native_method("toString", 0, True, _sb_tostring,
                     synchronized=True, cost=80, escape=("none",))
    cb.native_method("appendString", 1, True, _sb_append_str,
                     synchronized=True, cost=80, escape=("none", "none"))
    return cb


def _build_vector() -> ClassBuilder:
    cb = ClassBuilder("java/util/Vector")
    cb.field("elems", "ref")
    cb.field("count", "int")

    init = cb.method("<init>", argc=1)
    init.aload(0).iload(1).anewarray("java/lang/Object")
    init.putfield("java/util/Vector", "elems")
    init.aload(0).iconst(0).putfield("java/util/Vector", "count")
    init.return_()

    # synchronized void addElement(Object o)
    add = cb.method("addElement", argc=1, synchronized=True)
    ok = add.new_label("ok")
    add.aload(0).getfield("java/util/Vector", "count")
    add.aload(0).getfield("java/util/Vector", "elems").arraylength()
    add.if_icmplt(ok)
    add.aload(0).invokevirtual("java/util/Vector", "_grow", 0, False)
    add.bind(ok)
    add.aload(0).getfield("java/util/Vector", "elems")
    add.aload(0).getfield("java/util/Vector", "count")
    add.aload(1).aastore()
    add.aload(0).dup().getfield("java/util/Vector", "count")
    add.iconst(1).iadd().putfield("java/util/Vector", "count")
    add.return_()

    # synchronized Object elementAt(int i)
    at = cb.method("elementAt", argc=1, returns=True, synchronized=True)
    at.aload(0).getfield("java/util/Vector", "elems")
    at.iload(1).aaload().areturn()

    size = cb.method("size", returns=True, synchronized=True)
    size.aload(0).getfield("java/util/Vector", "count").ireturn()

    # synchronized Object[] elems(): snapshot of the backing array, used
    # by scan-heavy callers to lock once per operation (the pattern
    # synchronized JDK collections use internally).
    elems = cb.method("elems", returns=True, synchronized=True)
    elems.aload(0).getfield("java/util/Vector", "elems").areturn()

    clear = cb.method("removeAllElements", synchronized=True)
    clear.aload(0).iconst(0).putfield("java/util/Vector", "count")
    clear.return_()

    def _vec_grow(vm, thread, args):
        vec = args[0]
        old = vec.fields["elems"]
        grown = vm.heap.new_array("ref", max(8, old.length * 2))
        grown.data[: old.length] = old.data
        vm.stubs.emit_copy(vm.sink, old.elem_addr(0), grown.elem_addr(0),
                           old.length, 4)
        vec.fields["elems"] = grown

    cb.native_method("_grow", 0, False, _vec_grow, synchronized=True, cost=80,
                     escape=("none",))
    return cb


def _build_hashtable() -> ClassBuilder:
    cb = ClassBuilder("java/util/Hashtable")
    cb.native_method("<init>", 0, False, _ht_init, cost=20,
                     escape=("none",))
    put = cb.method("put", argc=2, synchronized=True)
    put.aload(0).aload(1).aload(2)
    put.invokevirtual("java/util/Hashtable", "_putNative", 2, False)
    put.return_()
    # the key/value references are retained by the table
    cb.native_method("_putNative", 2, False, _ht_put,
                     synchronized=True, cost=80,
                     escape=("none", "global", "global"))
    cb.native_method("get", 1, True, _ht_get, synchronized=True, cost=40,
                     escape=("none", "none"))
    cb.native_method("containsKey", 1, True, _ht_containskey,
                     synchronized=True, cost=40, escape=("none", "none"))
    cb.native_method("size", 0, True, _ht_size, synchronized=True, cost=10,
                     escape=("none",))
    return cb


def _build_math() -> ClassBuilder:
    cb = ClassBuilder("java/lang/Math")
    cb.native_method("sqrt", 1, True, _math_sqrt, static=True, cost=40)
    cb.native_method("sin", 1, True, _math_sin, static=True, cost=80)
    cb.native_method("cos", 1, True, _math_cos, static=True, cost=80)
    cb.native_method("abs", 1, True, _math_iabs, static=True, cost=10)
    cb.native_method("fabs", 1, True, _math_fabs, static=True, cost=10)
    cb.native_method("max", 2, True, _math_imax, static=True, cost=10)
    cb.native_method("min", 2, True, _math_imin, static=True, cost=10)
    return cb


def _build_system() -> ClassBuilder:
    cb = ClassBuilder("java/lang/System")
    cb.static_field("out", "ref")
    cb.native_method("arraycopy", 5, False, _system_arraycopy,
                     static=True, cost=40,
                     escape=("none", "none", "none", "none", "none"))
    cb.native_method("currentTimeMillis", 0, True, _system_millis,
                     static=True, cost=20)
    return cb


def _build_printstream() -> ClassBuilder:
    cb = ClassBuilder("java/io/PrintStream")
    # println is a synchronized bytecode wrapper over a synchronized
    # native write — the classic recursive-lock (case b) pattern in
    # JDK I/O streams.
    pl = cb.method("println", argc=1, synchronized=True)
    pl.aload(0).aload(1)
    pl.invokevirtual("java/io/PrintStream", "_write", 1, False)
    pl.return_()
    pli = cb.method("printlnInt", argc=1, synchronized=True)
    pli.aload(0).iload(1)
    pli.invokevirtual("java/io/PrintStream", "_writeInt", 1, False)
    pli.return_()
    cb.native_method("_write", 1, False, _ps_println,
                     synchronized=True, cost=160, escape=("none", "none"))
    cb.native_method("_writeInt", 1, False, _ps_println_int,
                     synchronized=True, cost=160, escape=("none", "none"))
    return cb


def _build_thread() -> ClassBuilder:
    cb = ClassBuilder("java/lang/Thread")
    cb.field("_tid", "int")
    init = cb.method("<init>")
    init.return_()
    run = cb.method("run")
    run.return_()
    cb.native_method("start", 0, False, _thread_start, cost=160)
    cb.native_method("join", 0, False, _thread_join, cost=40)
    cb.native_method("isAlive", 0, True, _thread_isalive, cost=20)
    return cb


def _build_random() -> ClassBuilder:
    cb = ClassBuilder("java/util/Random")
    cb.field("seed", "int")
    init = cb.method("<init>", argc=1)
    init.aload(0).iload(1).putfield("java/util/Random", "seed")
    init.return_()
    # int nextInt(int n): LCG, result in [0, n)
    ni = cb.method("nextInt", argc=1, returns=True)
    ni.aload(0).dup().getfield("java/util/Random", "seed")
    ni.iconst(1103515245).imul().iconst(12345).iadd()
    ni.iconst(0x7FFFFFFF).iand()
    ni.putfield("java/util/Random", "seed")
    ni.aload(0).getfield("java/util/Random", "seed")
    ni.iload(1).irem().ireturn()
    return cb


def _build_daemon(name: str, iterations: int) -> ClassBuilder:
    """Internal service threads (finalizer / weak-reference handler).

    Even single-threaded SpecJVM98 programs run these; they perform a
    few synchronized passes over their queues at start-up, contributing
    background case-(a) lock traffic (Section 5).
    """
    cb = ClassBuilder(name, super_name="java/lang/Thread")
    cb.static_field("queue", "ref")
    run = cb.method("run")
    loop = run.new_label("loop")
    end = run.new_label("end")
    run.iconst(iterations).istore(1)
    run.bind(loop)
    run.iload(1).ifle(end)
    run.getstatic(name, "queue").astore(2)
    run.aload(2).monitorenter()
    run.aload(2).monitorexit()
    run.iinc(1, -1)
    run.goto(loop)
    run.bind(end)
    run.return_()
    return cb


#: Names of the classes the library provides.
LIBRARY_CLASSES = (
    "java/lang/Object",
    "java/lang/String",
    "java/lang/StringBuffer",
    "java/util/Vector",
    "java/util/Hashtable",
    "java/lang/Math",
    "java/lang/System",
    "java/io/PrintStream",
    "java/lang/Thread",
    "java/util/Random",
    "repro/Finalizer",
    "repro/RefCleaner",
)


def build_library() -> list:
    """Build, verify and lay out the library classes (see
    :func:`shared_library`: one set serves every program and VM)."""
    builders = [
        _build_object(),
        _build_string(),
        _build_stringbuffer(),
        _build_vector(),
        _build_hashtable(),
        _build_math(),
        _build_system(),
        _build_printstream(),
        _build_thread(),
        _build_random(),
        _build_daemon("repro/Finalizer", 6),
        _build_daemon("repro/RefCleaner", 4),
    ]
    library = Program("library")
    for cb in builders:
        cls = library.add_class(cb.build())
        for method in cls.methods.values():
            if not method.is_native:
                verify_method(method)
    library.link()
    return list(library.classes.values())


_SHARED: list | None = None


def shared_library() -> list:
    """Process-wide library classes."""
    global _SHARED
    if _SHARED is None:
        _SHARED = build_library()
    return _SHARED


def ensure_library(program: Program) -> None:
    """Link ``program``: add the library classes it does not define
    (none when it defines ``java/lang/Object``), then lay out its own
    classes.  Idempotent; after linking, nothing writes the program."""
    if "java/lang/Object" not in program.classes:
        for cls in shared_library():
            if cls.name not in program.classes:
                program.add_class(cls)
    program.link()


def boot_library(vm) -> None:
    """Create library singletons (System.out, daemon queues)."""
    loader = vm.loader
    system = loader.ensure_loaded("java/lang/System")
    ps = loader.ensure_loaded("java/io/PrintStream").jclass
    system.statics["out"] = vm.heap.new_object(ps)
    for name in ("repro/Finalizer", "repro/RefCleaner"):
        if name in vm.program.classes:
            loader.ensure_loaded(name).statics["queue"] = \
                vm.heap.new_object(vm.object_class)
