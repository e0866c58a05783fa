"""The Java virtual machine: scheduler, runtime services, results.

``JavaVM`` ties everything together: it loads a :class:`Program`
(linking in the runtime library), runs its ``main`` on a green-thread
scheduler, services allocation / synchronization / compilation requests
from the stepper, and produces a :class:`VMResult` with the cycle,
memory, synchronization and (optionally) full-trace observations that
the experiment harness consumes.
"""

from __future__ import annotations

import numpy as np

from ..isa.method import Method, Program
from ..isa.opcodes import N_OPCODES
from ..native.layout import WORD_BYTES
from ..native.trace import CountingSink, RecordingSink, Trace
from ..obs import TRACER
from ..sync.monitor_cache import MonitorCacheLockManager
from .classloader import ClassLoader
from .heap import Heap
from .interp_templates import shared_templates
from .interpreter import Interpreter, VMError
from .jit.compiler import CodeCache, JITCompiler
from .jit.inline import ClassHierarchy
from .objects import JObject, JString
from .profiler import Profiler
from .stubs import shared_stubs
from .strategy import CompileOnFirstUse, InterpretOnly, Strategy, TieredStrategy
from .threads import (
    BLOCKED,
    EMIT_COMPILED,
    EMIT_INTERP,
    EMIT_NONE,
    EMIT_OSR,
    FINISHED,
    JThread,
    RUNNABLE,
    WAITING,
)
from .tiering import TieredController


class DeadlockError(Exception):
    """All live threads are blocked on monitors/joins."""


class ExecutionLimitExceeded(Exception):
    """The bytecode budget ran out (runaway workload guard)."""


class VMResult:
    """Everything observed in one VM run."""

    def __init__(self, vm: "JavaVM") -> None:
        sink = vm.sink
        self.program_name = vm.program.name
        self.strategy = vm.strategy.name
        self.cycles = sink.cycles
        self.instructions = sink.instructions
        self.translate_cycles = sink.translate_cycles
        self.category_counts = sink.cat_counts
        self.bytecodes_executed = sum(t.bytecodes_executed for t in vm.threads)
        self.methods_compiled = vm.jit.methods_compiled
        self.methods_installed = vm.jit.methods_installed
        self.install_cycles = vm.jit.install_cycles_total
        self.archive = (vm.jit.archive.counters()
                        if vm.jit.archive is not None else None)
        self.inlined_sites = vm.jit.inlined_sites
        self.dead_stores_eliminated = vm.jit.dead_stores_eliminated
        self.spill_stores_eliminated = vm.jit.spill_stores_eliminated
        self.sync = vm.lock_manager.stats.snapshot()
        self.sync_cycles = vm.lock_manager.stats.cycles
        self.heap = vm.heap.stats.snapshot()
        self.profiles = vm.profiler.snapshot() if vm.profiler else {}
        self.strategy_config = vm.strategy.describe()
        self.tiering = vm.tiered.snapshot() if vm.tiered else None
        self.opcode_counts = np.array(vm.opcode_counts, dtype=np.int64)
        self.footprint = vm.footprint()
        self.stdout = list(vm.stdout)
        self.classes_loaded = vm.loader.classes_loaded
        if hasattr(sink, "flush"):
            sink.flush()
        self.folded_bytecodes = getattr(sink, "folded_bytecodes", 0)
        self.trace: Trace | None = (
            sink.trace() if getattr(sink, "records", False) else None
        )

    @property
    def execute_cycles(self) -> int:
        """Non-translate cycles (the 'execute' bar of Figure 1)."""
        return self.cycles - self.translate_cycles

    def __repr__(self) -> str:
        return (
            f"VMResult({self.program_name}/{self.strategy}, "
            f"cycles={self.cycles}, translate={self.translate_cycles}, "
            f"bytecodes={self.bytecodes_executed})"
        )


class JavaVM:
    """One virtual machine instance executing one program."""

    #: Sentinel a native method returns when it must block and retry.
    NATIVE_BLOCKED = object()

    def __init__(
        self,
        program: Program,
        strategy: Strategy | None = None,
        lock_manager=None,
        record: bool = False,
        heap_limit: int = 64 << 20,
        quantum: int = 60,
        profile: bool = True,
        inline: bool = True,
        max_bytecodes: int = 80_000_000,
        spawn_daemons: bool = True,
        folding: bool = False,
        jit_opt: bool = False,
        lock_elision: bool = False,
        static_concurrency: bool = False,
        track_confinement: bool = False,
        code_archive: str | None = None,
    ) -> None:
        from .library import ensure_library  # local import: cycle avoidance

        JThread.reset_ids()
        self.program = program
        ensure_library(program)
        self.strategy = strategy or CompileOnFirstUse()
        self.sink = RecordingSink() if record else CountingSink()
        self.stubs = shared_stubs()
        self.templates = shared_templates()
        self.folding = folding
        if folding:
            from .folding import FoldingSink
            self.sink = FoldingSink(self.sink, self.templates)
        self.loader = ClassLoader(program, self.stubs, self.sink)
        self.heap = Heap(limit_bytes=heap_limit)
        self.heap.root_provider = self._gc_roots
        self.lock_manager = lock_manager or MonitorCacheLockManager()
        self.hierarchy = ClassHierarchy(program)
        self.code_cache = CodeCache()
        self.jit = JITCompiler(self.loader, self.code_cache, self.sink,
                               self.hierarchy, inline=inline,
                               optimize=jit_opt)
        from .codecache_archive import CodeArchive, resolve_archive_dir
        archive_dir = resolve_archive_dir(code_archive)
        if archive_dir:
            self.jit.archive = CodeArchive(archive_dir)
        self.jit_opt = jit_opt
        self.lock_elision = lock_elision
        self._escape_summaries = None
        self._elision_plan: dict[int, frozenset] = {}
        # Static concurrency summaries (analysis.concurrency): safe sites
        # pre-seed tier-2 elision, racy sites are pre-blacklisted.
        self.static_concurrency = static_concurrency
        self._concurrency = None
        self._concurrency_plan: dict[int, tuple] = {}
        self.profiler = Profiler() if profile else None
        if isinstance(self.strategy, TieredStrategy):
            # Tiering is profile-driven: the controller needs invocation
            # and backedge counts regardless of the profile flag.
            if self.profiler is None:
                self.profiler = Profiler()
            self.tiered = TieredController(self, self.strategy)
            self.loader.on_load = self.tiered.on_class_loaded
        else:
            self.tiered = None
        self.interp = Interpreter(self)
        if track_confinement:
            from .confinement import ConfinementTracker
            self.confinement = ConfinementTracker(self)
            self.confinement.install()
        else:
            self.confinement = None
        self.quantum = quantum
        self.max_bytecodes = max_bytecodes
        self.spawn_daemons = spawn_daemons

        #: dynamic bytecode-frequency histogram (locality studies); a
        #: plain list because the stepper bumps it once per bytecode —
        #: VMResult hands it out as an int64 array
        self.opcode_counts = [0] * N_OPCODES
        self.threads: list[JThread] = []
        self.stdout: list[str] = []
        # Per-emit-mode dispatch wall time / bytecode counts, filled by
        # the traced stepper (observability only; empty when tracing is
        # off).  Indexed by EMIT_NONE / EMIT_INTERP / EMIT_COMPILED /
        # EMIT_OSR.
        self.dispatch_seconds = [0.0, 0.0, 0.0, 0.0]
        self.dispatch_counts = [0, 0, 0, 0]
        # External request dispatcher (repro.traffic): an object with
        # poll/complete natives hooks and an ``on_idle(vm)`` callback the
        # scheduler consults before declaring deadlock — lets open-loop
        # arrival schedules advance the cycle clock while every worker
        # is parked waiting for load.
        self.request_source = None
        self._interned: dict[str, JString] = {}
        # java/lang/Thread instance -> JThread, maintained at thread
        # creation (JObject is identity-hashed, so this is an identity
        # map).  thread_for sits on the join/isAlive sync path; a linear
        # scan over self.threads scales O(threads) per call.
        self._thread_by_obj: dict[JObject, JThread] = {}
        self._compiled: dict[int, object] = {}   # method_id -> CompiledMethod
        #: translate/install cycles charged so far (part of the sink's
        #: cycles, excluded from per-method attribution)
        self.translate_overhead = 0
        self._booted = False
        self._finished = False

    # ------------------------------------------------------------------
    # boot and scheduling
    # ------------------------------------------------------------------
    def boot(self) -> None:
        if self._booted:
            return
        self._booted = True
        from .library import boot_library
        self.object_class = self.loader.ensure_loaded("java/lang/Object")
        self.string_class = self.loader.ensure_loaded("java/lang/String")
        boot_library(self)
        self.loader.ensure_loaded(self.program.main_class)

        main_thread = JThread("main")
        self.threads.append(main_thread)
        main = self.program.entry_method
        if main.is_native or not main.is_static:
            raise VMError("main must be a static bytecode method")
        self._push_entry(main_thread, main)

        if self.spawn_daemons and "repro/Finalizer" in self.program.classes:
            for name in ("repro/Finalizer", "repro/RefCleaner"):
                cls = self.loader.ensure_loaded(name)
                obj = self.heap.new_object(cls)
                t = JThread(name.split("/")[-1].lower(), daemon=True)
                t.java_obj = obj
                self._thread_by_obj[obj] = t
                run = cls.find_method("run")
                self.threads.append(t)
                if self.profiler:
                    self.profiler.count_invocation(run)
                frame = t.push_frame(run)
                frame.locals[0] = obj
                self._set_entry_mode(frame, run)

    def _push_entry(self, thread: JThread, method: Method, receiver=None):
        if self.profiler:
            self.profiler.count_invocation(method)
        frame = thread.push_frame(method)
        if receiver is not None:
            frame.locals[0] = receiver
        self._set_entry_mode(frame, method)
        return frame

    def _set_entry_mode(self, frame, method) -> None:
        if self.profiler:
            frame.profile = self.profiler.profile_for(method)
        compiled = self.prepare_method(method, count=False)
        if compiled is not None:
            frame.emit_mode = EMIT_COMPILED
            frame.chunks = compiled.chunks
            frame.compiled = compiled
            compiled.prologue.emit(self.sink, frame)
        else:
            frame.emit_mode = EMIT_INTERP
        frame.return_pc = self.templates.dispatch_pc

    def run(self, max_bytecodes: int | None = None) -> VMResult:
        """Execute to completion and return the results.

        With the tracer on, the run is wrapped in a ``vm.run`` span and
        the stepper's per-emit-mode wall times are emitted as the
        ``vm.interp.dispatch`` / ``vm.jit.execute`` phase spans
        (``vm.jit.translate`` spans come from the compiler), mirroring
        the paper's Figure 1 translate-vs-execute split.
        """
        if not TRACER.enabled:
            return self._run(max_bytecodes)
        with TRACER.span("vm.run", program=self.program.name,
                         strategy=self.strategy.name) as sp:
            result = self._run(max_bytecodes)
            seconds, counts = self.dispatch_seconds, self.dispatch_counts
            TRACER.emit("vm.interp.dispatch", seconds[EMIT_INTERP],
                        bytecodes=counts[EMIT_INTERP])
            TRACER.emit("vm.jit.execute",
                        seconds[EMIT_COMPILED] + seconds[EMIT_NONE]
                        + seconds[EMIT_OSR],
                        bytecodes=counts[EMIT_COMPILED] + counts[EMIT_NONE]
                        + counts[EMIT_OSR])
            sp.attrs.update(
                cycles=result.cycles,
                translate_cycles=result.translate_cycles,
                execute_cycles=result.execute_cycles,
                bytecodes=result.bytecodes_executed,
                methods_compiled=result.methods_compiled,
                methods_installed=result.methods_installed,
                install_cycles=result.install_cycles,
            )
            if self.request_source is not None:
                sp.attrs.update(
                    requests_completed=getattr(
                        self.request_source, "completed", 0),
                    idle_cycles=getattr(
                        self.request_source, "idle_cycles", 0),
                )
            if self.tiered is not None:
                counters = self.tiered.counters()
                sp.attrs.update(counters)
                # Also bump the global counter stream: `repro.obs diff`
                # compares counters across runs, so tier transitions
                # become first-class diffable quantities.
                for name, value in counters.items():
                    TRACER.add(f"vm.tiered.{name}", value)
        return result

    def _run(self, max_bytecodes: int | None = None) -> VMResult:
        self.boot()
        budget = max_bytecodes or self.max_bytecodes
        executed_total = 0
        while True:
            runnable = [t for t in self.threads if t.state == RUNNABLE]
            if not runnable:
                live = [t for t in self.threads if t.state != FINISHED]
                if not live or all(t.daemon for t in live):
                    break
                if (self.request_source is not None
                        and self.request_source.on_idle(self)):
                    continue
                raise DeadlockError(
                    f"all threads blocked: "
                    f"{[(t.name, t.state) for t in live]}"
                )
            quantum = self.quantum if len(runnable) > 1 else 100_000
            for thread in runnable:
                if thread.state != RUNNABLE:
                    continue
                executed_total += self.interp.step(thread, quantum)
                if executed_total > budget:
                    raise ExecutionLimitExceeded(
                        f"{executed_total} bytecodes exceed the budget {budget}"
                    )
        self._finished = True
        return VMResult(self)

    def finish_thread(self, thread: JThread) -> None:
        thread.state = FINISHED
        for waiter in thread.joined_by:
            if waiter.state == WAITING:
                waiter.state = RUNNABLE
        thread.joined_by.clear()

    def spawn_thread(self, java_obj: JObject) -> JThread:
        """Implements Thread.start()."""
        run = java_obj.jclass.find_method("run")
        if run is None or run.is_native:
            raise VMError(f"{java_obj.jclass.name} has no bytecode run()")
        thread = JThread(java_obj.jclass.name)
        thread.java_obj = java_obj
        self._thread_by_obj[java_obj] = thread
        java_obj.fields["_tid"] = thread.thread_id
        self.threads.append(thread)
        frame = thread.push_frame(run)
        frame.locals[0] = java_obj
        if self.profiler:
            self.profiler.count_invocation(run)
        self._set_entry_mode(frame, run)
        return thread

    def thread_for(self, java_obj: JObject) -> JThread | None:
        return self._thread_by_obj.get(java_obj)

    # ------------------------------------------------------------------
    # compilation service
    # ------------------------------------------------------------------
    def prepare_method(self, method: Method, count: bool = True):
        """Count the invocation and compile if the strategy says so.

        Returns the :class:`CompiledMethod` if the method is (now)
        compiled, else ``None``.
        """
        n = self.profiler.count_invocation(method) if (
            self.profiler and count
        ) else 1
        if self.tiered is not None and not method.is_native:
            return self.tiered.on_invoke(method)
        compiled = self._compiled.get(method.method_id)
        if compiled is not None:
            return compiled
        if method.is_native:
            return None
        if self.strategy.should_compile(method, n):
            compiled = self.jit.compile(method)
            self._compiled[method.method_id] = compiled
            self._account_translation(method, compiled)
            return compiled
        return None

    def _account_translation(self, method: Method, compiled) -> None:
        """Single choke point for translate/install charging.  The
        strategy-compile path, the tiered promotion path, and the
        archive-install path all account here, so the Figure 1
        translate/execute split cannot drift between modes."""
        self.translate_overhead += compiled.translate_cycles
        if self.profiler:
            self.profiler.note_translate(method, compiled.translate_cycles,
                                         installed=compiled.from_archive)

    # ------------------------------------------------------------------
    # lock elision (escape analysis)
    # ------------------------------------------------------------------
    def elidable_sites(self, method: Method) -> frozenset:
        """Alloc-site indices in ``method`` proven non-escaping."""
        sites = self._elision_plan.get(method.method_id)
        if sites is None:
            if self._escape_summaries is None:
                from ..analysis.dataflow.escape import EscapeSummaries
                self._escape_summaries = EscapeSummaries(self.program)
            info = self._escape_summaries.info(method)
            sites = info.elidable_allocs if info is not None else frozenset()
            self._elision_plan[method.method_id] = sites
        return sites

    def concurrency_plan(self, method: Method) -> tuple:
        """``(safe, racy)`` alloc-site sets from the concurrency analysis.

        ``safe`` sites are elidable with no deopt risk (every thread that
        can lock instances of the allocated class is the allocating
        thread); ``racy`` sites are pre-blacklisted for speculation.
        """
        plan = self._concurrency_plan.get(method.method_id)
        if plan is None:
            if self._concurrency is None:
                from ..analysis.concurrency import ConcurrencyAnalysis
                if self._escape_summaries is None:
                    from ..analysis.dataflow.escape import EscapeSummaries
                    self._escape_summaries = EscapeSummaries(self.program)
                self._concurrency = ConcurrencyAnalysis(
                    self.program, escape=self._escape_summaries)
            plan = (self._concurrency.safe_sites(method),
                    self._concurrency.racy_sites(method))
            self._concurrency_plan[method.method_id] = plan
        return plan

    # ------------------------------------------------------------------
    # synchronization service
    # ------------------------------------------------------------------
    def monitor_enter(self, thread: JThread, obj) -> bool:
        if self.confinement is not None:
            self.confinement.note_enter(thread, obj)
        tl = getattr(obj, "tl_thread", None)
        if tl is not None:
            stats = self.lock_manager.stats
            if tl == thread.thread_id:
                # Escape analysis proved the object thread-local: skip
                # the lock manager entirely.  The shadow depth lets us
                # classify what the acquisition would have been.
                from ..sync.base import RECURSION_LIMIT
                if obj.elide_depth == 0:
                    case = "a"
                elif obj.elide_depth < RECURSION_LIMIT:
                    case = "b"
                else:
                    case = "c"
                obj.elide_depth += 1
                stats.elided_acquires += 1
                stats.elided_case_counts[case] += 1
                return True
            # A foreign thread reached a thread-local-marked object.
            if getattr(obj, "tl_spec", None) is not None \
                    and self.tiered is not None:
                # Tier-2 *speculative* elision: repair the elided region
                # (replay it through the lock manager on the owner's
                # behalf) and deoptimize the allocating method, then
                # lock normally below — no violation is recorded.
                self.tiered.on_foreign_touch(obj)
            elif obj.elide_depth > 0:
                # Mid-region: the analysis was unsound for this object.
                # Keep the marking so the eliding owner's enter/exit
                # pairing stays consistent; record the violation.
                stats.elision_violations += 1
            else:
                obj.tl_thread = None   # demote to normal locking
        acquired, _case = self.lock_manager.acquire(
            thread.thread_id, obj, self.sink
        )
        if not acquired:
            thread.state = BLOCKED
            thread.blocked_on = obj
        return acquired

    def monitor_exit(self, thread: JThread, obj) -> None:
        if getattr(obj, "tl_thread", None) == thread.thread_id \
                and obj.elide_depth > 0:
            obj.elide_depth -= 1
            self.lock_manager.stats.elided_releases += 1
            return
        self.lock_manager.release(thread.thread_id, obj, self.sink)
        if obj.lock is not None and obj.lock.count == 0:
            for t in self.threads:
                if t.state == BLOCKED and t.blocked_on is obj:
                    t.state = RUNNABLE
                    t.blocked_on = None

    # ------------------------------------------------------------------
    # heap / string services
    # ------------------------------------------------------------------
    def intern_string(self, value: str) -> JString:
        s = self._interned.get(value)
        if s is None:
            s = self.heap.new_string(value)
            self._interned[value] = s
        return s

    def _gc_roots(self):
        for thread in self.threads:
            for frame in thread.frames:
                yield from frame.stack
                yield from frame.locals
            if thread.java_obj is not None:
                yield thread.java_obj
        for cls in self.program.classes.values():
            if cls.loaded:
                yield from cls.statics.values()
        yield from self._interned.values()

    # ------------------------------------------------------------------
    # memory footprint (Table 1)
    # ------------------------------------------------------------------
    def footprint(self) -> dict:
        """Byte sizes of the runtime's memory components."""
        stack_bytes = sum(
            sum(f.size_bytes for f in t.frames) for t in self.threads
        )
        # Peak stack use is better approximated by frames high-water; use
        # a simple proxy: deepest live frames + per-thread minimum.
        components = {
            "vm_metadata": self.loader.metadata_bytes,
            "bytecode": self.loader.bytecode_bytes,
            "heap_peak": self.heap.stats.peak_live_bytes,
            "stacks": max(stack_bytes, 2048 * max(1, len(self.threads))),
            "interp_text": self.templates.text_bytes,
            "vm_text": self.stubs.text_bytes,
            "jumptable": 4 * 220,
            "code_cache": self.code_cache.used_bytes,
            "jit_text": (self.jit.stubs.text_bytes
                         if self.jit.methods_compiled
                         or self.jit.methods_installed else 0),
            "jit_work": self.jit.peak_work_bytes,
        }
        components["interpreter_total"] = (
            components["vm_metadata"] + components["bytecode"]
            + components["heap_peak"] + components["stacks"]
            + components["interp_text"] + components["vm_text"]
            + components["jumptable"]
        )
        # The translator's text is part of the VM binary (as the
        # interpreter's text is); the *per-application* JIT overhead is
        # the installed code plus the compiler's working storage.
        components["jit_total"] = (
            components["interpreter_total"] + components["code_cache"]
            + components["jit_work"]
        )
        return components
