"""Java threads and activation frames.

Threads are green threads scheduled by the VM at bytecode granularity.
Each thread owns a region of the simulated stack space; frames carve
consecutive chunks out of it, so locals/operand-stack accesses hit
realistic, heavily reused addresses — the basis of the interpreter's
good data-cache behaviour reported by the paper.
"""

from __future__ import annotations

from ..isa.method import Method
from ..native.layout import STACK_SIZE_PER_THREAD, WORD_BYTES, thread_stack_base

# Thread states.
RUNNABLE = "runnable"
BLOCKED = "blocked"     # waiting to acquire a monitor
WAITING = "waiting"     # waiting in join()
FINISHED = "finished"

#: Per-frame bookkeeping bytes (saved vpc, method pointer, previous frame).
FRAME_HEADER_BYTES = 16

# Frame emit modes.  EMIT_OSR marks an activation that entered compiled
# code mid-execution via on-stack replacement: it emits exactly what
# EMIT_COMPILED emits (handlers test ``mode >= EMIT_COMPILED``), but the
# distinct mode keeps OSR'd dispatch separately attributable in the
# observability buckets.
EMIT_NONE = 0
EMIT_INTERP = 1
EMIT_COMPILED = 2
EMIT_OSR = 3


class StackOverflow(Exception):
    """Thread stack region exhausted (runaway recursion)."""


class Frame:
    """One method activation."""

    __slots__ = (
        "method",
        "code",
        "ip",
        "stack",
        "locals",
        "frame_base",
        "locals_addr",
        "stack_addr",
        "emit_mode",
        "chunks",
        "compiled",
        "sync_obj",
        "return_pc",
        "size_bytes",
        "profile",
        "backedges",
    )

    def __init__(self, method: Method, frame_base: int) -> None:
        self.method = method
        self.code = method.code
        self.ip = 0
        self.stack: list = []
        self.locals: list = [0] * method.max_locals
        self.frame_base = frame_base
        self.locals_addr = frame_base + FRAME_HEADER_BYTES
        self.stack_addr = self.locals_addr + WORD_BYTES * method.max_locals
        self.size_bytes = (
            FRAME_HEADER_BYTES
            + WORD_BYTES * (method.max_locals + method.max_stack + 2)
        )
        self.emit_mode = EMIT_NONE
        self.chunks = None        # per-instruction compiled chunks (JIT mode)
        self.compiled = None      # CompiledMethod when emit_mode is COMPILED
        self.sync_obj = None      # monitor held while in a synchronized method
        self.return_pc = 0        # native pc execution resumes at on return
        self.profile = None       # MethodProfile cached at push time
        self.backedges = 0        # loop back-edges taken in this activation

    def slot_addr(self, depth: int) -> int:
        """Address of operand-stack slot ``depth`` (0 = bottom)."""
        return self.stack_addr + WORD_BYTES * depth

    def local_addr(self, index: int) -> int:
        return self.locals_addr + WORD_BYTES * index

    def __repr__(self) -> str:
        return f"Frame({self.method.qualified_name}@{self.ip})"


class JThread:
    """A green thread executing on the VM."""

    _next_id = 0

    def __init__(self, name: str = "", daemon: bool = False) -> None:
        self.thread_id = JThread._next_id
        JThread._next_id += 1
        self.name = name or f"thread-{self.thread_id}"
        self.daemon = daemon
        self.state = RUNNABLE
        self.frames: list[Frame] = []
        self.stack_base = thread_stack_base(self.thread_id)
        self._stack_cursor = 0
        self.blocked_on = None          # object whose monitor we're queued on
        self.joined_by: list[JThread] = []
        self.java_obj = None            # the java/lang/Thread instance, if any
        self.bytecodes_executed = 0

    @classmethod
    def reset_ids(cls) -> None:
        """Restart thread-id numbering (one VM per process run)."""
        cls._next_id = 0

    # -- frame management ----------------------------------------------------
    def push_frame(self, method: Method) -> Frame:
        frame = Frame(method, self.stack_base + self._stack_cursor)
        if self._stack_cursor + frame.size_bytes > STACK_SIZE_PER_THREAD:
            raise StackOverflow(
                f"{self.name}: stack overflow entering {method.qualified_name}"
            )
        self._stack_cursor += frame.size_bytes
        self.frames.append(frame)
        return frame

    def pop_frame(self) -> Frame:
        frame = self.frames.pop()
        self._stack_cursor -= frame.size_bytes
        return frame

    @property
    def is_alive(self) -> bool:
        return self.state != FINISHED

    def __repr__(self) -> str:
        return f"JThread({self.name}, {self.state}, {len(self.frames)} frames)"
