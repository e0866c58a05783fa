"""The simulated Java virtual machine."""

from .config import RunConfig
from .heap import Heap, OutOfMemoryError
from .interpreter import Interpreter, VMError
from .machine import DeadlockError, ExecutionLimitExceeded, JavaVM, VMResult
from .objects import JArray, JObject, JString
from .profiler import MethodProfile, Profiler
from .threads import Frame, JThread
from .tiering import TieredController

__all__ = [
    "DeadlockError",
    "ExecutionLimitExceeded",
    "Frame",
    "Heap",
    "Interpreter",
    "JArray",
    "JObject",
    "JString",
    "JThread",
    "JavaVM",
    "MethodProfile",
    "OutOfMemoryError",
    "Profiler",
    "RunConfig",
    "TieredController",
    "VMError",
    "VMResult",
]
