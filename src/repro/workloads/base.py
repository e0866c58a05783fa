"""Workload registry and scaling.

Each workload is a from-scratch bytecode program whose *architectural
character* matches the corresponding SpecJVM98 benchmark as the paper
describes it (method-reuse profile, loop/call structure, data footprint,
synchronization behaviour).  Workloads print a checksum so tests can
verify end-to-end semantics under every execution mode.

Scales: ``s0`` is a smoke-test size, ``s1`` matches the paper's choice
of small inputs (the study's argument: with large inputs *any*
compilation cost amortizes, hiding the effects under study), ``s10`` is
a larger variant used to confirm trends.
"""

from __future__ import annotations

from typing import Callable

from ..isa.method import Program

SCALES = ("s0", "s1", "s10")


class Workload:
    """A named, scalable benchmark program."""

    def __init__(self, name: str, build: Callable[[str], Program],
                 description: str, multithreaded: bool = False) -> None:
        self.name = name
        self._build = build
        self.description = description
        self.multithreaded = multithreaded

    def build(self, scale: str = "s1") -> Program:
        """Build the :class:`Program` at ``scale``; any number of VMs
        may run it (run-time state lives in each VM)."""
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; use one of {SCALES}")
        return self._build(scale)

    def __repr__(self) -> str:
        return f"Workload({self.name})"


_REGISTRY: dict[str, Workload] = {}


def register(name: str, description: str, multithreaded: bool = False):
    """Decorator registering a build function as a workload."""

    def deco(fn):
        _REGISTRY[name] = Workload(name, fn, description, multithreaded)
        return fn

    return deco


def get_workload(name: str) -> Workload:
    _ensure_imported()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> dict[str, Workload]:
    _ensure_imported()
    return dict(_REGISTRY)


#: The paper's benchmark set (Figure 1 uses the starred five + hello).
SPEC_BENCHMARKS = ("compress", "jess", "db", "javac", "mpegaudio",
                   "mtrt", "jack")
FIG1_BENCHMARKS = ("hello", "db", "javac", "jess", "compress", "jack")


def _ensure_imported() -> None:
    """Import the workload modules so their @register decorators run."""
    from . import promoted, specjvm  # noqa: F401  (registration side effect)
