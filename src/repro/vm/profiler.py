"""Per-method run-time profiling.

Collects, per method: invocation count ``n_i``, cycles spent
interpreting (``I``-bucket), cycles executing compiled code
(``E``-bucket) and translate cost ``T_i`` — the quantities the paper's
oracle ("opt") model is built from (Section 3):

    ``N_i = T_i / (I_i - E_i)`` — compile iff ``n_i > N_i``.

The tiered engine extends each profile with loop-backedge counts and
tier-transition counters (current tier, promotions, OSR entries,
deopts) so profiler snapshots double as the tiering audit trail.

The hot-loop contract: the ``MethodProfile`` is cached on the frame at
push time (``frame.profile``), so the interpreter charges cycles with
one attribute access instead of a per-bytecode dict lookup.
"""

from __future__ import annotations


class MethodProfile:
    """Profile counters for one method."""

    __slots__ = (
        "qualified_name",
        "invocations",
        "interp_cycles",
        "compiled_cycles",
        "translate_cycles",
        "install_cycles",
        "was_compiled",
        "is_native",
        "backedges",
        "tier",
        "promotions",
        "osr_entries",
        "deopts",
        "lines",
    )

    def __init__(self, qualified_name: str, is_native: bool = False) -> None:
        self.qualified_name = qualified_name
        self.invocations = 0
        self.interp_cycles = 0
        self.compiled_cycles = 0
        self.translate_cycles = 0
        # install-path subset of translate_cycles (code-archive hits)
        self.install_cycles = 0
        self.was_compiled = False
        self.is_native = is_native
        self.backedges = 0
        self.tier = 0
        self.promotions = 0
        self.osr_entries = 0
        self.deopts = 0
        # The counting stepper's hot-line tables of this method once it
        # is hot (``repro.vm.lines``), keyed by emit mode or chunk list.
        self.lines = None

    def snapshot(self) -> dict:
        snap = {
            "name": self.qualified_name,
            "invocations": self.invocations,
            "interp_cycles": self.interp_cycles,
            "compiled_cycles": self.compiled_cycles,
            "translate_cycles": self.translate_cycles,
            "was_compiled": self.was_compiled,
        }
        if self.install_cycles:
            snap["install_cycles"] = self.install_cycles
        if self.backedges:
            snap["backedges"] = self.backedges
        if self.promotions or self.deopts:
            snap["tier"] = self.tier
            snap["promotions"] = self.promotions
            snap["osr_entries"] = self.osr_entries
            snap["deopts"] = self.deopts
        return snap

    def __repr__(self) -> str:
        return (
            f"MethodProfile({self.qualified_name}, n={self.invocations}, "
            f"I={self.interp_cycles}, E={self.compiled_cycles}, "
            f"T={self.translate_cycles})"
        )


class Profiler:
    """Aggregates :class:`MethodProfile` objects for one VM run."""

    def __init__(self) -> None:
        self.profiles: dict[str, MethodProfile] = {}
        # The same profiles by ``Method``: a hit formats no name.
        self._by_method: dict = {}

    def profile_for(self, method) -> MethodProfile:
        p = self._by_method.get(method)
        if p is None:
            key = method.qualified_name
            p = self.profiles.get(key)
            if p is None:
                p = MethodProfile(key, method.is_native)
                self.profiles[key] = p
            self._by_method[method] = p
        return p

    def count_invocation(self, method) -> int:
        p = self.profile_for(method)
        p.invocations += 1
        return p.invocations

    def note_translate(self, method, cycles: int,
                       installed: bool = False) -> None:
        """Charge translate-portion cycles; ``installed`` marks the
        cheap archive-install path (still translate cycles for the
        Figure 1 split, but tracked as the install subset too)."""
        p = self.profile_for(method)
        p.translate_cycles += cycles
        if installed:
            p.install_cycles += cycles
        p.was_compiled = True

    def snapshot(self) -> dict[str, dict]:
        return {k: p.snapshot() for k, p in self.profiles.items()}
