"""The oracle ("opt") hybrid model of Section 3.

For a method ``i`` with interpret cost ``I_i`` per invocation, translate
cost ``T_i``, compiled-execute cost ``E_i`` per invocation and ``n_i``
invocations, the crossover point is ``N_i = T_i / (I_i - E_i)``: compile
iff ``n_i > N_i``.  With profiles from one interpreter run and one
JIT run (the runs are deterministic, so ``n_i`` matches), the oracle's
total time for each method is simply ``min(T_i + E_i*n_i, I_i*n_i)``.

This module computes the per-method decisions, the oracle's projected
total time, and the oracle-policy :class:`~repro.vm.config.RunConfig`
that makes a real mixed-mode VM run enact them.
"""

from __future__ import annotations

import math

from ..vm.config import RunConfig


class MethodDecision:
    """The oracle's verdict for one method."""

    __slots__ = ("name", "n", "interp_total", "translate", "exec_total",
                 "crossover", "compile")

    def __init__(self, name: str, n: int, interp_total: float,
                 translate: float, exec_total: float) -> None:
        self.name = name
        self.n = n
        self.interp_total = interp_total
        self.translate = translate
        self.exec_total = exec_total
        interp_per = interp_total / n if n else 0.0
        exec_per = exec_total / n if n else 0.0
        if interp_per > exec_per:
            self.crossover = translate / (interp_per - exec_per)
        else:
            self.crossover = math.inf
        self.compile = (translate + exec_total) < interp_total

    @property
    def oracle_cost(self) -> float:
        return min(self.translate + self.exec_total, self.interp_total)

    def __repr__(self) -> str:
        verdict = "compile" if self.compile else "interpret"
        return (
            f"MethodDecision({self.name}, n={self.n}, N={self.crossover:.1f},"
            f" -> {verdict})"
        )


class OracleAnalysis:
    """Combines an interpreter-run profile with a JIT-run profile."""

    def __init__(self, interp_result, jit_result) -> None:
        self.interp_result = interp_result
        self.jit_result = jit_result
        self.decisions: dict[str, MethodDecision] = {}
        self._build()

    def _build(self) -> None:
        ip = self.interp_result.profiles
        jp = self.jit_result.profiles
        for name, j in jp.items():
            if j.get("is_native"):
                continue
            i = ip.get(name)
            n = j["invocations"]
            if n == 0 or i is None:
                continue
            interp_total = i["interp_cycles"]
            if interp_total == 0:
                continue
            self.decisions[name] = MethodDecision(
                name=name,
                n=n,
                interp_total=interp_total,
                translate=j["translate_cycles"],
                exec_total=j["compiled_cycles"],
            )

    # ------------------------------------------------------------------
    @property
    def methods_to_compile(self) -> set[str]:
        return {d.name for d in self.decisions.values() if d.compile}

    def config(self) -> RunConfig:
        """The run config enacting these decisions in a real mixed-mode
        run."""
        return RunConfig(policy="oracle", compile_set=self.methods_to_compile)

    # ------------------------------------------------------------------
    # projected times (the paper's analytical opt model)
    # ------------------------------------------------------------------
    @property
    def jit_total(self) -> float:
        return float(self.jit_result.cycles)

    @property
    def interp_total(self) -> float:
        return float(self.interp_result.cycles)

    @property
    def oracle_total(self) -> float:
        """Projected cycles under per-method-optimal decisions.

        Starts from the always-JIT total and swaps each decided method's
        JIT-run cost (translate + execute) for the better of its two
        options; everything undecided (natives, loader, allocator,
        synchronization) is common to both configurations.
        """
        jp = self.jit_result.profiles
        total = self.jit_total
        for d in self.decisions.values():
            j = jp[d.name]
            jit_cost = (j["interp_cycles"] + j["compiled_cycles"]
                        + j["translate_cycles"])
            total += d.oracle_cost - jit_cost
        return total

    @property
    def oracle_saving(self) -> float:
        """Fractional saving of opt vs. always-JIT (the 10-15 % result)."""
        if self.jit_total == 0:
            return 0.0
        return 1.0 - self.oracle_total / self.jit_total

    @property
    def interp_to_jit_ratio(self) -> float:
        """The number printed on top of each Figure 1 bar."""
        return self.interp_total / self.jit_total if self.jit_total else 0.0

    def summary(self) -> dict:
        compiled = self.methods_to_compile
        return {
            "methods": len(self.decisions),
            "compiled_by_oracle": len(compiled),
            "interpreted_by_oracle": len(self.decisions) - len(compiled),
            "jit_total": self.jit_total,
            "interp_total": self.interp_total,
            "oracle_total": self.oracle_total,
            "oracle_saving": self.oracle_saving,
            "interp_to_jit_ratio": self.interp_to_jit_ratio,
        }
