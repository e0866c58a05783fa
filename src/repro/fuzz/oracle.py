"""Differential oracle: run one program under every execution
configuration and compare.

Two verdict families:

* **semantic** — the configurations must be indistinguishable on every
  mode-independent observable: stdout, bytecodes executed, classes
  loaded, heap effects, and (normalized) synchronization effects.  Lock
  elision legitimately changes *which* acquire path runs, so the
  normalized acquire/release counts fold the elided operations back in
  (``acquire_ops + elided_acquires``) and the per-case breakdown is not
  compared against elision configs; elision *violations* are always a
  divergence.
* **performance** — anomalies, not bugs by definition: JIT'd execution
  retiring more cycles than pure interpretation, an analysis-driven
  optimization (jit_opt) costing more execute cycles or native
  instructions than the plain JIT.  These mirror the "JIT slower than
  interpreter" class of JIT performance bugs.

A configuration that *raises* is folded into the comparison as an error
outcome: all configs raising the same error type agree; one config
raising while another completes is a semantic divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..isa.method import Program
from ..vm import JavaVM, RunConfig, VMResult
from ..vm.config import STRESS_TIERED
from .gen import FUEL, ProgramSpec

#: The execution-configuration matrix, in comparison order.  ``tiered``
#: runs the online ladder with deliberately hair-trigger thresholds and
#: the tier-2 benefit screen off, so promotion, OSR, speculation and
#: deoptimization all fire inside even small generated programs.
MATRIX = {
    "interp": RunConfig(threshold=None),
    "jit": RunConfig(),
    "jit_opt": RunConfig(jit_opt=True),
    "lock_elision": RunConfig(lock_elision=True),
    "tiered": STRESS_TIERED,
}
CONFIGS = tuple(MATRIX)

#: Configs whose sync comparison must use elision-normalized keys
#: (tier 2 elides speculatively, so ``tiered`` belongs here too).
_ELISION = frozenset({"lock_elision", "tiered"})

#: Default headroom for the performance oracles (fraction).
DEFAULT_TOLERANCE = 0.02

#: Translate share above which a program is flagged as an interesting
#: compile-cost outlier (the paper's hello/db phenomenon, taken to its
#: extreme).  Calibrated so only ~1-2% of generated programs qualify.
TRANSLATE_SHARE = 0.77


@dataclass
class Outcome:
    """What one configuration did with the program."""

    config: str
    result: VMResult | None = None
    error: str | None = None          # "ErrorType: message" when it raised

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Divergence:
    """One observable on which two configurations disagree."""

    left: str
    right: str
    key: str
    left_value: object
    right_value: object

    @property
    def signature(self) -> tuple:
        return (self.left, self.right, self.key)

    def __str__(self) -> str:
        return (f"{self.left} vs {self.right}: {self.key} "
                f"{self.left_value!r} != {self.right_value!r}")


@dataclass
class Anomaly:
    """A performance-oracle finding (suspicious, not necessarily wrong)."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass
class Verdict:
    """The oracle's full judgement of one program."""

    divergences: list[Divergence] = field(default_factory=list)
    anomalies: list[Anomaly] = field(default_factory=list)
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    cycles: dict[str, int] = field(default_factory=dict)

    @property
    def agreed(self) -> bool:
        return not self.divergences

    @property
    def signature(self) -> frozenset:
        """Order-independent identity of the semantic failure."""
        return frozenset(d.signature for d in self.divergences)


def observables(result: VMResult, elision: bool) -> dict:
    """The mode-independent facts of one run.

    ``elision`` selects the normalized sync view so that a lock-elision
    run can be compared against non-eliding configurations.
    """
    sync = result.sync
    obs = {
        "stdout": tuple(result.stdout),
        "bytecodes": result.bytecodes_executed,
        "classes_loaded": result.classes_loaded,
        "heap_allocs": result.heap.get("allocations"),
        "heap_bytes": result.heap.get("allocated_bytes"),
        "sync_acquires": sync["acquire_ops"] + sync.get("elided_acquires", 0),
        "sync_releases": sync["release_ops"] + sync.get("elided_releases", 0),
        "elision_violations": sync.get("elision_violations", 0) and "VIOLATED",
    }
    if not elision:
        # Only comparable between configs that elide nothing.
        obs["sync_cases"] = tuple(sorted(sync["case_counts"].items()))
        obs["sync_objects"] = sync["distinct_objects"]
    return obs


def run_config(program: Program, config: str,
               fuel: int = FUEL) -> Outcome:
    """Execute ``program`` under one configuration, capturing errors."""
    outcome = Outcome(config)
    try:
        vm = JavaVM(program, MATRIX[config])
        outcome.result = vm.run(max_bytecodes=fuel)
    except Exception as exc:  # noqa: BLE001 - errors are oracle data
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def run_oracle(
    spec: ProgramSpec,
    fuel: int = FUEL,
    tolerance: float = DEFAULT_TOLERANCE,
    mutate: tuple[str, Callable[[Program], Program]] | None = None,
    configs: tuple[str, ...] = CONFIGS,
    program: Program | None = None,
) -> Verdict:
    """Run ``spec`` under every configuration and compare.

    Every configuration runs the same rendered program (``program``, or
    one render of ``spec``): a program is never written by a run, all
    run-time state lives in the VM.  ``mutate=(config, fn)`` applies
    ``fn`` to a render of its own for that one config: the
    planted-miscompile hook used by the oracle's own sanity check.
    """
    verdict = Verdict()
    if program is None:
        program = spec.render()
    for config in configs:
        victim = program
        if mutate and mutate[0] == config:
            victim = mutate[1](spec.render())
        verdict.outcomes[config] = run_config(victim, config, fuel=fuel)

    # -- semantic comparison (all pairs) ------------------------------------
    for i, left in enumerate(configs):
        for right in configs[i + 1:]:
            verdict.divergences.extend(
                _compare(verdict.outcomes[left], verdict.outcomes[right])
            )

    for config, outcome in verdict.outcomes.items():
        if outcome.ok:
            verdict.cycles[config] = outcome.result.cycles

    # -- performance oracles (only meaningful when everything ran) ----------
    if verdict.agreed and all(o.ok for o in verdict.outcomes.values()):
        verdict.anomalies.extend(
            _perf_anomalies(verdict.outcomes, tolerance)
        )
    return verdict


def _compare(left: Outcome, right: Outcome) -> list[Divergence]:
    if left.error or right.error:
        lt = (left.error or "").split(":")[0]
        rt = (right.error or "").split(":")[0]
        if lt != rt:
            return [Divergence(left.config, right.config, "outcome",
                               left.error or "completed",
                               right.error or "completed")]
        return []
    eliding = bool(_ELISION & {left.config, right.config})
    lo = observables(left.result, elision=eliding)
    ro = observables(right.result, elision=eliding)
    return [
        Divergence(left.config, right.config, key, lo[key], ro[key])
        for key in lo if lo[key] != ro[key]
    ]


def _perf_anomalies(outcomes: dict[str, Outcome],
                    tolerance: float) -> list[Anomaly]:
    interp = outcomes["interp"].result
    jit = outcomes["jit"].result
    jit_opt = outcomes["jit_opt"].result
    anomalies = []
    # A JIT whose *execution* (translate excluded: one-shot cost) retires
    # more cycles than interpretation has a codegen quality bug.
    if jit.execute_cycles > interp.cycles * (1 + tolerance):
        anomalies.append(Anomaly(
            "jit_slower_than_interp",
            f"jit execute_cycles={jit.execute_cycles} > "
            f"interp cycles={interp.cycles}"))
    if jit_opt.execute_cycles > jit.execute_cycles * (1 + tolerance):
        anomalies.append(Anomaly(
            "opt_cycle_regression",
            f"jit_opt execute_cycles={jit_opt.execute_cycles} > "
            f"jit execute_cycles={jit.execute_cycles}"))
    if jit_opt.instructions > jit.instructions:
        anomalies.append(Anomaly(
            "opt_instruction_regression",
            f"jit_opt instructions={jit_opt.instructions} > "
            f"jit instructions={jit.instructions}"))
    # Informational, not a bug: an extreme compile-cost outlier — the
    # JIT spends nearly everything translating code it barely reuses.
    # These are the survivors worth promoting into the workload set
    # (they stress exactly what tiered execution is meant to fix).
    share = jit.translate_cycles / jit.cycles if jit.cycles else 0.0
    if share > TRANSLATE_SHARE:
        anomalies.append(Anomaly(
            "translate_dominated",
            f"translate share {share:.3f} of jit cycles "
            f"({jit.translate_cycles}/{jit.cycles})"))
    return anomalies
