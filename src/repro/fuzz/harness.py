"""The fuzzing campaign: generate → verify → compare → shrink → bank.

One campaign is fully determined by ``(seed, count)`` plus the oracle
knobs: program *i* is generated from ``seed * 1_000_003 + i``, so the
same seed always yields the same programs, verdicts, and reproducers
(run-to-run determinism is itself asserted by CI).

Semantic divergences are minimized (when enabled) and written as
assembly reproducers for `tests/fuzz_corpus/`; performance-anomaly
survivors can be promoted into the workload registry
(`repro/workloads/promoted/`) where they run forever after under the
full differential and characterization test suites.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..isa.asm import disassemble_program
from .gen import FUEL, ProgramSpec, gen_program
from .minimize import minimize_spec
from .oracle import DEFAULT_TOLERANCE, Verdict, run_oracle

#: Spread consecutive campaign indices across the seed space.
SEED_STRIDE = 1_000_003

#: Ceiling on workloads promoted per campaign (keeps the registry sane).
MAX_PROMOTIONS = 4


@dataclass
class Finding:
    """One diverging (or anomalous) program and its artifacts."""

    index: int
    seed: int
    kind: str                       # "divergence" | "anomaly"
    details: list[str]
    spec: ProgramSpec
    minimized: ProgramSpec | None = None
    shrink_runs: int = 0
    reproducer: str | None = None   # path the .asm was written to

    @property
    def final_spec(self) -> ProgramSpec:
        return self.minimized or self.spec


@dataclass
class CampaignResult:
    """Counters and findings of one fuzzing campaign."""

    seed: int
    requested: int
    generated: int = 0
    verify_rejected: int = 0
    executed: int = 0
    agreed: int = 0
    diverged: int = 0
    anomalous: int = 0
    minimized: int = 0
    promoted: list[str] = field(default_factory=list)
    stopped_early: bool = False
    elapsed: float = 0.0
    findings: list[Finding] = field(default_factory=list)
    anomaly_kinds: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "requested": self.requested,
            "generated": self.generated,
            "verify_rejected": self.verify_rejected,
            "executed": self.executed,
            "agreed": self.agreed,
            "diverged": self.diverged,
            "anomalous": self.anomalous,
            "anomaly_kinds": dict(sorted(self.anomaly_kinds.items())),
            "minimized": self.minimized,
            "promoted": list(self.promoted),
            "stopped_early": self.stopped_early,
            "elapsed_seconds": round(self.elapsed, 2),
            "findings": [
                {
                    "index": f.index,
                    "seed": f.seed,
                    "kind": f.kind,
                    "details": f.details,
                    "size": f.spec.size(),
                    "minimized_size": (f.minimized.size()
                                       if f.minimized else None),
                    "shrink_oracle_runs": f.shrink_runs,
                    "reproducer": f.reproducer,
                }
                for f in self.findings
            ],
        }


def run_campaign(
    seed: int,
    count: int,
    time_budget: float | None = None,
    minimize: bool = True,
    promote: bool = False,
    out_dir: str | Path | None = None,
    fuel: int = FUEL,
    tolerance: float = DEFAULT_TOLERANCE,
    progress=None,
) -> CampaignResult:
    """Run one deterministic fuzzing campaign.

    ``time_budget`` is a wall-clock cap in seconds; the campaign stops
    cleanly (``stopped_early``) when exceeded.  ``progress`` is an
    optional callable invoked with (index, result) after each program.
    """
    result = CampaignResult(seed=seed, requested=count)
    out = Path(out_dir) if out_dir else None
    started = time.monotonic()

    for index in range(count):
        if time_budget is not None and \
                time.monotonic() - started > time_budget:
            result.stopped_early = True
            break
        program_seed = seed * SEED_STRIDE + index
        spec = gen_program(program_seed)
        result.generated += 1
        try:
            program = spec.render()     # the typed verifier is the filter
        except Exception:  # noqa: BLE001 - rejection is a counter, not a bug
            result.verify_rejected += 1
            continue
        result.executed += 1

        verdict = run_oracle(spec, fuel=fuel, tolerance=tolerance,
                             program=program)
        if verdict.agreed and not verdict.anomalies:
            result.agreed += 1
        elif not verdict.agreed:
            result.diverged += 1
            finding = _bank_divergence(spec, verdict, index, program_seed,
                                       minimize, fuel, tolerance, out)
            result.findings.append(finding)
            if finding.minimized is not None:
                result.minimized += 1
        else:
            result.agreed += 1
            result.anomalous += 1
            for anomaly in verdict.anomalies:
                result.anomaly_kinds[anomaly.kind] = \
                    result.anomaly_kinds.get(anomaly.kind, 0) + 1
            finding = Finding(index=index, seed=program_seed, kind="anomaly",
                              details=[str(a) for a in verdict.anomalies],
                              spec=spec)
            if out is not None:
                finding.reproducer = _write_reproducer(out, spec, finding)
            result.findings.append(finding)
            if promote and len(result.promoted) < MAX_PROMOTIONS:
                name = promote_spec(spec, verdict)
                if name:
                    result.promoted.append(name)
        if progress is not None:
            progress(index, result)

    result.elapsed = time.monotonic() - started
    return result


def _bank_divergence(spec, verdict, index, program_seed, minimize,
                     fuel, tolerance, out) -> Finding:
    finding = Finding(index=index, seed=program_seed, kind="divergence",
                      details=[str(d) for d in verdict.divergences],
                      spec=spec)
    if minimize:
        reduced, runs = minimize_spec(spec, verdict, fuel, tolerance)
        finding.minimized = reduced
        finding.shrink_runs = runs
    if out is not None:
        finding.reproducer = _write_reproducer(out, finding.final_spec,
                                               finding)
    return finding


def spec_digest(spec: ProgramSpec) -> str:
    """Content digest of a spec's rendered assembly (stable identity)."""
    text = disassemble_program(spec.render())
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _write_reproducer(out: Path, spec: ProgramSpec,
                      finding: Finding) -> str:
    out.mkdir(parents=True, exist_ok=True)
    header = "\n".join(
        [f"fuzz reproducer: {finding.kind} (campaign index "
         f"{finding.index}, program seed {finding.seed})"]
        + finding.details
        + ["replay: assemble + run under each config (see "
           "repro.fuzz.oracle)"]
    )
    path = out / f"{finding.kind[:3]}_{spec_digest(spec)}.asm"
    path.write_text(disassemble_program(spec.render(), header=header))
    return str(path)


def promoted_dir() -> Path:
    """Where promoted workload sources live (inside the package)."""
    from .. import workloads
    return Path(workloads.__file__).resolve().parent / "promoted"


def promote_spec(spec: ProgramSpec, verdict: Verdict) -> str | None:
    """Promote an anomaly survivor into the workload registry.

    Writes the program as assembly under ``repro/workloads/promoted/``;
    the ``repro.workloads.promoted`` module registers every ``.asm``
    there at import time.  Returns the workload name, or ``None`` if
    this program was already promoted.
    """
    digest = spec_digest(spec)
    directory = promoted_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"fuzz_{digest}.asm"
    if path.exists():
        return None
    header = "\n".join(
        ["promoted fuzz survivor (performance anomaly)"]
        + [str(a) for a in verdict.anomalies]
        + [f"generator seed: {spec.seed}"]
    )
    path.write_text(disassemble_program(spec.render(), header=header))
    return f"fuzz_{digest}"
