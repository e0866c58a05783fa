"""Static/dynamic cross-check: the race detector against the running VM.

For each generated multithreaded program (``gen_mt_program``), three
comparisons:

1. **Soundness** — every allocation site the static side claims is
   elision-safe (escape-proven thread-local, or concurrency-proven
   single-locker) must never be locked by a foreign thread at runtime.
   The interpreter runs with ``track_confinement=True`` so each object
   knows its allocation site and thread; a "safe" site in
   ``foreign_locked_sites`` is a soundness bug in the analysis, not a
   warning.  Violating programs are delta-minimized and written out as
   reproducers.
2. **Equivalence** — the tiered VM consuming the static summaries
   (``static_concurrency=True``) must print exactly what pure
   interpretation prints and must finish with zero elision violations.
3. **Precision** (a statistic, not a gate) — how many statically racy
   field/static locations were actually observed shared by two or more
   threads at runtime.  Lockset analysis over-approximates; this
   quantifies by how much.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..vm import JavaVM
from ..vm.config import STRESS_TIERED
from .gen import FUEL, ProgramSpec, gen_mt_program
from .harness import SEED_STRIDE

__all__ = ["SeedCheck", "CrossCheckResult", "check_spec", "run_crosscheck"]


def static_claims(program) -> tuple[set, set]:
    """(claimed-safe sites, claimed-racy locations) for ``program``.

    Sites are ``(qualified method name, instruction index)`` — the same
    key the confinement tracker tags onto runtime objects.
    """
    from ..analysis.concurrency import analyze_program

    ca = analyze_program(program)
    claims = set(ca.safe_claims())
    for m in program.all_methods():
        if m.is_native or not m.code:
            continue
        qn = m.qualified_name
        claims.update((qn, idx) for idx in ca.escape.elidable_allocs(m))
    return claims, set(ca.racy_locations())


@dataclass
class SeedCheck:
    """Everything the cross-check learned about one program."""

    seed: int
    claims: int = 0
    foreign_sites: int = 0
    violations: list = field(default_factory=list)   # (qn, site) pairs
    equivalence_ok: bool = True
    equivalence_detail: str = ""
    racy_claims: int = 0
    racy_confirmed: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (self.error is None and not self.violations
                and self.equivalence_ok)


def check_spec(spec: ProgramSpec, fuel: int = FUEL) -> SeedCheck:
    """Run the three comparisons for one spec."""
    from ..vm.library import ensure_library

    check = SeedCheck(seed=spec.seed)
    try:
        program = spec.render()
        ensure_library(program)
        claims, racy_locs = static_claims(program)
        check.claims = len(claims)
        check.racy_claims = len(racy_locs)

        # dynamic ground truth: interpret with the confinement tracker
        vm = JavaVM(program, "interp,track_confinement=True")
        result = vm.run(max_bytecodes=fuel)
        tracker = vm.confinement
        check.foreign_sites = len(tracker.foreign_locked_sites)
        check.violations = sorted(claims & tracker.foreign_locked_sites)

        # equivalence: tiered-with-static-summaries vs interpretation
        # the differential oracle's hair-trigger ladder, so speculation
        # and deopt fire inside small programs
        tvm = JavaVM(program,
                     STRESS_TIERED.replace(static_concurrency=True))
        tresult = tvm.run(max_bytecodes=fuel)
        violations = tresult.sync.get("elision_violations", 0)
        if tuple(tresult.stdout) != tuple(result.stdout):
            check.equivalence_ok = False
            check.equivalence_detail = (
                f"stdout {tuple(tresult.stdout)!r} != "
                f"{tuple(result.stdout)!r}")
        elif violations:
            check.equivalence_ok = False
            check.equivalence_detail = (
                f"{violations} elision violation(s) under static plans")

        check.racy_confirmed = len(racy_locs & tracker.shared_locations())
    except Exception as exc:  # noqa: BLE001 - campaign data, not a crash
        check.error = f"{type(exc).__name__}: {exc}"
    return check


def _violates(spec: ProgramSpec, fuel: int) -> bool:
    """Minimizer predicate: does the spec still show a soundness bug?"""
    check = check_spec(spec, fuel=fuel)
    return bool(check.violations)


@dataclass
class CrossCheckResult:
    """Aggregate of one cross-check campaign."""

    checked: int = 0
    render_rejected: int = 0
    errored: int = 0
    total_claims: int = 0
    total_foreign: int = 0
    violations: list = field(default_factory=list)
    equivalence_failures: list = field(default_factory=list)
    racy_claims: int = 0
    racy_confirmed: int = 0
    reproducers: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.equivalence_failures

    def summary(self) -> dict:
        precision = (self.racy_confirmed / self.racy_claims
                     if self.racy_claims else None)
        return {
            "checked": self.checked,
            "render_rejected": self.render_rejected,
            "errored": self.errored,
            "static_claims": self.total_claims,
            "foreign_locked_sites": self.total_foreign,
            "soundness_violations": len(self.violations),
            "equivalence_failures": len(self.equivalence_failures),
            "racy_claims": self.racy_claims,
            "racy_confirmed": self.racy_confirmed,
            "racy_precision": precision,
            "violations": self.violations[:20],
            "reproducers": self.reproducers,
        }


def run_crosscheck(seed: int = 0, count: int = 200, fuel: int = FUEL,
                   out_dir: str | None = None, minimize: bool = False,
                   progress=None) -> CrossCheckResult:
    """Cross-check ``count`` generated multithreaded programs."""
    result = CrossCheckResult()
    for index in range(count):
        program_seed = seed * SEED_STRIDE + index
        try:
            spec = gen_mt_program(program_seed)
            spec.render()
        except Exception:  # noqa: BLE001 - verify-rejected: not our bug
            result.render_rejected += 1
            continue
        check = check_spec(spec, fuel=fuel)
        result.checked += 1
        if check.error is not None:
            result.errored += 1
            continue
        result.total_claims += check.claims
        result.total_foreign += check.foreign_sites
        result.racy_claims += check.racy_claims
        result.racy_confirmed += check.racy_confirmed
        if check.violations:
            if minimize:
                from .minimize import Minimizer
                spec = Minimizer(
                    spec, None, fuel, 0.0,
                    predicate=lambda c: _violates(c, fuel)).minimize()
            result.violations.append({
                "seed": program_seed,
                "sites": [list(v) for v in check.violations],
            })
            if out_dir:
                result.reproducers.append(
                    _write_reproducer(out_dir, spec, check))
        if not check.equivalence_ok:
            result.equivalence_failures.append({
                "seed": program_seed,
                "detail": check.equivalence_detail,
            })
        if progress is not None:
            progress(index, result)
    return result


def _write_reproducer(out_dir: str, spec: ProgramSpec,
                      check: SeedCheck) -> str:
    import os

    from ..isa.asm import disassemble_program
    from .harness import spec_digest

    os.makedirs(out_dir, exist_ok=True)
    header = [
        "crosscheck reproducer: static 'safe' claim foreign-locked at "
        "runtime",
        f"seed {spec.seed}; sites "
        + "; ".join(f"{qn}@{site}" for qn, site in check.violations),
    ]
    path = os.path.join(out_dir, f"soundness_{spec_digest(spec)}.asm")
    with open(path, "w") as fh:
        fh.write(disassemble_program(spec.render(), header=header))
    return path
