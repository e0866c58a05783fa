"""``repro.lint`` — static analysis findings over bytecode programs.

Runs every dataflow analysis (structural + typed verification,
unreachable code, dead stores, constant branches, escape/lock-elision
facts, interprocedural race detection) over a program and reports
:class:`Finding` records with stable error codes (see
``repro.analysis.dataflow.findings``).

The CLI (``python -m repro.lint``) lints every bundled SpecJVM workload
with the runtime library linked in, can self-test against the
adversarial corpus (``corpus.py``), and can diff the findings against a
checked-in golden file so new findings fail CI loudly.
"""

from __future__ import annotations

import os

from ..analysis.dataflow import build_cfg
from ..analysis.dataflow.constprop import constant_branches
from ..analysis.dataflow.escape import EscapeSummaries
from ..analysis.dataflow.findings import CODES, Finding
from ..analysis.dataflow.liveness import dead_stores
from ..analysis.dataflow.typestate import typecheck_method
from ..isa.method import Method, Program
from ..isa.verifier import VerifyError, verify_method

__all__ = ["Finding", "CODES", "lint_method", "lint_program",
           "lint_workload", "lint_asm_dir", "concurrency_findings"]


def lint_method(method: Method, program: Program | None = None,
                summaries: EscapeSummaries | None = None) -> list[Finding]:
    """All findings for one bytecode method."""
    if method.is_native or not method.code:
        return []
    qn = method.qualified_name
    try:
        verify_method(method)
    except VerifyError as exc:
        return [Finding(getattr(exc, "code", "RS000"), qn, -1, str(exc))]

    findings: list[Finding] = []
    cfg = build_cfg(method)

    # unreachable code: one finding per maximal dead run
    run_start = None
    for i in range(len(method.code) + 1):
        dead = i < len(method.code) and method.depth_in[i] == -1
        if dead and run_start is None:
            run_start = i
        elif not dead and run_start is not None:
            findings.append(Finding(
                "RL001", qn, run_start,
                f"instructions {run_start}..{i - 1} are unreachable"))
            run_start = None

    findings.extend(typecheck_method(method, program, cfg=cfg).findings)
    for idx in dead_stores(method, cfg=cfg):
        findings.append(Finding(
            "RL002", qn, idx,
            f"store to local {method.code[idx].a} is never read"))
    findings.extend(constant_branches(method, cfg=cfg))
    if summaries is not None:
        findings.extend(summaries.findings(method))
    return findings


def concurrency_findings(program: Program,
                         summaries: EscapeSummaries | None = None
                         ) -> list[Finding]:
    """Whole-program ``RC0xx`` findings from the race detector.

    Returns ``[]`` for programs without an entry point (single-method
    corpus cases) — the interprocedural passes need a root to walk from.
    """
    from ..analysis.concurrency import analyze_program
    try:
        return analyze_program(program, escape=summaries).all_findings()
    except (KeyError, ValueError):
        return []


def lint_program(program: Program, escape: bool = True,
                 concurrency: bool = True) -> list[Finding]:
    """All findings for every bytecode method of ``program``."""
    summaries = EscapeSummaries(program) if escape else None
    findings: list[Finding] = []
    for method in program.all_methods():
        findings.extend(lint_method(method, program, summaries))
    if concurrency:
        findings.extend(concurrency_findings(program, summaries))
    return findings


def lint_workload(name: str, scale: str = "s0") -> list[Finding]:
    """Build a bundled workload (library linked) and lint it."""
    from ..vm.library import ensure_library
    from ..workloads.base import get_workload

    program = get_workload(name).build(scale)
    ensure_library(program)
    return lint_program(program)


def prefixed(findings: list[Finding], prefix: str) -> list[Finding]:
    """Re-key findings under ``prefix:`` so same-named programs (every
    fuzz-promoted workload calls its body ``Main.fuzzbody``) stay
    distinct in golden files."""
    return [Finding(f.code, f"{prefix}:{f.method}", f.index, f.message)
            for f in findings]


def lint_asm_dir(path: str) -> list[Finding]:
    """Assemble and lint every ``*.asm`` under ``path``.

    Each file is linted as its own program (library linked), and the
    finding's method name is prefixed with the file stem so findings
    from different files never collide in golden keys.
    """
    from ..isa.asm import assemble
    from ..vm.library import ensure_library

    findings: list[Finding] = []
    for entry in sorted(os.listdir(path)):
        if not entry.endswith(".asm"):
            continue
        stem = entry[:-4]
        with open(os.path.join(path, entry)) as fh:
            program = assemble(fh.read())
        ensure_library(program)
        findings.extend(prefixed(lint_program(program), stem))
    return findings
