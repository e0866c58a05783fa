"""Delta-debugging minimizer for diverging program specs.

Works on the statement tree (not raw bytecode): candidate reductions are
(1) deleting a single statement from any block, (2) replacing a compound
statement with its own body (unwrap an If/Loop/Sync/Switch), (3) forcing
a loop's trip count to 1, and (4) dropping unused helper methods.  A
reduction is kept iff the reduced spec still renders to a verifiable
program *and* the oracle still reports a divergence whose signature
intersects the original one — the classic "interestingness" predicate of
delta debugging, specialized to differential verdicts.

Greedy fixpoint: apply passes until no reduction sticks.  Deterministic
(no randomness), so a minimized reproducer is stable across runs.
"""

from __future__ import annotations

import copy

from .gen import If, Loop, ProgramSpec, Stmt, Switch, Sync
from .oracle import Verdict, run_oracle


class Minimizer:
    """``predicate`` overrides the oracle-based interestingness test
    (used by the minimizer's own unit tests)."""

    def __init__(self, spec: ProgramSpec, verdict: Verdict | None,
                 fuel: int, tolerance: float, predicate=None) -> None:
        self.spec = spec
        self.target = verdict.signature if verdict is not None else None
        self.fuel = fuel
        self.tolerance = tolerance
        self.predicate = predicate
        self.oracle_runs = 0

    def _still_fails(self, candidate: ProgramSpec) -> bool:
        try:
            program = candidate.render()
        except Exception:  # noqa: BLE001 - any render failure disqualifies
            return False
        self.oracle_runs += 1
        if self.predicate is not None:
            return bool(self.predicate(candidate))
        verdict = run_oracle(candidate, fuel=self.fuel,
                             tolerance=self.tolerance, program=program)
        return bool(verdict.signature & self.target)

    # -- one pass of each reduction family ----------------------------------
    def _try_deletions(self, spec: ProgramSpec) -> ProgramSpec | None:
        for bi, block in enumerate(spec.all_blocks()):
            for si in range(len(block)):
                candidate = copy.deepcopy(spec)
                del candidate.all_blocks()[bi][si]
                if self._still_fails(candidate):
                    return candidate
        return None

    def _try_unwraps(self, spec: ProgramSpec) -> ProgramSpec | None:
        for bi, block in enumerate(spec.all_blocks()):
            for si, stmt in enumerate(block):
                if not isinstance(stmt, (If, Loop, Sync, Switch)):
                    continue
                inner = [s for nested in stmt.blocks() for s in nested]
                candidate = copy.deepcopy(spec)
                candidate.all_blocks()[bi][si:si + 1] = \
                    copy.deepcopy(inner)
                if self._still_fails(candidate):
                    return candidate
        return None

    def _try_loop_trips(self, spec: ProgramSpec) -> ProgramSpec | None:
        for bi, block in enumerate(spec.all_blocks()):
            for si, stmt in enumerate(block):
                if isinstance(stmt, Loop) and stmt.trip > 1:
                    candidate = copy.deepcopy(spec)
                    candidate.all_blocks()[bi][si].trip = 1
                    if self._still_fails(candidate):
                        return candidate
        return None

    def _try_drop_helpers(self, spec: ProgramSpec) -> ProgramSpec | None:
        used = _used_helpers(spec)
        keep = [h for h in spec.helpers if h.name in used]
        if len(keep) < len(spec.helpers):
            candidate = copy.deepcopy(spec)
            candidate.helpers = copy.deepcopy(keep)
            if self._still_fails(candidate):
                return candidate
        return None

    def minimize(self, max_rounds: int = 200) -> ProgramSpec:
        spec = self.spec
        for _ in range(max_rounds):
            for attempt in (self._try_deletions, self._try_unwraps,
                            self._try_loop_trips, self._try_drop_helpers):
                reduced = attempt(spec)
                if reduced is not None:
                    spec = reduced
                    break
            else:
                break       # fixpoint: nothing reduced this round
        return spec


def _used_helpers(spec: ProgramSpec) -> set[str]:
    used: set[str] = set()

    def walk_expr(e) -> None:
        if not isinstance(e, tuple):
            return
        if e and e[0] == "call":
            used.add(e[1])
            for arg in e[2]:
                walk_expr(arg)
            return
        for part in e:
            if isinstance(part, tuple):
                walk_expr(part)

    def walk_stmt(s: Stmt) -> None:
        for value in vars(s).values():
            if isinstance(value, tuple):
                walk_expr(value)
        for block in s.blocks():
            for inner in block:
                walk_stmt(inner)

    for block in spec.all_blocks():
        for stmt in block:
            walk_stmt(stmt)
    for helper in spec.helpers:
        walk_expr(helper.expr)      # helpers may call helpers in future
    return used


def minimize_spec(spec: ProgramSpec, verdict: Verdict,
                  fuel: int, tolerance: float) -> tuple[ProgramSpec, int]:
    """Shrink ``spec`` while ``verdict``'s divergence reproduces.

    Returns the minimized spec and the number of oracle runs spent.
    """
    minimizer = Minimizer(spec, verdict, fuel, tolerance)
    reduced = minimizer.minimize()
    return reduced, minimizer.oracle_runs
