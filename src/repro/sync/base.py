"""Lock-manager infrastructure shared by all synchronization designs.

The paper classifies monitor acquisitions into four cases:

- **(a)** locking an unlocked object,
- **(b)** recursive locking by the owner, depth < 256,
- **(c)** recursive locking by the owner, depth >= 256,
- **(d)** locking an object owned by another thread (the only
  contended case).

Every lock manager classifies identically (the distribution of Figure
11(i) is a property of the workload); they differ in the native work —
and therefore cycles — each case costs (Figure 11(ii)).
"""

from __future__ import annotations


#: Recursion threshold separating cases (b) and (c).
RECURSION_LIMIT = 256

CASE_UNLOCKED = "a"
CASE_RECURSIVE = "b"
CASE_DEEP_RECURSIVE = "c"
CASE_CONTENDED = "d"
ALL_CASES = (CASE_UNLOCKED, CASE_RECURSIVE, CASE_DEEP_RECURSIVE, CASE_CONTENDED)


class LockState:
    """Per-object lock word / monitor state."""

    __slots__ = ("owner", "count", "inflated")

    def __init__(self) -> None:
        self.owner: int | None = None   # owning thread id
        self.count = 0                  # recursion depth
        self.inflated = False           # escalated to a fat monitor

    def __repr__(self) -> str:
        return f"LockState(owner={self.owner}, count={self.count}, fat={self.inflated})"


class SyncStats:
    """Synchronization accounting for one VM run."""

    def __init__(self) -> None:
        self.case_counts = {c: 0 for c in ALL_CASES}
        self.acquire_ops = 0
        self.release_ops = 0
        self.cycles = 0
        self.objects_locked: set[int] = set()
        # Escape-analysis lock elision (acquisitions/releases that never
        # reached the lock manager, bucketed by the case they would have
        # been; violations = foreign thread touched a mid-elision object).
        self.elided_acquires = 0
        self.elided_releases = 0
        self.elided_case_counts = {c: 0 for c in ALL_CASES}
        self.elision_violations = 0

    def snapshot(self) -> dict:
        return {
            "case_counts": dict(self.case_counts),
            "acquire_ops": self.acquire_ops,
            "release_ops": self.release_ops,
            "cycles": self.cycles,
            "distinct_objects": len(self.objects_locked),
            "elided_acquires": self.elided_acquires,
            "elided_releases": self.elided_releases,
            "elided_case_counts": dict(self.elided_case_counts),
            "elision_violations": self.elision_violations,
        }


def classify(state: LockState | None, thread_id: int) -> str:
    """Which of the paper's four cases this acquisition attempt is."""
    if state is None or state.count == 0:
        return CASE_UNLOCKED
    if state.owner == thread_id:
        if state.count < RECURSION_LIMIT:
            return CASE_RECURSIVE
        return CASE_DEEP_RECURSIVE
    return CASE_CONTENDED


class LockManager:
    """Interface the VM's monitorenter/monitorexit path uses.

    Subclasses implement :meth:`_acquire_cost` / :meth:`_release_cost`,
    emitting their native work into the sink and returning cycles.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.stats = SyncStats()

    # -- protocol ---------------------------------------------------------
    def acquire(self, thread_id: int, obj, sink) -> tuple[bool, str]:
        """Attempt to lock ``obj``; returns (acquired, case)."""
        state = obj.lock
        case = classify(state, thread_id)
        self.stats.acquire_ops += 1
        self.stats.case_counts[case] += 1
        self.stats.objects_locked.add(obj.lockword_addr)
        self.stats.cycles += self._acquire_cost(obj, case, sink)
        if case == CASE_CONTENDED:
            return False, case
        if state is None:
            state = obj.lock = LockState()
        state.owner = thread_id
        state.count += 1
        if case == CASE_DEEP_RECURSIVE:
            state.inflated = True
        return True, case

    def release(self, thread_id: int, obj, sink) -> None:
        state = obj.lock
        if state is None or state.owner != thread_id or state.count <= 0:
            raise RuntimeError(
                f"thread {thread_id} releasing a monitor it does not own: {state}"
            )
        self.stats.release_ops += 1
        self.stats.cycles += self._release_cost(obj, state, sink)
        state.count -= 1
        if state.count == 0:
            state.owner = None

    # -- cost hooks ---------------------------------------------------------
    def _acquire_cost(self, obj, case: str, sink) -> int:
        raise NotImplementedError

    def _release_cost(self, obj, state: LockState, sink) -> int:
        raise NotImplementedError
