"""Exact-identity pin on the superscalar pipeline model.

Every :class:`PipelineResult` field at widths 1/2/4/8 is compared against
values recorded before the scheduler was restructured, under the default
machine and under a stress machine (8-entry ROB, 1 KiB direct-mapped
caches).  The traces are the db s0 interpreter and JIT traces plus seeded
synthetic streams that cover register ``-1`` operands, every ``NCat``,
deep call/return nesting and long ROB-full stretches.  Host-speed changes
to the pipeline model must leave every number bit-for-bit unchanged.

To re-record after an *intended* model change, run
``PYTHONPATH=src python tests/test_pipeline_pin.py`` and paste its
output over :data:`EXPECTED`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.branch import Gshare, run_predictor
from repro.arch.pipeline import PipelineConfig, simulate_pipeline
from repro.native.nisa import FLAG_TAKEN, FLAG_WRITE, NCat
from repro.native.trace import Trace

WIDTHS = (1, 2, 4, 8)

CONFIGS = {
    "default": {},
    "stress": dict(rob_size=8, icache_size=1 << 10, dcache_size=1 << 10,
                   icache_assoc=1, dcache_assoc=1),
}

FIELDS = ("instructions", "cycles", "mispredicts", "imisses", "dmisses")


def _synthetic(seed: int, n: int = 4000) -> Trace:
    """Random events over every category; register ``-1`` on about one
    operand in six; a small pc/ea pool so the caches both hit and miss."""
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, len(NCat), n)
    pc = rng.integers(0, 1 << 12, n) * 4
    ea = rng.integers(0, 1 << 14, n) * 8
    mem = (cat == NCat.LOAD) | (cat == NCat.STORE)
    flags = (np.where(rng.random(n) < 0.6, FLAG_TAKEN, 0)
             | np.where(cat == NCat.STORE, FLAG_WRITE, 0))
    return Trace.from_columns(
        pc=pc, cat=cat, ea=np.where(mem, ea, 0), flags=flags,
        target=rng.integers(0, 64, n) * 4,
        dst=rng.integers(-1, 32, n), src1=rng.integers(-1, 32, n),
        src2=rng.integers(-1, 32, n))


def _rob_bound(n: int = 3000) -> Trace:
    """A divide chain with independent filler between its links: the
    ROB fills behind every divide.  Calls nest 20 deep before returning
    to their callers, overflowing the 16-entry return-address stack."""
    cats, dsts, src1s, targets, pcs = [], [], [], [], []
    stack: list[int] = []
    calling = True
    for i in range(n):
        pc = 0x4000 + 4 * (i % 200)
        target, dst, src1 = 0, 2 + i % 9, -1
        if i % 10 == 0:
            cat, dst, src1 = NCat.IDIV, 1, 1
        elif i % 10 == 5:
            calling = (calling and len(stack) < 20) or not stack
            if calling:
                cat, target = NCat.CALL, 0x8000 + 4 * (i % 7)
                stack.append(pc + 4)
            else:
                cat, target = NCat.RET, stack.pop()
            dst = -1
        else:
            cat = NCat.IALU
        pcs.append(pc), cats.append(int(cat)), targets.append(target)
        dsts.append(dst), src1s.append(src1)
    return Trace.from_columns(
        pc=pcs, cat=cats, ea=np.zeros(n), flags=np.full(n, FLAG_TAKEN),
        target=targets, dst=dsts, src1=src1s, src2=np.full(n, -1))


def _traces() -> dict:
    """The pinned traces; each memoizes a config's event columns, so
    they are computed once for all widths."""
    from repro.analysis.runner import get_trace

    traces = {f"db/{mode}": get_trace("db", "s0", mode, cache_dir="")
              for mode in ("interp", "jit")}
    for seed in (0, 1, 2):
        traces[f"synthetic{seed}"] = _synthetic(seed)
    traces["rob_bound"] = _rob_bound()
    return traces


@pytest.fixture(scope="module")
def traces():
    return _traces()


def observe(trace, config: str) -> dict:
    observed = {}
    for w in WIDTHS:
        result = simulate_pipeline(
            trace, PipelineConfig(width=w, **CONFIGS[config]))
        observed[w] = [getattr(result, f) for f in FIELDS]
    return observed


EXPECTED = {
    "db/interp/default": {
        1: [117153, 139832, 5095, 135, 513],
        2: [117153, 95785, 5095, 135, 513],
        4: [117153, 82342, 5095, 135, 513],
        8: [117153, 77632, 5095, 135, 513],
    },
    "db/interp/stress": {
        1: [117153, 225230, 5095, 7108, 6498],
        2: [117153, 185448, 5095, 7108, 6498],
        4: [117153, 172560, 5095, 7108, 6498],
        8: [117153, 169835, 5095, 7108, 6498],
    },
    "db/jit/default": {
        1: [93407, 114750, 1531, 558, 967],
        2: [93407, 92340, 1531, 558, 967],
        4: [93407, 81675, 1531, 558, 967],
        8: [93407, 80568, 1531, 558, 967],
    },
    "db/jit/stress": {
        1: [93407, 163872, 1531, 4982, 3145],
        2: [93407, 139007, 1531, 4982, 3145],
        4: [93407, 128448, 1531, 4982, 3145],
        8: [93407, 127856, 1531, 4982, 3145],
    },
    "synthetic0/default": {
        1: [4000, 12998, 1071, 512, 507],
        2: [4000, 11678, 1071, 512, 507],
        4: [4000, 11245, 1071, 512, 507],
        8: [4000, 11171, 1071, 512, 507],
    },
    "synthetic0/stress": {
        1: [4000, 37554, 1071, 3760, 537],
        2: [4000, 35117, 1071, 3760, 537],
        4: [4000, 35028, 1071, 3760, 537],
        8: [4000, 35028, 1071, 3760, 537],
    },
    "synthetic1/default": {
        1: [4000, 13110, 1090, 512, 485],
        2: [4000, 11778, 1090, 512, 485],
        4: [4000, 11329, 1090, 512, 485],
        8: [4000, 11263, 1090, 512, 485],
    },
    "synthetic1/stress": {
        1: [4000, 37316, 1090, 3728, 522],
        2: [4000, 34876, 1090, 3728, 522],
        4: [4000, 34784, 1090, 3728, 522],
        8: [4000, 34784, 1090, 3728, 522],
    },
    "synthetic2/default": {
        1: [4000, 13289, 1066, 512, 499],
        2: [4000, 12005, 1066, 512, 499],
        4: [4000, 11574, 1066, 512, 499],
        8: [4000, 11506, 1066, 512, 499],
    },
    "synthetic2/stress": {
        1: [4000, 37762, 1066, 3776, 538],
        2: [4000, 35318, 1066, 3776, 538],
        4: [4000, 35244, 1066, 3776, 538],
        8: [4000, 35244, 1066, 3776, 538],
    },
    "rob_bound/default": {
        1: [3000, 6033, 4, 25, 0],
        2: [3000, 6013, 4, 25, 0],
        4: [3000, 6009, 4, 25, 0],
        8: [3000, 6009, 4, 25, 0],
    },
    "rob_bound/stress": {
        1: [3000, 6941, 4, 25, 0],
        2: [3000, 6641, 4, 25, 0],
        4: [3000, 6342, 4, 25, 0],
        8: [3000, 6342, 4, 25, 0],
    },
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("name", ["db/interp", "db/jit", "synthetic0",
                                  "synthetic1", "synthetic2", "rob_bound"])
def test_pipeline_results_unchanged(traces, name, config):
    assert observe(traces[name], config) == EXPECTED[f"{name}/{config}"]


def test_pin_holds_under_the_compiled_scheduler(traces, monkeypatch):
    """The pin runs under whichever kernel the environment selects; this
    case holds the compiled kernels to it whatever that is."""
    from repro.arch import compiled

    if compiled.find_compiler() is None:
        pytest.skip("no C compiler on this host")
    monkeypatch.setenv("REPRO_SIM_KERNEL", "vector")
    for config in sorted(CONFIGS):
        assert observe(traces["rob_bound"], config) == \
            EXPECTED[f"rob_bound/{config}"]
        # Earlier reads of recorded traces may have noted "decode" too.
        assert {layer: compiled.IMPLEMENTATIONS[layer] for layer in (
            "pipeline", "caches", "branch")} == {
            "pipeline": "c", "caches": "c", "branch": "c"}


@pytest.mark.parametrize("kernel", ["scalar", "vector"])
def test_table2_counts_the_pipeline_mispredicts(kernel):
    """Table 2's gshare row and the pipeline model share one front end,
    so they count the same mispredicts, also where calls nest past the
    16-entry return-address stack."""
    trace = _rob_bound()
    table2 = run_predictor(Gshare(), *trace.transfers(), kernel=kernel)
    pipeline = simulate_pipeline(trace, kernel=kernel)
    assert table2.mispredicts == pipeline.mispredicts


if __name__ == "__main__":
    print("EXPECTED = {")
    for name, trace in _traces().items():
        for config in sorted(CONFIGS):
            print(f'    "{name}/{config}": {{')
            for w, values in observe(trace, config).items():
                print(f"        {w}: {values},")
            print("    },")
    print("}")
