"""Exact-identity pin on the simulated totals.

Every simulated number the experiments consume — cycles, native
instruction counts, the translate split, the category and opcode
histograms, the per-method profiles, program output and (for recorded
runs) the full native trace — is folded into one digest per run and
compared against a digest recorded before the host-side stepper and
sink were tuned.  Host-speed changes to the counting path must leave
every one of these bit-for-bit unchanged; the qualitative margins in
``test_golden_claims.py`` would not notice an off-by-one.

To re-record after an *intended* model change, run
``PYTHONPATH=src python tests/test_identity_pin.py`` and paste its
output over :data:`EXPECTED`.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.runner import run_vm

WORKLOADS = ("jess", "mtrt")

#: The five configs of ``test_differential.py`` plus the folding
#: interpreter and the two recording paths.
CONFIGS = {
    "interp": {"mode": "interp"},
    "jit": {"mode": "jit"},
    "jit_opt": {"mode": "jit", "jit_opt": True},
    "lock_elision": {"mode": "jit", "lock_elision": True},
    "tiered": {"mode": ("tiered", 2, 3, 4)},
    "interp_fold": {"mode": "interp", "folding": True},
    "jit_rec": {"mode": "jit", "record": True},
    "interp_fold_rec": {"mode": "interp", "folding": True, "record": True},
}

_TRACE_COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1",
                  "src2")

EXPECTED = {
    "jess/interp":
        "ac8742ff6ef5d5fde4b1997d5b57ad2dfbcf97aeaa2482e4d2eb2f113d887b4c",
    "jess/interp_fold":
        "8818ae5a936fdc655232e38c8b9cf90f9f9b30b91fac0a489d9645fa351409b4",
    "jess/interp_fold_rec":
        "3cf237550183dd54daccbc022e24e6f40736bb61b49733e1ec6445a94fb4549d",
    "jess/jit":
        "6fdedbfa0d9ec273f5c4a0de7ecc80453431152752184ef876219d747255a9d8",
    "jess/jit_opt":
        "6fdedbfa0d9ec273f5c4a0de7ecc80453431152752184ef876219d747255a9d8",
    "jess/jit_rec":
        "d9929a05d13cbeb5344744d7048d4527f0d5a2642548cd37a062c085e609a24f",
    "jess/lock_elision":
        "6fdedbfa0d9ec273f5c4a0de7ecc80453431152752184ef876219d747255a9d8",
    "jess/tiered":
        "3e34316581dd4631fe8a087d9389ab2d72660c946588fc35fd4d250ef0279ed9",
    "mtrt/interp":
        "ba66d54ede58905a2a436dca73376ae70356859361171bf5c242043f8eb6df1a",
    "mtrt/interp_fold":
        "ebf4a19b16bf93f457eabaa0c6f271a8f2d5d9f9712d98d5fa70bc973fc40043",
    "mtrt/interp_fold_rec":
        "3c4dfa250b93653f07d48cb03d3b105563c7463fe4d3cad99e09b0a5873fb5b2",
    "mtrt/jit":
        "327d0c15f10cc57a5d45a7b5f10c3c867f869fb6c324f8d5bfaf777969d56886",
    "mtrt/jit_opt":
        "327d0c15f10cc57a5d45a7b5f10c3c867f869fb6c324f8d5bfaf777969d56886",
    "mtrt/jit_rec":
        "2217103342ba938149e45c257ecf472e206e8e9ba950d229f8c2a67e54f41879",
    "mtrt/lock_elision":
        "327d0c15f10cc57a5d45a7b5f10c3c867f869fb6c324f8d5bfaf777969d56886",
    "mtrt/tiered":
        "b54a3ada66e65321bff06d2ddf8fe58767db2a9b77fc669dcdcc36ee0ce8996d",
}


def digest(result) -> str:
    """SHA-256 over every simulated observable of one run."""
    h = hashlib.sha256()
    summary = {
        "cycles": int(result.cycles),
        "instructions": int(result.instructions),
        "translate_cycles": int(result.translate_cycles),
        "category_counts": [int(v) for v in result.category_counts],
        "opcode_counts": [int(v) for v in result.opcode_counts],
        "profiles": result.profiles,
        "stdout": result.stdout,
    }
    h.update(json.dumps(summary, sort_keys=True).encode())
    if result.trace is not None:
        for column in _TRACE_COLUMNS:
            values = np.ascontiguousarray(getattr(result.trace, column))
            h.update(column.encode())
            h.update(values.astype(values.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def _run(workload: str, config: str):
    return run_vm(workload, scale="s0", cache_dir="", code_archive="",
                  **CONFIGS[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_totals_unchanged(workload, config):
    result = _run(workload, config)
    assert result.opcode_counts.dtype == np.int64
    assert (result.trace is not None) == CONFIGS[config].get("record", False)
    assert digest(result) == EXPECTED[f"{workload}/{config}"]


if __name__ == "__main__":
    print("EXPECTED = {")
    for w in WORKLOADS:
        for c in sorted(CONFIGS):
            print(f'    "{w}/{c}":\n        "{digest(_run(w, c))}",')
    print("}")
