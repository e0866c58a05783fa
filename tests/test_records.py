"""Committed records re-checked from their stored numbers.

``python -m repro.bench check`` re-evaluates each record's guard table
(and the ``faults`` guard over its manifest) without running anything.
Every committed ``BENCH_*.json`` and the kernel baseline must pass; each
mutation below is a drift the checker must catch.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import pytest

from repro.bench.__main__ import main as bench_main
from repro.obs.record import problems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDS = sorted(
    p for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    if not p.endswith(".manifest.json")
) + [os.path.join(ROOT, "benchmarks", "bench_baseline.json")]


def test_every_committed_record_passes():
    assert len(RECORDS) >= 5, RECORDS
    assert bench_main(["check", *RECORDS]) == 0


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _copy(tmp_path, name):
    """A committed record and its manifest, copied into ``tmp_path``."""
    for suffix in (".json", ".manifest.json"):
        shutil.copy(os.path.join(ROOT, name + suffix),
                    tmp_path / (name + suffix))
    path = str(tmp_path / (name + ".json"))
    return path, _load(path)


def _fault(tmp_path, name, injected, recovered):
    """Rewrite a copied record's manifest as a run under a fault plan."""
    manifest_path = tmp_path / (name + ".manifest.json")
    manifest = _load(manifest_path)
    manifest["config"]["REPRO_FAULTS"] = "corrupt-archive:times=3;seed=7"
    manifest["faults"] = {"plan": "corrupt-archive:times=3;seed=7",
                          "injected": injected, "observed": {},
                          "recovered": recovered}
    _dump(manifest_path, manifest)


def test_speculate_put_back_fails_the_schema(tmp_path):
    path, record = _copy(tmp_path, "BENCH_tiered")
    record["strategy"]["speculate"] = True
    _dump(path, record)
    assert "guard schema failed" in problems(path)
    assert bench_main(["check", path]) == 1


def test_deleted_section_fails(tmp_path):
    path, record = _copy(tmp_path, "BENCH_tiered")
    del record["wall_sampling"]
    _dump(path, record)
    found = problems(path)
    assert "guard wall_steady: missing section 'wall_sampling'" in found
    assert "guard wall_steady failed" in found


def test_codecache_reduction_below_half_fails(tmp_path):
    path, record = _copy(tmp_path, "BENCH_codecache")
    record["totals"]["reduction_fraction"] = 0.4
    _dump(path, record)
    assert "guard translate_halved failed" in problems(path)


def test_flipped_verdict_without_new_numbers_fails(tmp_path):
    path, record = _copy(tmp_path, "BENCH_server")
    record["guards"]["tiered_beats_jit"] = False
    _dump(path, record)
    assert problems(path) == [
        "stored verdict tiered_beats_jit=False differs from "
        "re-evaluated True"]


def test_faulted_run_without_recovery_fails(tmp_path):
    path, record = _copy(tmp_path, "BENCH_codecache")
    _fault(tmp_path, "BENCH_codecache", {"corrupt-archive": 3}, {})
    assert "guard faults failed" in problems(path)


def test_faulted_run_is_judged_by_its_correctness_guards(tmp_path):
    # corrupt-archive:times=3 legitimately leaves archive misses behind:
    # hit-rate guards read None, correctness guards and faults still hold.
    path, record = _copy(tmp_path, "BENCH_codecache")
    del record["guards"]
    record["per_workload"]["db"]["archive_misses"] = 3
    record["totals"]["hit_rate"] = 0.93
    _dump(path, record)
    _fault(tmp_path, "BENCH_codecache", {"corrupt-archive": 3},
           {"quarantine": 3})
    assert problems(path) == []
    record["chaos"]["identical"] = False
    _dump(path, record)
    assert problems(path) == ["guard chaos_identical failed"]


@pytest.mark.parametrize("record, manifest", [
    ({"tool": "no.such.tool"}, None),
    ({"numbers": [1, 2]}, {"tool": "repro-fuzz"}),
])
def test_record_no_guard_applies_to_fails(tmp_path, record, manifest):
    path = str(tmp_path / "stray.json")
    _dump(path, record)
    if manifest is not None:
        _dump(str(tmp_path / "stray.manifest.json"), manifest)
    assert problems(path)[0].startswith("no guard applies")
    assert bench_main(["check", path]) == 1


def test_missing_manifest_fails(tmp_path):
    path, _ = _copy(tmp_path, "BENCH_tiered")
    os.remove(tmp_path / "BENCH_tiered.manifest.json")
    assert problems(path)[0].startswith("missing manifest")


def _kernel_targets(tmp_path, keep, speedup=None):
    """The committed kernel record cut down to the ``keep`` targets,
    each speedup optionally overwritten."""
    path, record = _copy(tmp_path, "BENCH_kernels")
    record["targets"] = {t: e for t, e in record["targets"].items()
                         if t in keep}
    assert sorted(record["targets"]) == sorted(keep)
    if speedup is not None:
        for entry in record["targets"].values():
            entry["speedup"] = speedup
    _dump(path, record)
    return path


def test_target_subset_is_judged_on_its_own_targets(tmp_path):
    """A ``--targets fig9`` run is held to the baseline's fig9 entry
    alone, not failed for the targets it did not measure."""
    path = _kernel_targets(tmp_path, ["fig9"])
    assert problems(path) == []


def test_low_speedup_fails_the_floor(tmp_path):
    path = _kernel_targets(tmp_path, ["fig9"], speedup=1.0)
    assert "guard speedup_floor failed" in problems(path)
    assert bench_main(["check", path]) == 1


def test_record_sharing_no_baseline_target_fails(tmp_path):
    path = _kernel_targets(tmp_path, [])
    assert "guard speedup_floor failed" in problems(path)
