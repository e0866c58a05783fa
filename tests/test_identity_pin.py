"""Exact-identity pin on the simulated totals.

Every simulated number the experiments consume — cycles, native
instruction counts, the translate split, the category and opcode
histograms, the per-method profiles, program output and (for recorded
runs) the full native trace — is folded into one digest per run and
compared against a digest recorded before the host-side stepper and
sink were tuned.  Host-speed changes to the counting path must leave
every one of these bit-for-bit unchanged; the qualitative margins in
``test_golden_claims.py`` would not notice an off-by-one.  Two more
pins cover the JIT's other paths: a recorded jess run cold and then
warm against one code archive (translate vs. install), and the totals
of every oracle config over a short fuzz campaign (many small compiles),
with a second digest over their category and opcode histograms.
The same digest pins that a program is never written by a run: a
second run of one ``Program`` and every oracle config on one shared
render equal their fresh-program runs.  A short tiered ``api`` server
scenario pins a traffic run, profiles included, so a back-edge charged
to the wrong emit mode shows.  A small program that runs all 70 pure
ops, every branch both ways and every switch on a case and its
default, is pinned recorded under the interpreter, the JIT, the folder
and the ladder: jess and mtrt never run 35 of those ops (all seven
SpecJVM workloads at s0, 19), so a wrong effective address of one of
them shows only there.  Finally,
a counting run equals its recording twin on every result attribute but
the trace: both run pure ops in the stepper's frame-local loop, the
counting sink counting each template inline and the recording sink
building each op's effective addresses and emitting them, and the run
cache serves one's result for the other.  The same relation holds for
a run cut short by a pure op that raises, and for the bytecode at which
a back-edge promotion fires: the frame-local loop charges pure ops'
cycles once it stops, and must do so before either can be observed.
Each of these counting cases runs again (``hot:``) with every straight
line of pure ops generated as one function on its first visit
(``repro.vm.lines``): at the default gate their short loops never turn
hot.  The folder's cases build no line, and the all-pure-ops recordings
run their lines' timed twins once more with the tracer on.
Adding a class that nothing references leaves every result attribute
and the recording unchanged, while an unreferenced override of a
devirtualized target lowers the JIT's inlined sites: closed-world
class-hierarchy analysis reads every class of the program.

To re-record after an *intended* model change, run
``PYTHONPATH=src python tests/test_identity_pin.py`` and paste its
output over :data:`EXPECTED`.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.analysis.runner import run_vm
from repro.fuzz.gen import gen_program
from repro.fuzz.harness import SEED_STRIDE
from repro.fuzz.oracle import FUEL, MATRIX, run_config, run_oracle
from repro.isa import ClassBuilder
from repro.obs.tracer import TRACER
from repro.traffic.engine import run_scenario
from repro.traffic.spec import get_preset
from repro.vm import JavaVM, RunConfig, VMError, lines
from repro.vm.library import ensure_library
from repro.workloads import get_workload

from helpers import PURE_OPS, all_pure_ops_program, expr_main, observables

WORKLOADS = ("jess", "mtrt")

#: The five configs of ``test_differential.py``, the folding
#: interpreter, and recordings of the interpreter (the trace every
#: interpreter figure replays), the JIT, the folder and the ladder.
CONFIGS = {
    "interp": RunConfig(threshold=None),
    "jit": RunConfig(),
    "jit_opt": RunConfig(jit_opt=True),
    "lock_elision": RunConfig(lock_elision=True),
    "tiered": RunConfig(policy="tiered", t2_invocations=3, t2_backedges=32),
    "interp_fold": RunConfig(threshold=None, folding=True),
    "jit_rec": RunConfig(record=True),
    "interp_fold_rec": RunConfig(threshold=None, folding=True, record=True),
    "interp_rec": RunConfig(threshold=None, record=True),
}
CONFIGS["tiered_rec"] = CONFIGS["tiered"].replace(record=True)

_TRACE_COLUMNS = ("pc", "cat", "ea", "flags", "target", "dst", "src1",
                  "src2")

EXPECTED = {
    "jess/interp":
        "ac8742ff6ef5d5fde4b1997d5b57ad2dfbcf97aeaa2482e4d2eb2f113d887b4c",
    "jess/interp_fold":
        "8818ae5a936fdc655232e38c8b9cf90f9f9b30b91fac0a489d9645fa351409b4",
    "jess/interp_fold_rec":
        "3cf237550183dd54daccbc022e24e6f40736bb61b49733e1ec6445a94fb4549d",
    "jess/interp_rec":
        "d73787d7117e5d2f47d98ae2ce691fb9f39264e56e4f5d1a436bfd789f548a82",
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
    "jess/tiered_rec":
        "7a8f56b0905b5000dea34744bcd06441a066c79cde178e0d26d6a2ef05232149",
    "mtrt/interp":
        "ba66d54ede58905a2a436dca73376ae70356859361171bf5c242043f8eb6df1a",
    "mtrt/interp_fold":
        "ebf4a19b16bf93f457eabaa0c6f271a8f2d5d9f9712d98d5fa70bc973fc40043",
    "mtrt/interp_fold_rec":
        "3c4dfa250b93653f07d48cb03d3b105563c7463fe4d3cad99e09b0a5873fb5b2",
    "mtrt/interp_rec":
        "fa20eac64df083d46cebe604e4ddf356f221d0379fd653cf6030e27adf14b514",
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
    "mtrt/tiered_rec":
        "1814167040108831091b39a112dd9c74b48766c602461505fbe956408554be5c",
    "jess/jit_rec/archive_cold":
        "d9929a05d13cbeb5344744d7048d4527f0d5a2642548cd37a062c085e609a24f",
    "jess/jit_rec/archive_warm":
        "31442f74821f93a05e30ef3c3b514e44950d31ddd64d00093a0f604a59939099",
    "fuzz/seed0x20":
        "78b5f524fc2aa47c556b1511a98e62e67784193a69d6220af39626ea04896717",
    "fuzz/seed0x20/histograms":
        "a6ceff3cc15d987c93c0e94235efce5d366adcfc24889cbe9ba4646b9ae6d8ea",
    "server/api":
        "58f76d4bb6f2ad924bfa20f7874692da73726560bff511f0ac00388cb21820f3",
    "pure_ops/interp_rec":
        "abe1cf1e507ac3543cde2b18f62a0d23276403c4bcf09ded0fc24a0b06692162",
    "pure_ops/jit_rec":
        "1758ab9a50262af480497685e3497d483e302207af6e5b27018b630a473f53f5",
    "pure_ops/interp_fold_rec":
        "9aadca8100da5f530ad8276e890c055739bdf9511a36d4a45fe74019cbf9ad25",
    "pure_ops/tiered_rec":
        "2b74f7729de4b5e2c3cdeaada3e0d8c4e3ef2defd27574cbfdd8fbfbb680dbf6",
}


def summary(result) -> dict:
    """Every simulated observable of one run except its trace."""
    return {
        "cycles": int(result.cycles),
        "instructions": int(result.instructions),
        "translate_cycles": int(result.translate_cycles),
        "category_counts": [int(v) for v in result.category_counts],
        "opcode_counts": [int(v) for v in result.opcode_counts],
        "profiles": result.profiles,
        "stdout": result.stdout,
    }


def digest(result) -> str:
    """SHA-256 over every simulated observable of one run."""
    h = hashlib.sha256()
    h.update(json.dumps(summary(result), sort_keys=True).encode())
    if result.trace is not None:
        for column in _TRACE_COLUMNS:
            values = np.ascontiguousarray(getattr(result.trace, column))
            h.update(column.encode())
            h.update(values.astype(values.dtype.newbyteorder("<")).tobytes())
    return h.hexdigest()


def _run(workload: str, config: str):
    return run_vm(workload, "s0", CONFIGS[config], cache_dir="",
                  code_archive="")


def _archive_runs(directory: str) -> dict[str, str]:
    """Digests of a cold and then a warm recorded jess run against one
    fresh code archive: the install path replaces translation in the
    warm run, so its translate split and trace differ from the cold."""
    return {
        f"jess/jit_rec/archive_{state}": digest(run_vm(
            "jess", "s0", CONFIGS["jit_rec"], cache_dir="",
            code_archive=directory))
        for state in ("cold", "warm")
    }


#: Programs ``0..FUZZ_PROGRAMS-1`` of campaign seed ``FUZZ_SEED``.
FUZZ_SEED, FUZZ_PROGRAMS = 0, 20


def _totals(r) -> list:
    return [int(r.cycles), int(r.instructions), int(r.translate_cycles),
            int(r.execute_cycles)]


def _histograms(r) -> list:
    return [[int(v) for v in r.category_counts],
            [int(v) for v in r.opcode_counts]]


def fuzz_digest(observe=_totals) -> str:
    """SHA-256 over ``observe(result)`` of every oracle config of a short
    fuzz campaign (the e2e reference pins only its verdicts): the
    simulated totals by default, or with :func:`_histograms` the
    category and opcode histograms."""
    h = hashlib.sha256()
    for index in range(FUZZ_PROGRAMS):
        spec = gen_program(FUZZ_SEED * SEED_STRIDE + index)
        try:
            spec.render()
        except Exception:  # noqa: BLE001 - rejected by the verifier
            h.update(f"{index}:rejected".encode())
            continue
        for config, outcome in run_oracle(spec).outcomes.items():
            r = outcome.result
            seen = outcome.error if r is None else observe(r)
            h.update(json.dumps([index, config, seen]).encode())
    return h.hexdigest()


#: A short tiered run of the ``api`` server mix: it promotes, OSRs into
#: loops and recompiles at tier 2 within its first few hundred requests.
SERVER_SPEC = get_preset("api").replace(requests=300, seed=0)


def _server_run(config: RunConfig = RunConfig.of("tiered")):
    return run_scenario(SERVER_SPEC, config).vm_result


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_totals_unchanged(workload, config):
    result = _run(workload, config)
    assert result.opcode_counts.dtype == np.int64
    assert (result.trace is not None) == CONFIGS[config].record
    assert digest(result) == EXPECTED[f"{workload}/{config}"]


def test_code_archive_cold_and_warm_unchanged(tmp_path):
    got = _archive_runs(str(tmp_path / "archive"))
    assert got == {k: EXPECTED[k] for k in got}


def test_fuzz_campaign_totals_unchanged(monkeypatch):
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    assert fuzz_digest() == EXPECTED["fuzz/seed0x20"]


def test_fuzz_campaign_histograms_unchanged(monkeypatch):
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    assert (fuzz_digest(_histograms)
            == EXPECTED["fuzz/seed0x20/histograms"])


def test_server_run_unchanged():
    assert digest(_server_run()) == EXPECTED["server/api"]


def _vm_outcome(program, config: RunConfig):
    """``observables`` of one fuzz-fueled run, or its error text."""
    try:
        return observables(JavaVM(program, config).run(max_bytecodes=FUEL))
    except Exception as exc:  # noqa: BLE001 - errors are oracle data
        return f"{type(exc).__name__}: {exc}"


def _force_lines(monkeypatch) -> list:
    """Generate every hot line of the stepper on its first visit
    (``repro.vm.lines``); returns the list of lines built, each with
    the number of runs it logged (under a recording sink; 0 for a line
    that only counts its runs)."""
    built, build = [], lines.build

    def spy(code, start, templates, hook, env, eas=None):
        line = build(code, start, templates, hook, env, eas)
        entry = [line, 0]
        built.append(entry)
        if line is None or eas is None:
            return line
        fn = line[0]

        def logged(frame):
            entry[1] += 1
            return fn(frame)
        return (logged, *line[1:])

    monkeypatch.setattr(lines, "HOT_CYCLES", 0)
    monkeypatch.setattr(lines, "VISITS", 1)
    monkeypatch.setattr(lines, "build", spy)
    return built


_COUNTING_CASES = [
    *(f"{w}/{c}" for w in ("jess", "mtrt", "db")
      for c in ("interp", "jit", "tiered")),
    "jess/interp_fold", "fuzz", "server/api", "pure_ops",
]


@pytest.mark.parametrize("case", [
    *_COUNTING_CASES, *(f"hot:{case}" for case in _COUNTING_CASES)])
def test_counting_run_matches_recording_run(case, monkeypatch):
    """Counting sink (templates counted inline) == recording sink
    (effective addresses built and emitted) on every ``VMResult``
    attribute but the trace, so the run cache may serve a recording's
    stored result to counting callers.  A ``hot:`` case runs every
    straight line of pure ops as one generated function, in the
    recording twin too; a folding sink never takes one."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    hot, case = case.startswith("hot:"), case.removeprefix("hot:")
    built = _force_lines(monkeypatch) if hot else []
    if case == "server/api":
        config = RunConfig.of("tiered")
        assert (observables(_server_run(config))
                == observables(_server_run(config.replace(record=True))))
    elif case == "pure_ops":
        for name in ("interp", "jit", "interp_fold", "tiered"):
            config = CONFIGS[name]
            assert (observables(JavaVM(all_pure_ops_program(), config).run())
                    == observables(JavaVM(all_pure_ops_program(),
                                          config.replace(record=True)).run())
                    ), name
    elif case == "fuzz":
        # Every one of these seeds renders, so each is compared.
        for seed in range(20):
            program = gen_program(seed).render()
            for name, config in MATRIX.items():
                assert (_vm_outcome(program, config)
                        == _vm_outcome(program,
                                       config.replace(record=True))), (
                    seed, name)
    else:
        workload, name = case.split("/")
        config = CONFIGS[name]
        counted, recorded = (
            run_vm(workload, "s0", c, cache_dir="", code_archive="")
            for c in (config, config.replace(record=True)))
        assert recorded.trace is not None
        assert observables(counted) == observables(recorded)
    if "fold" in case:
        assert built == []
    else:
        assert bool(built) == hot
        assert any(logs for _, logs in built) == hot


def _pure_loop(trips: int, then_raise: bool):
    """main(): ``trips`` iterations of a loop of pure ops, then, when
    ``then_raise``, an ``iaload`` on null: a VMError raised by a pure op
    in the middle of the activation."""
    def body(m):
        loop, done = m.new_label(), m.new_label()
        m.iconst(0).istore(1).iconst(0).istore(2)
        m.bind(loop)
        m.iload(1).iconst(trips).if_icmpge(done)
        m.iload(2).iload(1).iadd().iconst(3).ixor().istore(2)
        m.iinc(1, 1).goto(loop)
        m.bind(done)
        if then_raise:
            m.aconst_null().iload(2).iaload()
        else:
            m.iload(2)
    return expr_main(body).build()


#: Recordings the all-pure-ops program is pinned under.
ALL_OPS_CONFIGS = ("interp_rec", "jit_rec", "interp_fold_rec", "tiered_rec")


@pytest.mark.parametrize("config", [
    *ALL_OPS_CONFIGS, *(f"hot:{config}" for config in ALL_OPS_CONFIGS),
    # The tracer's timed twin of each line.
    *(f"traced:hot:{config}" for config in ALL_OPS_CONFIGS
      if "fold" not in config)])
def test_all_pure_ops_recording_unchanged(config, monkeypatch):
    """Every pure op, run and recorded: a wrong effective address, branch
    outcome or switch target of any one of them changes the trace.  A
    ``hot:`` case runs and logs every straight line of pure ops as one
    generated function, except under the folder, which never takes a
    line; a ``traced:`` case does so with the tracer on."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    traced, config = (config.startswith("traced:"),
                      config.removeprefix("traced:"))
    hot, config = config.startswith("hot:"), config.removeprefix("hot:")
    built = _force_lines(monkeypatch) if hot else []
    if traced:
        TRACER.enable()
    try:
        result = JavaVM(all_pure_ops_program(), CONFIGS[config]).run()
    finally:
        if traced:
            TRACER.disable()
            TRACER.reset()
    assert len(PURE_OPS) == 70
    assert [op.name for op in PURE_OPS if not result.opcode_counts[op]] == []
    assert digest(result) == EXPECTED[f"pure_ops/{config}"]
    if "fold" in config:
        assert built == []
    else:
        assert any(logs for _, logs in built) == hot


@pytest.mark.parametrize("config", ["interp", "jit", "tiered",
                                    "hot:interp", "hot:jit", "hot:tiered"])
def test_counting_run_that_raises_matches_recording_run(config,
                                                         monkeypatch):
    """The counting stepper sums a run of pure ops' cycles in a local:
    a pure op that raises must still leave the sink's cycles, the
    opcode counts and every profile equal to the recording twin's.
    Under ``hot:`` the ``iaload`` raises inside a generated line."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    hot, config = config.startswith("hot:"), config.removeprefix("hot:")
    built = _force_lines(monkeypatch) if hot else []
    program = _pure_loop(50, then_raise=True)
    seen = []
    for record in (False, True):
        vm = JavaVM(program, RunConfig.of(config).replace(record=record))
        with pytest.raises(VMError, match="array load"):
            vm.run()
        seen.append((vm.sink.cycles, list(vm.opcode_counts),
                     vm.profiler.snapshot()))
    assert sum(seen[0][1]) > 400
    assert seen[0] == seen[1]
    assert bool(built) == hot
    assert any(logs for _, logs in built) == hot


def _promotions_and_outcome(program, config: RunConfig):
    """Each promotion of one run, with the bytecodes executed and the
    cycles charged when it fired, and the run's ``observables``."""
    vm = JavaVM(program, config)
    promote, promotions = vm.tiered._promote, []

    def spy(method, st, profile, tier):
        promotions.append((method.qualified_name, tier,
                           sum(vm.opcode_counts), vm.sink.cycles,
                           profile.interp_cycles))
        return promote(method, st, profile, tier)

    vm.tiered._promote = spy
    return promotions, observables(vm.run())


def test_backedge_promotion_matches_recording_run(monkeypatch):
    """A tier-1 promotion fired by the back-edge hook in the middle of a
    run of pure ops prices the method on the interpreter cycles charged
    so far, so it must happen at the same bytecode, and lead to the same
    transitions, under the counting stepper as under its recording
    twin (``VMResult.tiering`` holds the transitions)."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    _check_backedge_promotion()


def test_backedge_promotion_in_hot_lines_matches_recording_run(monkeypatch):
    """The same, with the loop run as generated lines: a line ending at
    the taken back edge counts its ops before the hook runs."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    built = _force_lines(monkeypatch)
    _check_backedge_promotion()
    assert any(logs for _, logs in built)


def _check_backedge_promotion() -> None:
    program = _pure_loop(400, then_raise=False)
    config = RunConfig.of("tiered")
    counted, recorded = (_promotions_and_outcome(program, c)
                         for c in (config, config.replace(record=True)))
    assert ("Test.main", 1) in [p[:2] for p in counted[0]]
    assert counted == recorded


def test_program_run_twice_matches_single_run(monkeypatch):
    """A program is never written by a run: a second VM on the same
    ``Program`` reproduces the first run exactly (class loading,
    statics and pool resolution included)."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    program = get_workload("db").build("s0")
    first, second = (digest(JavaVM(program, CONFIGS["jit"]).run())
                     for _ in range(2))
    assert second == first


def _unreferenced_class(name: str, super_name: str = "java/lang/Object",
                        method: str = "unreferencedBump"):
    """A class declaring an int field and one synchronized ``method``
    that bumps it and returns the new value."""
    cb = ClassBuilder(name, super_name)
    cb.field("count", "int")
    m = cb.method(method, returns=True, synchronized=True)
    m.aload(0).aload(0).getfield(name, "count").iconst(1).iadd()
    m.putfield(name, "count").aload(0).getfield(name, "count").ireturn()
    return cb.build()


@pytest.mark.parametrize("config", [
    "interp", "jit", "tiered", "jit,lock_elision=True",
    "tiered,static_concurrency=True"])
@pytest.mark.parametrize("workload", ["db", "jess"])
def test_unreachable_method_leaves_run_unchanged(workload, config,
                                                 monkeypatch):
    """Adding a class that nothing references, whose method name no
    other class declares, changes no ``VMResult`` attribute and no
    recording: the JIT's CHA and the static analyses read every class,
    but such a class answers none of their queries."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    config = RunConfig.of(config)
    program = get_workload(workload).build("s0")
    extra = _unreferenced_class("Unreferenced")
    program.add_class(extra)
    ensure_library(program)
    assert all(m.jclass is extra for m in program.all_methods()
               if m.name == "unreferencedBump")
    for c in (config, config.replace(record=True)):
        base = JavaVM(get_workload(workload).build("s0"), c).run()
        run = JavaVM(program, c).run()
        assert observables(run) == observables(base)
        assert digest(run) == digest(base)


def test_unreferenced_override_blocks_devirtualization(monkeypatch):
    """The relation's boundary: closed-world CHA reads every class, so
    an unreferenced subclass that overrides a devirtualized target makes
    its calls polymorphic, and the JIT inlines fewer sites."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    base = get_workload("db").build("s0")
    program = get_workload("db").build("s0")
    program.add_class(_unreferenced_class("spec/RecordOverride",
                                          "spec/Record", "getKey"))
    assert base.unique_target("spec/Record", "getKey") is not None
    assert program.unique_target("spec/Record", "getKey") is None
    base_run = JavaVM(base, "jit").run()
    run = JavaVM(program, "jit").run()
    assert run.inlined_sites < base_run.inlined_sites
    assert run.stdout == base_run.stdout


def _outcome_digest(outcome) -> str:
    return outcome.error if outcome.result is None else digest(
        outcome.result)


@pytest.mark.parametrize("source", ["fuzz", "jess"])
def test_shared_render_matches_fresh_render(source, monkeypatch):
    """Every ``MATRIX`` config, run in turn on one shared render, sees
    what it sees on a render of its own."""
    monkeypatch.delenv("REPRO_CODE_ARCHIVE", raising=False)
    if source == "jess":
        renders = [lambda: get_workload("jess").build("s0")]
    else:
        renders = [gen_program(seed).render for seed in range(20)]
    for render in renders:
        try:
            shared = render()
        except Exception:  # noqa: BLE001 - rejected by the verifier
            continue
        for config in MATRIX:
            assert (_outcome_digest(run_config(shared, config))
                    == _outcome_digest(run_config(render(), config))), config


if __name__ == "__main__":
    import tempfile

    os.environ.pop("REPRO_CODE_ARCHIVE", None)
    print("EXPECTED = {")
    for w in WORKLOADS:
        for c in sorted(CONFIGS):
            print(f'    "{w}/{c}":\n        "{digest(_run(w, c))}",')
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in _archive_runs(os.path.join(tmp, "a")).items():
            print(f'    "{key}":\n        "{value}",')
    print(f'    "fuzz/seed0x20":\n        "{fuzz_digest()}",')
    print(f'    "fuzz/seed0x20/histograms":\n'
          f'        "{fuzz_digest(_histograms)}",')
    print(f'    "server/api":\n        "{digest(_server_run())}",')
    for c in ALL_OPS_CONFIGS:
        result = JavaVM(all_pure_ops_program(), CONFIGS[c]).run()
        print(f'    "pure_ops/{c}":\n        "{digest(result)}",')
    print("}")
