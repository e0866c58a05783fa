"""Tiered adaptive execution: the online strategy vs the paper's bounds.

Two experiments plus a benchmark emitter:

- ``tiered``: the seven SPEC-style workloads under interp, first-use
  JIT, the online tiered policy (:mod:`repro.vm.tiering`), and the
  oracle, reporting how much of the oracle's cycle advantage over the
  JIT the online ladder recovers — the realizable fraction of the
  paper's Section 3 bound.
- ``ablation_tiered``: the hotness-threshold sweep.  ``compile_ratio``
  prices tier-1 promotion against the translate-cost model; sweeping it
  moves the ladder between "compile everything immediately" (the JIT
  pole) and "never compile" (the interp pole).

``python -m repro.experiments.tiered --out BENCH_tiered.json`` runs
both plus the deoptimization scenarios below and writes a record
judged by :data:`GUARDS` (the recovered fraction, and every tier
transition — promotion, OSR entry, deopt — actually fired).

The deopt scenarios are crafted programs for the speculation-failure
paths no workload triggers organically:

- ``lock_escape``: a hot loop allocates a lock-heavy object at a site
  escape analysis cannot prove (it is published to a static field), so
  tier 2 elides its lock *speculatively*; a second thread then locks
  the published object, forcing the exact-repair path and a
  deoptimization of the running loop frame.
- ``class_load``: a hot call site is devirtualized under a
  loaded-world CHA assumption; lazily loading a subclass that
  overrides the target invalidates the assumption and deoptimizes
  before the first dispatch on the new class.
"""

from __future__ import annotations

from ..analysis.parallel import oracle_job, run_job
from ..analysis.runner import oracle_run, run_vm
from ..isa import ProgramBuilder
from ..obs.record import correctness, write
from ..vm import JavaVM, RunConfig
from ..vm.config import STRESS_TIERED
from ..workloads.base import SPEC_BENCHMARKS
from .base import ExperimentResult, experiment

#: compile_ratio values for the hotness-threshold sweep.
SWEEP_RATIOS = (0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0)

#: The online ladder at its default thresholds.
TIERED = RunConfig(policy="tiered")


def sweep_config(ratio: float) -> RunConfig:
    """The ladder of the ``compile_ratio`` sweep at one ratio.  Its
    ``t2_backedges`` is 8 x ``osr_backedges``, as the sweep has always
    run, not the default ladder's 512."""
    return TIERED.replace(t2_backedges=32, compile_ratio=ratio)


# ----------------------------------------------------------------------
# deoptimization scenarios
# ----------------------------------------------------------------------
def lock_escape_program() -> ProgramBuilder:
    """Speculative lock elision that fails: spinner thread S allocates
    a Box per iteration, publishes it to a static field (escapes ->
    unprovable), and locks it via a synchronized method; toucher thread
    T locks whatever is published.  Main blocks in join while S and T
    interleave (the scheduler switches on bytecode quanta, so the
    interleaving — and with it every observable — is identical under
    every execution config).  stdout is the constant loop count."""
    pb = ProgramBuilder("deopt-lock", main_class="Main")

    box = pb.cls("Box")
    box.method("<init>").return_()
    box.method("poke", synchronized=True).return_()

    main_cls = pb.cls("Main")
    main_cls.static_field("g", "ref")

    s = pb.cls("S", super_name="java/lang/Thread")
    run = s.method("run")
    loop = run.new_label()
    done = run.new_label()
    run.iconst(0).istore(1)
    run.bind(loop)
    run.iload(1).iconst(200).if_icmpge(done)
    run.new("Box").dup()
    run.invokespecial("Box", "<init>", 0)
    run.astore(2)
    run.aload(2).putstatic("Main", "g")
    run.aload(2).invokevirtual("Box", "poke", 0, False)
    run.iinc(1, 1)
    run.goto(loop)
    run.bind(done)
    run.return_()

    t = pb.cls("T", super_name="java/lang/Thread")
    run = t.method("run")
    loop = run.new_label()
    done = run.new_label()
    skip = run.new_label()
    run.iconst(0).istore(1)
    run.bind(loop)
    run.iload(1).iconst(300).if_icmpge(done)
    run.getstatic("Main", "g").astore(2)
    run.aload(2).ifnull(skip)
    run.aload(2).invokevirtual("Box", "poke", 0, False)
    run.bind(skip)
    run.iinc(1, 1)
    run.goto(loop)
    run.bind(done)
    run.return_()

    m = main_cls.method("main", static=True)
    m.new("S").dup().invokespecial("S", "<init>", 0).astore(1)
    m.new("T").dup().invokespecial("T", "<init>", 0).astore(2)
    m.aload(1).invokevirtual("java/lang/Thread", "start", 0, False)
    m.aload(2).invokevirtual("java/lang/Thread", "start", 0, False)
    m.aload(1).invokevirtual("java/lang/Thread", "join", 0, False)
    m.aload(2).invokevirtual("java/lang/Thread", "join", 0, False)
    m.getstatic("java/lang/System", "out").iconst(200)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


def class_load_program() -> ProgramBuilder:
    """Loaded-world CHA speculation that fails: while only Base is
    loaded, the hot ``Main.call`` devirtualizes ``Base.val``; lazily
    loading Derived (which overrides it) must deoptimize ``call``
    before the first dispatch on a Derived instance.  stdout is the
    arithmetic witness: 100 * 1 + 2."""
    pb = ProgramBuilder("deopt-cha", main_class="Main")

    base = pb.cls("Base")
    base.method("<init>").return_()
    base.method("val", returns=True).iconst(1).ireturn()

    derived = pb.cls("Derived", super_name="Base")
    derived.method("<init>").return_()
    derived.method("val", returns=True).iconst(2).ireturn()

    main_cls = pb.cls("Main")
    call = main_cls.method("call", argc=1, returns=True, static=True)
    call.aload(0).invokevirtual("Base", "val", 0, True).ireturn()

    m = main_cls.method("main", static=True)
    m.new("Base").dup().invokespecial("Base", "<init>", 0).astore(0)
    m.iconst(0).istore(1)          # sum
    m.iconst(0).istore(2)          # i
    loop = m.new_label()
    done = m.new_label()
    m.bind(loop)
    m.iload(2).iconst(100).if_icmpge(done)
    m.aload(0).invokestatic("Main", "call", 1, True)
    m.iload(1).iadd().istore(1)
    m.iinc(2, 1)
    m.goto(loop)
    m.bind(done)
    m.new("Derived").dup().invokespecial("Derived", "<init>", 0).astore(3)
    m.aload(3).invokestatic("Main", "call", 1, True)
    m.iload(1).iadd().istore(1)
    m.getstatic("java/lang/System", "out").iload(1)
    m.invokevirtual("java/io/PrintStream", "printlnInt", 1, False)
    m.return_()
    return pb


SCENARIOS = {
    "lock_escape": (lock_escape_program, ["200"]),
    "class_load": (class_load_program, ["102"]),
}


def run_scenario(name: str, config: RunConfig | str = STRESS_TIERED):
    """Run one deopt scenario (without daemon threads); returns the
    VMResult.  The default ladder promotes fast with the screen off, so
    the speculative paths are reached within a few dozen iterations."""
    builder, _expected = SCENARIOS[name]
    config = RunConfig.of(config).replace(spawn_daemons=False)
    return JavaVM(builder().build(), config).run()


def run_scenarios() -> dict:
    """All deopt scenarios; per-scenario counters plus stdout check."""
    out = {}
    for name, (builder, expected) in SCENARIOS.items():
        res = run_scenario(name)
        t = res.tiering
        out[name] = {
            "stdout_ok": res.stdout == expected,
            "promotions_t1": t["promotions_t1"],
            "promotions_t2": t["promotions_t2"],
            "osr_entries": t["osr_entries"],
            "deopts": t["deopts"],
            "deopt_reasons": t["deopt_reasons"],
            "speculation_failures": t["speculation_failures"],
        }
    return out


def static_concurrency_comparison() -> dict:
    """The lock_escape scenario with and without the static race
    detector's summaries feeding the tier-2 screen.

    Without summaries the engine speculates on the escaping Box site
    and pays a lock-escape deoptimization when the toucher thread locks
    the published object.  With ``static_concurrency=True`` the lockset
    analysis pre-blacklists the site (the Box class is locked by two
    threads), so the engine never speculates: zero lock-escape deopts,
    zero elision violations, identical stdout (all three guarded)."""
    out = {}
    for label, static in (("static_off", False), ("static_on", True)):
        res = run_scenario("lock_escape", STRESS_TIERED.replace(
            static_concurrency=static))
        t = res.tiering
        out[label] = {
            "stdout_ok": res.stdout == SCENARIOS["lock_escape"][1],
            "deopts": t["deopts"],
            "lock_escape_deopts":
                t["deopt_reasons"].get("lock_escape", 0),
            "speculative_marks": t["speculative_marks"],
            "elision_violations":
                res.sync.get("elision_violations", 0),
        }
    off, on = out["static_off"], out["static_on"]
    out["deopts_avoided"] = (off["lock_escape_deopts"]
                             - on["lock_escape_deopts"])
    return out


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def _tiered_jobs(scale: str = "s1", benchmarks=None) -> list:
    jobs = []
    for name in benchmarks or SPEC_BENCHMARKS:
        jobs.append(oracle_job(name, scale))
        jobs.append(run_job(name, scale, TIERED))
    return jobs


def gap_recovered(scale: str = "s1", benchmarks=None) -> dict:
    """Suite totals for jit/tiered/oracle/interp plus the fraction of
    the oracle's advantage over first-use JIT the online ladder
    recovers.  The building block for the experiment and the CI guard."""
    benchmarks = tuple(benchmarks or SPEC_BENCHMARKS)
    per = {}
    interp_total = jit_total = oracle_total = tiered_total = 0
    counters = {"promotions_t1": 0, "promotions_t2": 0, "osr_entries": 0,
                "deopts": 0, "speculative_marks": 0}
    for name in benchmarks:
        analysis, mixed = oracle_run(name, scale)
        tiered = run_vm(name, scale, TIERED)
        row = {
            "interp": analysis.interp_result.cycles,
            "jit": analysis.jit_result.cycles,
            "tiered": tiered.cycles,
            "oracle": mixed.cycles,
            "tiering": {k: tiered.tiering[k] for k in counters},
        }
        per[name] = row
        interp_total += row["interp"]
        jit_total += row["jit"]
        oracle_total += row["oracle"]
        tiered_total += row["tiered"]
        for k in counters:
            counters[k] += tiered.tiering[k]
    gap = jit_total - oracle_total
    return {
        "scale": scale,
        "benchmarks": list(benchmarks),
        "strategy": TIERED.describe(),
        "per_workload": per,
        "totals": {
            "interp": interp_total,
            "jit": jit_total,
            "tiered": tiered_total,
            "oracle": oracle_total,
        },
        "oracle_gap_cycles": gap,
        "recovered_cycles": jit_total - tiered_total,
        "recovered_fraction": round((jit_total - tiered_total) / gap, 4)
        if gap else None,
        "tiering": counters,
    }


@experiment("tiered", jobs=_tiered_jobs)
def run_tiered(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Online tiering vs the paper's strategy poles."""
    data = gap_recovered(scale, benchmarks)
    rows = []
    for name, row in data["per_workload"].items():
        jit = row["jit"]
        t = row["tiering"]
        rows.append([
            name,
            jit,
            round(row["interp"] / jit, 3),
            round(row["tiered"] / jit, 3),
            round(row["oracle"] / jit, 3),
            t["promotions_t1"],
            t["promotions_t2"],
            t["osr_entries"],
            t["deopts"],
        ])
    tot = data["totals"]
    frac = data["recovered_fraction"]
    extra = (
        f"suite cycles: jit={tot['jit']} tiered={tot['tiered']} "
        f"oracle={tot['oracle']}\n"
        f"oracle advantage over jit: {data['oracle_gap_cycles']} cycles; "
        f"online ladder recovers {data['recovered_cycles']} "
        f"({100 * frac:.1f}%)" if frac is not None else ""
    )
    between = tot["oracle"] < tot["tiered"] < tot["jit"]
    return ExperimentResult(
        "tiered",
        "Online tiered execution vs first-use JIT and the oracle",
        ["benchmark", "jit cycles", "interp/jit", "tiered/jit",
         "oracle/jit", "t1", "t2", "osr", "deopt"],
        rows,
        paper_claim=(
            "An online hotness ladder with OSR sits strictly between "
            "first-use JIT and the oracle, recovering most of the "
            "oracle's advantage without oracle knowledge."
        ),
        observed=(
            f"tiered {'strictly between' if between else 'NOT between'} "
            f"oracle and jit; recovered "
            f"{100 * (frac or 0):.1f}% of the gap"
        ),
        extra=extra,
    )


def _ablation_jobs(scale: str = "s1", benchmarks=None) -> list:
    jobs = []
    for name in benchmarks or SPEC_BENCHMARKS:
        jobs.append(oracle_job(name, scale))
        for ratio in SWEEP_RATIOS:
            jobs.append(run_job(name, scale, sweep_config(ratio)))
    return jobs


@experiment("ablation_tiered", jobs=_ablation_jobs)
def run_ablation(scale: str = "s1", benchmarks=None) -> ExperimentResult:
    """Hotness-threshold sweep: compile_ratio from eager to reluctant."""
    benchmarks = tuple(benchmarks or SPEC_BENCHMARKS)
    jit_total = oracle_total = 0
    for name in benchmarks:
        analysis, mixed = oracle_run(name, scale)
        jit_total += analysis.jit_result.cycles
        oracle_total += mixed.cycles
    gap = jit_total - oracle_total
    rows = []
    best = None
    for ratio in SWEEP_RATIOS:
        total = 0
        t1 = osr = 0
        for name in benchmarks:
            res = run_vm(name, scale, sweep_config(ratio))
            total += res.cycles
            t1 += res.tiering["promotions_t1"]
            osr += res.tiering["osr_entries"]
        frac = (jit_total - total) / gap if gap else 0.0
        rows.append([ratio, total, round(total / jit_total, 4),
                     round(frac, 3), t1, osr])
        if best is None or total < best[1]:
            best = (ratio, total)
    return ExperimentResult(
        "ablation_tiered",
        "Hotness-threshold sweep (tier-1 pricing ratio)",
        ["compile_ratio", "suite cycles", "vs jit", "gap recovered",
         "t1 promotions", "OSR entries"],
        rows,
        paper_claim=(
            "Promotion priced against translate cost beats any fixed "
            "counter: too-eager thresholds pay JIT-like translate "
            "overhead, too-reluctant ones leave loop cycles "
            "interpreted."
        ),
        observed=(
            f"best ratio {best[0]:g}: {best[1]} cycles "
            f"(jit {jit_total}, oracle {oracle_total})"
        ),
        extra=f"anchors: jit={jit_total} oracle={oracle_total} gap={gap}",
    )


# ----------------------------------------------------------------------
# BENCH_tiered.json
# ----------------------------------------------------------------------
def sample_wall_times(workload: str = "db", scale: str = "s0",
                      repeats: int = 6) -> dict:
    """Wall-clock sample stream of fresh tiered VM runs, steady-judged.

    Every sample is a full cache-bypassed run (``cache_dir=""``), so the
    stream measures what a user-facing invocation pays; the verdict
    comes from :func:`repro.bench.stats.steady_report` and feeds the
    ``wall_steady`` guard.
    """
    import time as _time

    from ..bench.stats import steady_report

    samples = []
    for _ in range(repeats):
        started = _time.perf_counter()
        run_vm(workload, scale, TIERED, cache_dir="")
        samples.append(_time.perf_counter() - started)
    return {"workload": workload, "scale": scale, "repeats": repeats,
            **steady_report(samples)}


#: Guards over a tiered record (see :mod:`repro.obs.record`).
GUARDS = {
    "schema": correctness(lambda d: d["strategy"] == TIERED.describe()),
    "beats_jit": lambda d: d["totals"]["tiered"] < d["totals"]["jit"],
    "not_below_oracle":
        lambda d: d["totals"]["tiered"] >= d["totals"]["oracle"],
    "recovers_half_gap": lambda d: d["recovered_fraction"] >= 0.5,
    "ladder_climbed": lambda d: (d["tiering"]["promotions_t1"] >= 1
                                 and d["tiering"]["osr_entries"] >= 1),
    "deopt_stdout_ok": correctness(lambda d: all(
        s["stdout_ok"] for s in d["deopt_scenarios"].values())),
    "deopt_ladder_fired": lambda d: all(
        sum(s[k] for s in d["deopt_scenarios"].values()) >= 1
        for k in ("promotions_t1", "osr_entries", "deopts")),
    "static_stdout_ok": correctness(
        lambda d: d["static_concurrency"]["static_off"]["stdout_ok"]
        and d["static_concurrency"]["static_on"]["stdout_ok"]),
    "static_prevents_lock_escape_deopt": lambda d: (
        d["static_concurrency"]["static_off"]["lock_escape_deopts"] >= 1
        and d["static_concurrency"]["static_on"]["lock_escape_deopts"]
        == 0),
    "no_elision_violations": correctness(
        lambda d: d["static_concurrency"]["static_on"]
        ["elision_violations"] == 0),
    "wall_steady": lambda d: d["wall_sampling"]["steady"],
}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="tiered-execution benchmark summary")
    parser.add_argument("--out", default="BENCH_tiered.json")
    parser.add_argument("--scale", default="s1")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated workload subset")
    args = parser.parse_args(argv)
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    data = gap_recovered(args.scale, benchmarks)
    data["sweep"] = []
    for ratio in SWEEP_RATIOS:
        total = sum(run_vm(n, args.scale, sweep_config(ratio)).cycles
                    for n in data["benchmarks"])
        data["sweep"].append({"compile_ratio": ratio, "suite_cycles": total})
    data["deopt_scenarios"] = run_scenarios()
    data["static_concurrency"] = static_concurrency_comparison()
    data["wall_sampling"] = sample_wall_times()
    tot = data["totals"]
    frac = data["recovered_fraction"]
    print(f"suite: jit={tot['jit']} tiered={tot['tiered']} "
          f"oracle={tot['oracle']}")
    if frac is not None:
        print(f"recovered {100 * frac:.1f}% of the oracle gap")
    for name, s in data["deopt_scenarios"].items():
        print(f"scenario {name}: deopts={s['deopts']} "
              f"osr={s['osr_entries']} stdout_ok={s['stdout_ok']}")
    sc = data["static_concurrency"]
    print(f"static concurrency: lock-escape deopts "
          f"{sc['static_off']['lock_escape_deopts']} -> "
          f"{sc['static_on']['lock_escape_deopts']} "
          f"({sc['deopts_avoided']} avoided)")
    ws = data["wall_sampling"]
    print(f"wall sampling ({ws['workload']}/{ws['scale']}, "
          f"{ws['repeats']} fresh runs): steady={ws['steady']} "
          f"cv={ws['cv']}")
    return write(args.out, "repro.experiments.tiered", data, vars(args),
                 argv)


if __name__ == "__main__":
    raise SystemExit(main())
