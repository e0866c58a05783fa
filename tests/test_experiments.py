"""Experiment harness: structure and key paper shapes at small scale.

These run the real experiment code paths on ``s0`` inputs and reduced
benchmark sets — fast enough for CI while still asserting the headline
qualitative results.  The full-scale numbers live in EXPERIMENTS.md and
the benchmark harness.
"""

import pytest

from repro.experiments import all_experiments, get_experiment
from repro.experiments.base import ExperimentResult

SMALL = ("db", "compress")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(all_experiments())
        for required in [f"fig{i}" for i in range(1, 12)] + [
            "table1", "table2", "table3",
            "ablation_strategy", "ablation_install", "ablation_locks",
            "ablation_inline",
        ]:
            assert required in ids, required

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")


def _run(exp_id, benchmarks=SMALL):
    return get_experiment(exp_id)(scale="s0", benchmarks=benchmarks)


class TestResultProtocol:
    def test_render_and_dict(self):
        res = _run("table1")
        assert isinstance(res, ExperimentResult)
        text = res.render()
        assert res.exp_id in text
        assert res.paper_claim in text
        d = res.to_dict()
        assert d["rows"] and d["headers"]

    def test_row_map(self):
        res = _run("table1")
        assert set(res.row_map()) == set(SMALL)


class TestFig1:
    def test_shapes(self):
        res = get_experiment("fig1")(scale="s0",
                                     benchmarks=("hello", "db", "compress"))
        rows = res.row_map()
        # translate + execute sum to 1 (normalized to the JIT run)
        for r in rows.values():
            assert r[1] + r[2] == pytest.approx(1.0, abs=0.01)
        # db more translate-heavy than compress; compress reuses heavily
        assert rows["db"][1] > rows["compress"][1]
        # opt never loses to always-JIT
        assert all(r[4] <= 1.01 for r in rows.values())


class TestTable1:
    def test_jit_needs_more_memory(self):
        res = _run("table1")
        for row in res.rows:
            assert row[2] > row[1]            # jit KB > interp KB
            assert row[3] > 0                 # positive overhead %


class TestFig2:
    def test_modes_and_references_present(self):
        res = _run("fig2")
        labels = {r[0] for r in res.rows}
        assert {"java/interp", "java/jit", "C", "C++"} <= labels

    def test_interp_more_memory_ops_than_jit(self):
        rows = _run("fig2").row_map()
        assert rows["java/interp"][1] > rows["java/jit"][1]

    def test_interp_has_indirect_jumps_jit_does_not(self):
        rows = _run("fig2").row_map()
        assert rows["java/interp"][7] > 1.0
        assert rows["java/jit"][7] < 0.5


class TestFig4:
    def test_interp_icache_not_worse_than_c(self):
        rows = _run("fig4", benchmarks=("db",)).row_map()
        assert rows["java/interp"][1] <= rows["C"][1]


class TestFig6:
    def test_one_row_per_mode(self):
        assert len(_run("fig6", benchmarks=("db",)).rows) == 2


class TestFig7:
    def test_direct_mapped_dcache_not_better_than_2way(self):
        for row in _run("fig7").rows:
            assert row[6] >= row[7] - 1e-9   # D: 1-way >= 2-way


class TestFig8:
    def test_both_modes_present(self):
        assert {r[1] for r in _run("fig8").rows} == {"interp", "jit"}


class TestTable2:
    def test_interp_predicts_worse(self):
        # compress is execution-dominated even at s0, so the mode
        # difference is visible at tiny scale.
        res = _run("table2", benchmarks=("compress",))
        by_mode = {r[1]: r for r in res.rows}
        gshare_col = res.headers.index("gshare")
        assert by_mode["interp"][gshare_col] > by_mode["jit"][gshare_col]

    def test_gshare_beats_single_2bit(self):
        res = _run("table2", benchmarks=("db",))
        h = res.headers
        for row in res.rows:
            assert row[h.index("gshare")] <= row[h.index("2bit")] + 1.0


class TestTable3:
    def test_interp_icache_near_perfect(self):
        res = _run("table3", benchmarks=("compress",))
        for row in res.rows:
            if row[1] == "interp":
                assert row[4] < 0.2   # I miss % well under 0.2

    def test_jit_fewer_data_refs(self):
        res = _run("table3", benchmarks=("compress",))
        by_mode = {r[1]: r for r in res.rows}
        assert by_mode["jit"][5] < by_mode["interp"][5]


class TestFig3:
    def test_jit_write_miss_share_substantial(self):
        res = _run("fig3", benchmarks=("db",))
        for row in res.rows:
            assert row[2] > 25.0   # JIT-mode write-miss share (%)


class TestFig5:
    def test_translate_attribution(self):
        res = _run("fig5", benchmarks=("db",))
        row = res.rows[0]
        assert row[1] > 0      # some I misses in translate
        assert row[2] > 10     # translate D-miss share
        assert row[3] > 40     # translate misses mostly writes


class TestFig9And10:
    def test_interp_ipc_higher(self):
        res = _run("fig9", benchmarks=("db",))
        by_mode = {r[1]: r for r in res.rows}
        # compare at 4-wide (column index 4)
        assert by_mode["interp"][4] >= by_mode["jit"][4] * 0.95
        for row in res.rows:
            assert row[2] <= row[5] + 0.2    # wider issue not slower

    def test_jit_faster_in_absolute_time(self):
        res = _run("fig10", benchmarks=("compress",))
        by_mode = {r[1]: r for r in res.rows}
        abs_col = res.headers.index("abs cycles @4-wide")
        assert by_mode["jit"][abs_col] < by_mode["interp"][abs_col]
        for row in res.rows:
            assert all(t <= 1.0 for t in row[2:6])   # normalized to w=1


class TestFig11:
    def test_case_a_dominates(self):
        res = _run("fig11", benchmarks=("db", "jack"))
        for row in res.rows:
            assert row[1] > 80.0

    def test_thin_lock_speedup(self):
        res = _run("fig11", benchmarks=("jack",))
        speedup_col = res.headers.index("thin-lock speedup")
        assert all(1.5 <= r[speedup_col] <= 6.0 for r in res.rows)


class TestAblations:
    def test_strategy_ablation_normalized(self):
        res = get_experiment("ablation_strategy")(
            scale="s0", benchmarks=("db",)
        )
        for row in res.rows:
            assert row[1] == 1.0                    # jit baseline
            assert row[-1] <= min(row[1:]) + 1e-9   # oracle minimal

    def test_install_ablation_reduces_misses(self):
        res = get_experiment("ablation_install")(
            scale="s0", benchmarks=("db",)
        )
        for row in res.rows:
            assert row[2] <= row[1]
            assert row[3] > 0

    def test_thin_lock_wins(self):
        res = get_experiment("ablation_locks")(
            scale="s0", benchmarks=("jack", "db")
        )
        for row in res.rows:
            assert row[4] > 1.0               # monitor-cache / thin-lock

    def test_inline_ablation(self):
        res = get_experiment("ablation_inline")(
            scale="s0", benchmarks=("db",)
        )
        for row in res.rows:
            assert row[1] > 0                 # sites inlined
            assert row[3] >= row[4]           # indirect % off >= on


class TestCLI:
    def test_cli_single_experiment(self, capsys):
        from repro.experiments.cli import main
        status = main(["table1", "--scale", "s0", "--benchmarks", "db"])
        out = capsys.readouterr().out
        assert status == 0
        assert "table1" in out

    def test_cli_list(self, capsys):
        from repro.experiments.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table3" in out

    def test_cli_unknown(self, capsys):
        from repro.experiments.cli import main
        assert main(["figxx", "--scale", "s0"]) == 2

    def test_cli_json_dump(self, capsys, tmp_path):
        import json
        from repro.experiments.cli import main
        path = str(tmp_path / "out.json")
        assert main(["table1", "--scale", "s0", "--benchmarks", "db",
                     "--json", path]) == 0
        data = json.load(open(path))
        assert data[0]["id"] == "table1"
        assert data[0]["rows"]
