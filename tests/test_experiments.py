"""Experiment harness tests: every artefact runs and shows the paper shape.

These use quick mode (small horizons, two workloads per scenario) on the
full calibrated suite; the full-scale numbers live in EXPERIMENTS.md and the
benchmark outputs.
"""

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.runner import EXPERIMENTS, run_experiment

#: ``fig7`` and ``fig8`` rows for ``--quick --seed 2020``, pinned before the
#: QoS sweep was restricted to the targets that really are slower.
FIG7_ROWS_SEED_2020 = [
    ["Model1", "5.67%", "19.74%", "15.96%"],
    ["Model2", "4.12%", "15.36%", "9.86%"],
    ["Model3", "1.53%", "5.43%", "3.17%"],
]
FIG8_ROWS_SEED_2020 = [
    ["0-5%", "0.807", "0.708", "0.649"],
    ["5-10%", "0.751", "0.568", "0.616"],
    ["10-15%", "0.580", "0.424", "0.147"],
    ["15-20%", "1.000", "0.860", "0.001"],
    ["20-25%", "0.867", "0.791", "0.001"],
    ["25-30%", "0.385", "0.283", "0.000"],
    ["30-35%", "0.167", "0.065", "0.000"],
    ["35-40%", "0.108", "0.036", "0.000"],
    ["40-45%", "0.197", "0.037", "0.000"],
    ["45-50%", "0.082", "0.010", "0.000"],
]


@pytest.fixture(scope="module")
def quick_cfg(full_db):
    # full_db fixture primes the on-disk cache the experiments reuse
    return ExperimentConfig(quick=True)


class TestStaticArtefacts:
    def test_table1(self, quick_cfg):
        res = run_experiment("table1", quick_cfg)
        text = res.rendered()
        assert "issue 8" in text and "ROB 256" in text
        assert "2 MB x cores" in text

    def test_table2_exact(self, quick_cfg):
        res = run_experiment("table2", quick_cfg)
        assert res.data["mismatches"] == []
        assert len(res.rows) == 27

    def test_fig1_probabilities(self, quick_cfg):
        res = run_experiment("fig1", quick_cfg)
        w = res.data["weights"]
        assert w[1] == pytest.approx(0.47, abs=0.002)
        assert w[4] == pytest.approx(0.088, abs=0.002)
        assert len(res.rows) == 10

    def test_overheads(self, quick_cfg):
        res = run_experiment("overheads", quick_cfg)
        data = res.data
        # shape: monotone growth in core count for both managers
        for kind in ("rm2", "rm3"):
            instrs = [data[(kind, n)]["instructions"] for n in (2, 4, 8)]
            assert instrs == sorted(instrs)
        # RM3 costs more than RM2 at every core count
        for n in (2, 4, 8):
            assert (
                data[("rm3", n)]["instructions"] > data[("rm2", n)]["instructions"]
            )


class TestDynamicArtefacts:
    def test_fig2_shapes(self, quick_cfg):
        res = run_experiment("fig2", quick_cfg)
        s = res.data["savings"]
        assert s[1]["rm3"] > s[1]["rm2"]            # S1: RM3 beats RM2
        assert abs(s[2]["rm3"] - s[2]["rm2"]) < 0.05  # S2: comparable
        assert s[3]["rm2"] < 0.01 < s[3]["rm3"]     # S3: only RM3
        assert abs(s[4]["rm3"]) < 0.02              # S4: nothing
        for scenario in (1, 2, 3, 4):
            assert abs(s[scenario]["rm1"]) <= s[scenario]["rm3"] + 0.02

    def test_fig7_reductions(self, quick_cfg):
        res = run_experiment("fig7", quick_cfg)
        assert res.rows == FIG7_ROWS_SEED_2020
        red = res.data["reductions"]
        assert red["probability_vs_model1"] > 0.4
        assert red["probability_vs_model2"] > 0.25
        assert red["ev_vs_model2"] > 0.3
        assert red["std_vs_model2"] > 0.0

    def test_fig8_tail(self, quick_cfg):
        res = run_experiment("fig8", quick_cfg)
        assert res.rows == FIG8_ROWS_SEED_2020
        tails = res.data["tails"]
        assert tails["Model3"] < 0.25 * tails["Model2"]
        assert tails["Model2"] < tails["Model1"]

    def test_fig6_quick(self, quick_cfg):
        res = run_experiment("fig6", quick_cfg)
        summary = res.data["summary"][4]
        s1_rm3 = sum(summary["rm3"][1]) / len(summary["rm3"][1])
        s1_rm2 = sum(summary["rm2"][1]) / len(summary["rm2"][1])
        s3_rm3 = sum(summary["rm3"][3]) / len(summary["rm3"][3])
        s3_rm2 = sum(summary["rm2"][3]) / len(summary["rm2"][3])
        assert s1_rm3 > s1_rm2
        assert s3_rm3 > s3_rm2 + 0.04
        s4_rm3 = sum(summary["rm3"][4]) / len(summary["rm3"][4])
        assert abs(s4_rm3) < 0.03
    @pytest.mark.parametrize("rm_kind", ["rm2", "rm3"])
    @pytest.mark.parametrize("n_cores", [2, 8, 32, 64])
    def test_measure_invocation_matches_one_manager_per_mode(
        self, quick_cfg, rm_kind, n_cores
    ):
        """One primed manager plus a stateless rebuild over its effective
        curves bills exactly what a manager primed in each reduction mode
        reports for its last invocation."""
        from repro.core.managers import make_rm
        from repro.core.perf_models import ModelInputs
        from repro.experiments.common import get_database, make_model
        from repro.experiments.overheads_table import measure_invocation

        db = get_database(n_cores, quick_cfg.seed)
        system = db.system
        base = system.baseline_setting()
        names = db.app_names()
        per_mode = {}
        for reduction in ("full_rebuild", "incremental"):
            rm = make_rm(
                rm_kind, system, make_model("Model3"), reduction=reduction
            )
            for core in range(n_cores):
                record = db.records[names[core % len(names)]][0]
                decision = rm.observe(
                    core,
                    ModelInputs(
                        counters=record.counters_at(base),
                        atd=record.atd_report(),
                    ),
                )
            per_mode[reduction] = decision
        assert measure_invocation(db, rm_kind) == (
            per_mode["full_rebuild"].local_evaluations,
            per_mode["full_rebuild"].dp_operations,
            per_mode["incremental"].dp_operations,
        )
        assert (
            per_mode["incremental"].local_evaluations
            == per_mode["full_rebuild"].local_evaluations
        )

    def test_ext_scaling_quick(self, quick_cfg):
        """The 16/32-core sweep: savings survive scale, kernel work does
        not rebuild the tree per invocation."""
        res = run_experiment("ext-scaling", quick_cfg)
        summary = res.data["summary"]
        assert set(summary) == {4, 16}  # quick default sweep
        for n_cores, row in summary.items():
            assert row["mean_saving"] > 0.0
            assert 0.0 <= row["mean_violation_rate"] <= 1.0
            full = row["dp_operations_full_rebuild"]
            incr = row["dp_operations_incremental"]
            assert incr < full
        # the incremental advantage grows with core count...
        r4 = summary[4]["dp_operations_full_rebuild"] / summary[4][
            "dp_operations_incremental"
        ]
        r16 = summary[16]["dp_operations_full_rebuild"] / summary[16][
            "dp_operations_incremental"
        ]
        assert r16 > r4 >= 2.0
        # ...and the sweep honours explicit core counts
        import dataclasses

        cfg32 = dataclasses.replace(quick_cfg, scaling_core_counts=(4,))
        res32 = run_experiment("ext-scaling", cfg32)
        assert set(res32.data["summary"]) == {4}

    def test_fig9_quick(self, quick_cfg):
        res = run_experiment("fig9", quick_cfg)
        per_model = res.data["summary"][4]
        mean = lambda m: sum(per_model[m]) / len(per_model[m])
        # Model3 closest to perfect among online models
        gap3 = abs(mean("Perfect") - mean("Model3"))
        gap1 = abs(mean("Perfect") - mean("Model1"))
        assert gap3 <= gap1 + 0.01


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "fig1", "fig2", "fig6", "fig7", "fig8",
            "fig9", "overheads", "ext-sensitivity", "ext-alpha",
            "ext-scaling", "ext-alpha-scaling",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out

    def test_single_experiment(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        assert "issue 8" in capsys.readouterr().out

    def test_parser_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig6", "--quick", "--cores", "4"])
        assert args.quick and args.cores == [4]
        assert args.workers is None and args.csv_dir is None

    def test_parser_campaign_flags(self, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["all", "--workers", "3", "--csv-dir", "out"]
        )
        assert args.workers == 3 and str(args.csv_dir) == "out"
        # The flags of the deleted lease-based campaign fabric.
        for flag in ("--remote", "--remote-workers", "--work", "--store",
                     "--worker-id", "--idle-exit"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(["campaign", flag])
            assert exit_info.value.code == 2, flag
        capsys.readouterr()

    def test_bench_help_lists_every_baseline(self):
        """The ``bench --emit``/``--check`` help names exactly the
        registered baselines, so a new one cannot go undocumented; and
        every root ``BENCH_*.json`` has an emitter and a check."""
        import re

        from repro.bench import CHECKS, EMITTERS, REPO_ROOT
        from repro.cli import build_parser

        helps = {a.dest: a.help for a in build_parser()._actions}
        for dest, names in (("emit", EMITTERS), ("check", CHECKS)):
            listed = re.search(r"\(([a-z|]+)\)", helps[dest]).group(1)
            assert sorted(listed.split("|")) == sorted(names), dest
        stems = {p.stem[len("BENCH_"):] for p in REPO_ROOT.glob("BENCH_*.json")}
        assert stems == set(EMITTERS) == set(CHECKS)

    def test_csv_dir_written(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "tables"
        assert main(["table1", "--csv-dir", str(out)]) == 0
        text = (out / "table1.csv").read_text()
        assert text.splitlines()[0].startswith("component")
        capsys.readouterr()
