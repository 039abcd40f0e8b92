"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestBounds:
    def test_prints_both_caps(self, capsys):
        assert main(["bounds", "--delta", "5", "--n", "21"]) == 0
        out = capsys.readouterr().out
        assert "0.066667" in out  # 1/(3*5)
        assert "0.003175" in out  # 1/(3*5*21)
        assert "11" in out  # majority

    def test_lemma2_evaluation(self, capsys):
        assert main(
            ["bounds", "--delta", "5", "--n", "20", "--churn", "0.02"]
        ) == 0
        out = capsys.readouterr().out
        assert "n(1−3δc) = 14.00" in out


class TestScenario:
    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "inversion"])
    def test_scenarios_run(self, name, capsys):
        assert main(["scenario", name]) == 0
        out = capsys.readouterr().out
        assert "regularity:" in out

    def test_timeline_flag(self, capsys):
        assert main(["scenario", "fig3a", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_messages_flag(self, capsys):
        assert main(["scenario", "fig3a", "--messages"]) == 0
        out = capsys.readouterr().out
        assert "==Inquiry==> *" in out

    @pytest.mark.parametrize("flag", ["--timeline", "--messages"])
    def test_a_truncated_trace_says_so_on_stderr(self, capsys, monkeypatch, flag):
        from repro import cli
        from repro.workloads.scenarios import figure_3a

        def cut_short(seed):
            scenario = figure_3a(seed=seed)
            trace = scenario.system.trace
            trace._capacity = len(trace) - 5
            del trace._records[-5:]
            trace._dropped = 5
            return scenario

        monkeypatch.setitem(cli._SCENARIOS, "fig3a", cut_short)
        assert main(["scenario", "fig3a", flag]) == 0
        err = capsys.readouterr().err
        assert err.startswith("trace truncated: 5 records dropped (trace_capacity=")
        assert err.count("\n") == 1

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "fig9"])


class TestSimulate:
    def test_safe_run_returns_zero(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol", "sync",
                "--n", "12",
                "--churn", "0.01",
                "--horizon", "80",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SAFE" in out
        assert "LIVE" in out

    def test_zero_churn(self, capsys):
        assert main(
            ["simulate", "--churn", "0", "--n", "8", "--horizon", "60"]
        ) == 0

    def test_timeline_output(self, capsys):
        assert main(
            [
                "simulate",
                "--n", "6",
                "--churn", "0.01",
                "--horizon", "60",
                "--timeline",
            ]
        ) == 0
        assert "legend:" in capsys.readouterr().out

    def test_a_truncated_timeline_says_so_on_stderr(self, capsys, monkeypatch):
        from functools import partial

        from repro import cli

        args = ["simulate", "--n", "8", "--horizon", "40", "--seed", "3", "--timeline"]
        assert main(args) == 0
        complete = capsys.readouterr()
        assert complete.err == ""
        bounded = partial(cli.SystemConfig, trace_capacity=60)
        monkeypatch.setattr(cli, "SystemConfig", bounded)
        assert main(args) == 0
        cut = capsys.readouterr()
        assert "legend:" in cut.out  # still rendered, no longer silently
        assert cut.err == "trace truncated: 24 records dropped (trace_capacity=60)\n"

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--read-rate", "inf", "rate must be finite, got inf"),
            ("--read-rate", "nan", "rate must be finite, got nan"),
            ("--write-period", "0", "write_period must be positive, got 0.0"),
            ("--write-period", "nan", "write_period must be finite, got nan"),
        ],
    )
    def test_non_finite_plan_parameter_is_refused_by_name(
        self, capsys, flag, value, named
    ):
        # ``--read-rate inf`` used to hang in the Poisson generator and
        # ``--write-period 0`` to die in an ``int()`` three layers down.
        assert main(["simulate", "--n", "8", "--horizon", "60", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "--ids", "E1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out
        assert "all 1 experiments reproduced" in out

    def test_ablation_by_id(self, capsys):
        assert main(["experiments", "--ids", "A3", "--quick"]) == 0
        assert "A3" in capsys.readouterr().out

    def test_unknown_id_rejected(self, capsys):
        assert main(["experiments", "--ids", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_mixed_ids(self, capsys):
        assert main(["experiments", "--ids", "E2", "E3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E2:" in out and "E3:" in out

    def test_workers_flag_output_matches_serial(self, capsys):
        args = ["experiments", "--ids", "E4", "--quick"]
        assert main(args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "all 1 experiments reproduced" in serial_out

    def test_workers_flag_reaches_ablations_without_error(self, capsys):
        # Ablations accept the engine's keyword for harness uniformity.
        assert main(["experiments", "--ids", "A3", "--quick", "--workers", "2"]) == 0


class TestParanoid:
    def test_simulate_paranoid_matches_fast(self, capsys):
        args = ["simulate", "--n", "10", "--churn", "0.01", "--horizon", "60"]
        fast_code = main(args)
        fast_out = capsys.readouterr().out
        paranoid_code = main(args + ["--paranoid"])
        paranoid_out = capsys.readouterr().out
        assert fast_code == paranoid_code
        fast_verdict = [l for l in fast_out.splitlines() if "regularity:" in l]
        paranoid_verdict = [
            l for l in paranoid_out.splitlines() if "regularity:" in l
        ]
        assert fast_verdict == paranoid_verdict


class TestBench:
    def test_bench_writes_artifact(self, tmp_path, capsys):
        import json

        from repro.bench import DIGEST_WORKLOADS, stable_field

        out_path = tmp_path / "BENCH_kernel.json"
        assert main(["bench", "--out", str(out_path), "--repeats", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "rebalance_storm" in stdout
        assert stdout.count(" STABLE") == len(DIGEST_WORKLOADS)
        assert "UNSTABLE" not in stdout
        payload = json.loads(out_path.read_text())
        assert payload["artifact"] == "BENCH_kernel"
        names = {bench["name"] for bench in payload["benchmarks"]}
        assert "broadcast_fanout_trace_off" in names
        assert "migration_handoff" in names
        assert "explore_sweep_serial" in names
        assert "explore_sweep_parallel" in names
        for field in DIGEST_WORKLOADS:
            assert len(payload["determinism"][field]) == 64
            assert payload["determinism"][stable_field(field)] is True
        # Structural only: a single --repeats 1 sample is noise-dominated,
        # so no ratio's magnitude is asserted here.
        assert payload["derived"]["keyed_fanout_overhead"] > 0.0
        assert payload["derived"]["parallel_explore_speedup"] > 0.0
        assert payload["parallel_workers"] >= 1


class TestExplore:
    def test_smoke_sweep_exits_zero(self, capsys):
        code = main(
            [
                "explore",
                "--budget", "6",
                "--protocols", "sync",
                "--delays", "sync",
                "--churn", "0.0",
                "--plans", "none", "light-loss",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "explored 2 scenarios" in out

    def test_violations_are_printed_with_their_reasons(self, capsys):
        code = main(
            [
                "explore",
                "--budget", "1",
                "--protocols", "sync",
                "--delays", "sync",
                "--churn", "0.0",
                "--plans", "heavy-loss",
            ]
        )
        assert code == 0  # out-of-model breakage is documentation, not a bug
        out = capsys.readouterr().out
        assert "expected-breakage" in out
        assert "out-of-model" in out
        assert "shrunk to" in out

    def test_report_artifact_round_trips(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "explore.json"
        code = main(
            [
                "explore",
                "--budget", "2",
                "--protocols", "sync",
                "--delays", "sync",
                "--churn", "0.0",
                "--plans", "partition-drop",
                "--no-shrink",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["artifact"] == "EXPLORE_report"
        assert payload["counterexamples"]

    def test_unknown_plan_rejected(self, capsys):
        assert main(["explore", "--plans", "gremlins"]) == 2
        assert "unknown plan" in capsys.readouterr().err

    def test_workers_flag_output_matches_serial(self, capsys):
        args = [
            "explore",
            "--budget", "4",
            "--protocols", "sync",
            "--delays", "sync",
            "--churn", "0.0", "0.02",
            "--plans", "none", "heavy-loss",
            "--verbose",
        ]
        assert main(args + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_verbose_prints_every_run(self, capsys):
        code = main(
            [
                "explore",
                "--budget", "1",
                "--protocols", "sync",
                "--delays", "sync",
                "--churn", "0.0",
                "--plans", "none",
                "--verbose",
            ]
        )
        assert code == 0
        assert "[               ok]" in capsys.readouterr().out


class TestRebalanceCLI:
    QUICK = [
        "rebalance", "--horizon", "140", "--n", "16",
        "--shards", "4", "--keys", "8", "--churn", "0",
    ]

    def test_clean_cell_exits_zero_and_reports_the_story(self, capsys):
        assert main(self.QUICK) == 0
        out = capsys.readouterr().out
        assert "policy" in out
        assert "imbalance=" in out
        assert "handoffs" in out
        assert "regularity: SAFE" in out

    def test_retire_flag_drains_the_shard(self, capsys):
        assert main(self.QUICK + ["--retire", "0", "--load", "delivered",
                                  "--horizon", "220"]) == 0
        out = capsys.readouterr().out
        assert "retire=0" in out
        assert "[retire]" in out

    def test_unknown_plan_rejected(self, capsys):
        assert main(self.QUICK + ["--plan", "not-a-plan"]) == 2
        assert "unknown plan" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--period", "--threshold", "--cooldown"])
    def test_nan_policy_parameter_is_refused_by_name(self, capsys, flag):
        assert main(self.QUICK + [flag, "nan"]) == 2
        name = flag.lstrip("-")
        assert capsys.readouterr().err == (
            f"error: rebalance {name} must be finite, got nan\n"
        )

    def test_runs_under_a_shard_scoped_library_plan(self, capsys):
        # rebal-loss drops every migration message in every shard: the
        # rebalancer still plans, and every handoff aborts cleanly.
        assert main(self.QUICK + ["--plan", "rebal-loss"]) == 0
        out = capsys.readouterr().out
        assert "plan=rebal-loss" in out
        assert "0 committed, 3 aborted, 0 unresolved" in out

    def test_explore_accepts_the_rebalance_axis(self, capsys):
        code = main(
            [
                "explore",
                "--budget", "1",
                "--protocols", "sync",
                "--delays", "sync",
                "--churn", "0.0",
                "--plans", "none",
                "--keys", "4",
                "--shards", "2",
                "--rebalance", "2",
                "--n", "12",
                "--verbose",
            ]
        )
        assert code == 0
        assert "rebal=2" in capsys.readouterr().out


class TestMigrateCLI:
    QUICK = [
        "migrate", "--horizon", "100", "--n", "12",
        "--shards", "3", "--keys", "4", "--churn", "0",
    ]

    def test_handoffs_under_a_shard_scoped_library_plan(self, capsys):
        # mig-loss drops every migration message in every shard: each
        # handoff times out of its copy phase and aborts cleanly.
        assert main(self.QUICK + ["--plan", "mig-loss"]) == 0
        out = capsys.readouterr().out
        assert "plan=mig-loss" in out
        assert [line.split()[5:7] for line in out.splitlines()[1:4]] == [
            ["@15", "aborted"], ["@28.3333", "aborted"], ["@41.6667", "aborted"]
        ]
        assert main(self.QUICK + ["--plan", "not-a-plan"]) == 2
        assert "unknown plan" in capsys.readouterr().err


class TestProfileCommand:
    def test_profiles_a_workload(self, capsys):
        assert main(["profile", "broadcast_fanout_trace_off", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "workload broadcast_fanout_trace_off" in out
        assert "cumulative" in out  # pstats sort header

    def test_sort_by_tottime(self, capsys):
        assert main(["profile", "faulted_digest", "--sort", "tottime"]) == 0
        assert "tottime" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        assert main(["profile", "definitely_not_a_workload"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        # The error names the known set: rows and digest fields alike.
        assert "cluster_sharded" in err and "rebalance_digest" in err
