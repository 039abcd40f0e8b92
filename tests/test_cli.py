"""Tests for the command-line interface."""

import contextlib
import functools
import hashlib
import io

import pytest

from repro.cli import main
from tests.golden import expected

#: The run commands the golden store's ``cli/`` family pins, by name:
#: each entry is the sha256 of the stdout and the exit code of one run.
CLI_RUNS = {
    "simulate": "simulate",
    "simulate-keyed-zipf-paranoid": "simulate --keys 4 --key-dist zipf --paranoid",
    "simulate-es": "simulate --protocol es --churn 0.002",
    "simulate-abd-static": "simulate --protocol abd --churn 0",
    "migrate": "migrate",
    "migrate-mig-loss": "migrate --plan mig-loss",
    "rebalance": "rebalance",
    "rebalance-retire": "rebalance --retire 0",
    "rebalance-rebal-storm": "rebalance --plan rebal-storm",
}


def _ran(name: str) -> dict:
    """Run ``CLI_RUNS[name]`` through ``main``: its exit code and the
    sha256 of what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CLI_RUNS[name].split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def cli_family() -> dict:
    """The golden store's ``cli/`` family: one entry per pinned run."""
    return {f"cli/{name}": functools.partial(_ran, name) for name in CLI_RUNS}


CLI_KEYS = cli_family()


@pytest.mark.parametrize("key", CLI_KEYS)
def test_cli_run_reproduces_its_golden(key):
    assert CLI_KEYS[key]() == expected(key), (
        f"{key} no longer prints its recorded output; if this change "
        f"intentionally moved a run, regenerate the golden store"
    )


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

    @pytest.mark.parametrize("ablations", [False, True])
    def test_default_set_is_the_e_rows_and_the_flag_adds_the_a_rows(
        self, monkeypatch, capsys, ablations
    ):
        from repro import cli
        from repro.experiments import EXPERIMENTS, ExperimentResult

        ran = []

        def fake_run(experiment, seed, quick, workers):
            ran.append(experiment.id)
            return ExperimentResult(experiment.id, "", "", verdict="REPRODUCED")

        monkeypatch.setattr(cli, "run_experiment", fake_run)
        assert main(["experiments"] + (["--ablations"] if ablations else [])) == 0
        expected_ids = [i for i in EXPERIMENTS if ablations or i.startswith("E")]
        assert ran == expected_ids
        assert len(ran) == (23 if ablations else 17)
        assert f"all {len(ran)} experiments reproduced" in capsys.readouterr().out

    def test_workers_flag_reaches_ablations_without_error(self, capsys):
        # An ablation's variants are pool cells like any E-row's.
        args = ["experiments", "--ids", "A3", "--quick"]
        assert main(args + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert main(args + ["--workers", "1"]) == 0
        assert capsys.readouterr().out == parallel_out


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


class TestRunFlags:
    #: The run flags of ``simulate``, ``migrate`` and ``rebalance``:
    #: option strings → (nargs, type, choices, default, dest).
    FLAGS = {
        "simulate": {
            ("--protocol",): (
                None, str, ("sync", "naive", "es", "abd"), "sync", "protocol"
            ),
            ("--n",): (None, int, None, 20, "n"),
            ("--delta",): (None, float, None, 5.0, "delta"),
            ("--churn",): (None, float, None, 0.01, "churn"),
            ("--horizon",): (None, float, None, 200.0, "horizon"),
            ("--read-rate",): (None, float, None, 0.5, "read_rate"),
            ("--write-period",): (None, float, None, 30.0, "write_period"),
            ("--seed",): (None, int, None, 0, "seed"),
            ("--keys",): (None, int, None, 1, "keys"),
            ("--key-dist",): (None, str, ("uniform", "zipf"), "uniform", "key_dist"),
            ("--timeline",): (0, str, None, False, "timeline"),
            ("--paranoid",): (0, str, None, False, "paranoid"),
        },
        "migrate": {
            ("--shards",): (None, int, None, 3, "shards"),
            ("--keys",): (None, int, None, 6, "keys"),
            ("--n",): (None, int, None, 18, "n"),
            ("--delta",): (None, float, None, 5.0, "delta"),
            ("--churn",): (None, float, None, 0.02, "churn"),
            ("--horizon",): (None, float, None, 120.0, "horizon"),
            ("--migrations",): (None, int, None, 3, "migrations"),
            ("--seed",): (None, int, None, 0, "seed"),
            ("--plan",): (None, str, None, None, "plan"),
            ("--read-rate",): (None, float, None, 0.6, "read_rate"),
            ("--write-period",): (None, float, None, 10.0, "write_period"),
            ("--paranoid",): (0, str, None, False, "paranoid"),
        },
        "rebalance": {
            ("--shards",): (None, int, None, 4, "shards"),
            ("--keys",): (None, int, None, 8, "keys"),
            ("--n",): (None, int, None, 24, "n"),
            ("--delta",): (None, float, None, 5.0, "delta"),
            ("--churn",): (None, float, None, 0.02, "churn"),
            ("--horizon",): (None, float, None, 240.0, "horizon"),
            ("--seed",): (None, int, None, 0, "seed"),
            ("--period",): (None, float, None, None, "period"),
            ("--threshold",): (None, float, None, 1.25, "threshold"),
            ("--migration-budget",): (None, int, None, 2, "migration_budget"),
            ("--retire",): (None, int, None, None, "retire"),
            ("--plan",): (None, str, None, None, "plan"),
            ("--key-dist",): (None, str, ("uniform", "zipf"), "zipf", "key_dist"),
            ("--read-rate",): (None, float, None, 0.6, "read_rate"),
            ("--write-period",): (None, float, None, 10.0, "write_period"),
            ("--paranoid",): (0, str, None, False, "paranoid"),
        },
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_flags_keep_their_names_nargs_types_choices_defaults_and_dests(
        self, command
    ):
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            tuple(action.option_strings): (
                action.nargs,
                action.type or str,
                None if action.choices is None else tuple(action.choices),
                action.default,
                action.dest,
            )
            for action in commands.choices[command]._actions
            if action.option_strings != ["-h", "--help"]
        }
        assert flags == self.FLAGS[command]


class TestSubcommands:
    @pytest.mark.parametrize("gone", ["bench", "profile"])
    def test_a_deleted_command_is_refused_and_the_seven_are_named(self, capsys, gone):
        with pytest.raises(SystemExit) as refused:
            main([gone])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{gone}'" in err
        for name in ("experiments", "scenario", "simulate", "bounds",
                     "migrate", "rebalance", "explore"):
            assert f"'{name}'" in err


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
        assert main(["explore", "--plans", "none", "gremlins"]) == 2
        captured = capsys.readouterr()
        assert "unknown fault plan 'gremlins'" in captured.err
        assert captured.out == ""  # refused before any cell ran

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

    #: ``repro explore``'s flags: (nargs, type, choices, effective default).
    #: CI's smoke sweeps spell these, so the sweep table must keep them.
    FLAGS = {
        "--budget": (None, int, None, 50),
        "--seed": (None, int, None, 0),
        "--protocols": ("+", str, ("sync", "naive", "es", "abd"), ("sync", "es", "abd")),
        "--delays": ("+", str, ("sync", "dual", "es", "async"), ("sync", "es")),
        "--churn": ("+", float, None, (0.0, 0.02)),
        "--plans": ("+", str, None, (
            "none", "light-loss", "heavy-loss", "partition-defer",
            "partition-drop", "delay-spike", "writer-crash", "combo",
        )),
        "--n": (None, int, None, 10),
        "--delta": (None, float, None, 5.0),
        "--horizon": (None, float, None, 120.0),
        "--seeds-per-combo": (None, int, None, 1),
        "--keys": ("+", int, None, (1,)),
        "--key-dist": (None, str, ("uniform", "zipf"), "uniform"),
        "--shards": ("+", int, None, (1,)),
        "--migrations": ("+", int, None, (0,)),
        "--rebalance": ("+", int, None, (0,)),
        "--no-shrink": (0, str, None, False),
        "--out": (None, str, None, None),
        "--verbose": (0, str, None, False),
        "--workers": (None, int, None, None),
    }

    def test_flags_keep_their_names_nargs_types_choices_and_defaults(self):
        import argparse

        from repro.cli import build_parser

        (commands,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            action.option_strings[-1]: (
                action.nargs,
                action.type or str,
                None if action.choices is None else tuple(action.choices),
                tuple(action.default) if isinstance(action.default, (list, tuple))
                else action.default,
            )
            for action in commands.choices["explore"]._actions
            if action.option_strings != ["-h", "--help"]
        }
        assert flags == self.FLAGS

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["explore", "--churn", "nan"], "churn rate must be in [0, 1), got nan"),
            (["explore", "--churn", "-1"], "churn rate must be in [0, 1), got -1.0"),
            (["simulate", "--churn", "nan"], "churn rate must be in [0, 1), got nan"),
            (["simulate", "--churn", "-0.5"], "churn rate must be in [0, 1), got -0.5"),
            (["explore", "--seeds-per-combo", "0"], "seeds_per_combo=0"),
            (["explore", "--migrations", "2"], "migrations=(2,) needs a cell"),
            (["explore", "--delta", "nan"], "delta must be finite and positive, got nan"),
            (["explore", "--horizon", "0"], "horizon must be finite and positive, got 0.0"),
            (["simulate", "--horizon", "0"], "the plan ends at 6.0, past the horizon 0.0"),
            (["simulate", "--horizon", "3"], "the plan ends at 6.0, past the horizon 3.0"),
            (["migrate", "--horizon", "5"], "the plan ends at 6.0, past the horizon 5.0"),
            (["rebalance", "--horizon", "4"], "the plan ends at 6.0, past the horizon 4.0"),
            (["explore", "--horizon", "5"], "the plan ends at 6.0, past the horizon 5.0"),
            (
                ["migrate", "--shards", "1"],
                "migrations=3 needs somewhere to move keys: it requires "
                "shards >= 2, got shards=1",
            ),
            (["migrate", "--migrations", "-1"], "migrations must be non-negative, got -1"),
        ],
        ids=[
            "explore-churn-nan", "explore-churn-negative", "simulate-churn-nan",
            "simulate-churn-negative", "explore-no-seeds", "explore-migrations-unsharded",
            "explore-delta-nan", "explore-horizon-zero", "simulate-horizon-zero",
            "simulate-horizon-short", "migrate-horizon-short", "rebalance-horizon-short",
            "explore-horizon-short",
            "migrate-one-shard", "migrate-migrations-negative",
        ],
    )
    def test_a_bad_or_empty_setting_is_refused_by_name(self, capsys, argv, named):
        # Each of these used to run (with no churn, an empty sweep, zero
        # joins, an empty workload past a short horizon, self-handoffs on
        # one shard or no handoffs at all) and exit 0, or named a
        # partition instead of delta.
        serial = ["--workers", "1"] if argv[0] == "explore" else []
        assert main(argv + serial) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

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
        assert main(self.QUICK + ["--retire", "0", "--horizon", "220"]) == 0
        out = capsys.readouterr().out
        assert "retire=0" in out
        assert "[retire]" in out
        assert "8 committed, 3 aborted, 0 unresolved" in out
        assert "regularity: SAFE" in out

    def test_unknown_plan_rejected(self, capsys):
        assert main(self.QUICK + ["--plan", "not-a-plan"]) == 2
        captured = capsys.readouterr()
        assert "unknown fault plan 'not-a-plan'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--cooldown", "--load"])
    def test_deleted_policy_flags_are_refused(self, capsys, flag):
        with pytest.raises(SystemExit) as refused:
            main(self.QUICK + [flag, "1"])
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--period", "--threshold"])
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
        assert "unknown fault plan 'not-a-plan'" in capsys.readouterr().err
