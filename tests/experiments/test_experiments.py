"""Integration tests: every experiment must reproduce its paper claim.

These are the repository's headline assertions — each experiment's
``verdict`` starts with ``REPRODUCED`` when the measured behaviour
matches the paper.  ``quick=True`` keeps horizons small; the full
parameterization behind ``EXPERIMENTS.md`` is the same code.
"""

from functools import cache

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.harness import populations_label


@cache
def quick(experiment_id):
    """The quick run of one experiment, once per session: experiments
    are deterministic and every test here only reads the result."""
    return EXPERIMENTS[experiment_id](seed=0, quick=True)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_reproduces(experiment_id):
    result = quick(experiment_id)
    assert result.verdict.startswith("REPRODUCED"), (
        f"{experiment_id} did not reproduce:\n{result.describe()}"
    )


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_result_is_well_formed(experiment_id):
    result = quick(experiment_id)
    assert result.experiment_id == experiment_id
    assert result.rows, "an experiment must produce at least one row"
    assert result.paper_claim
    assert result.to_table()
    assert result.describe()


class TestSpecificShapes:
    """Spot-checks of the quantitative shapes the paper predicts."""

    def test_e4_bound_column_matches_formula(self):
        result = quick("E4")
        n = result.params["n"]
        delta = result.params["delta"]
        for row in result.rows:
            assert row["bound"] == pytest.approx(
                n * (1.0 - 3.0 * delta * row["c"]), abs=1e-9
            )
            assert row["first_window"] >= row["bound"] - 1e-9

    def test_e5_no_violations_below_cap(self):
        result = quick("E5")
        for row in result.rows:
            if row["c_over_cap"] < 1.0:
                assert row["violation_rate"] == 0.0
                assert row["stuck"] == 0
                assert row["join_lat_max"] <= 3 * result.params["delta"] + 1e-9

    def test_e6_horn_a_monotone_degradation(self):
        result = quick("E6")
        horn_a = [r for r in result.rows if r["horn"] == "A"]
        # More delay inflation must not make the timer protocol safer
        # (allowing noise: compare first vs last).
        assert horn_a[-1]["violation_rate"] >= horn_a[0]["violation_rate"]

    def test_e6_horn_b_all_blocked(self):
        result = quick("E6")
        horn_b = [r for r in result.rows if r["horn"] == "B"]
        assert horn_b
        assert all(r["victim_blocked"] for r in horn_b)

    def test_e9_sync_reads_are_free(self):
        result = quick("E9")
        sync_read = next(
            r for r in result.rows if r["protocol"] == "sync" and r["op"] == "read"
        )
        assert sync_read["max"] == 0.0
        es_read = next(
            r for r in result.rows if r["protocol"] == "es" and r["op"] == "read"
        )
        assert es_read["mean"] > 0.0

    def test_e10_abd_is_the_one_that_breaks(self):
        result = quick("E10")
        worst_churn = max(r["c"] for r in result.rows)
        for row in result.rows:
            if row["c"] == worst_churn:
                if row["protocol"] == "abd":
                    assert row["read_done_rate"] < 0.9
                else:
                    assert row["read_done_rate"] > 0.99

    def test_e11_join_collapse_at_cap_under_adversary(self):
        result = quick("E11")
        for row in result.rows:
            if row["policy"] == "oldest_first":
                if row["c_over_cap"] <= 0.95:
                    assert row["join_done_rate"] > 0.8
                if row["c_over_cap"] >= 1.3:
                    assert row["join_done_rate"] < 0.05


class TestE12Shapes:
    def test_burst_damages_joins_at_equal_average(self):
        result = quick("E12")
        rows = {row["regime"]: row for row in result.rows}
        assert rows["burst"]["join_done_rate"] < rows["constant"]["join_done_rate"]
        assert rows["constant"]["violations"] == 0
        assert rows["diurnal"]["peak_over_cap"] < 1.0
        assert rows["burst"]["peak_over_cap"] > 1.0


class TestE16Shapes:
    def test_rebalancer_pays_a_reported_amortized_cost(self):
        result = quick("E16")
        for row in result.rows:
            assert row["imbalance_rebalanced"] < row["imbalance_static"]
            assert row["unresolved"] == 0
            assert row["violations"] == 0
            # Handoffs are not free and the cost is reported, not hidden.
            assert row["committed"] > 0
            assert row["cost_per_commit"] > 0


class TestVerdictsNameWhatRan:
    """A verdict names only the populations its grid ran."""

    def test_quick_e17_names_its_one_refresh_per_tick_cell(self):
        assert "(including n = 10⁴)" in quick("E17").verdict

    def test_quick_e17_names_its_above_threshold_cells(self):
        assert "above the threshold (n ∈ {10², 10³})" in quick("E17").verdict


class TestLargeCellsCompleteEveryJoin:
    """E17's one-refresh-per-tick cells must have eligible joins and
    complete every one: a cell with none, or with one left undone,
    fails the verdict.  Its above-threshold cells (n = 10², 10³) must
    starve: one that completes half its joins, or all of them, fails it
    too — as does a sub-threshold cell that completes only half, and a
    violation in any kind of cell."""

    DOCTORED = [
        pytest.param(dict(eligible=0, done=0, done_rate=1.0), id="no-eligible"),
        pytest.param(dict(done_rate=0.95), id="one-undone"),
    ]

    #: The real cells' results by (module, params): cells are
    #: deterministic, so each runs once for all the doctored cases.
    _CELLS: dict = {}

    def _run_doctored(self, monkeypatch, module, doctor, change):
        from repro.exec import registry

        cell = module.cell

        def doctored(**params):
            key = (module.__name__, tuple(sorted(params.items())))
            if key not in self._CELLS:
                self._CELLS[key] = cell(**params)
            data = dict(self._CELLS[key])
            if doctor(params):
                data.update(change)
            return data

        monkeypatch.setattr(module, "cell", doctored)
        monkeypatch.setattr(registry, "_RESOLVED", {})
        return module.run(seed=0, quick=True, workers=1).verdict

    @pytest.mark.parametrize("change", DOCTORED)
    def test_e17_refresh_cell(self, monkeypatch, change):
        from repro.experiments import e17_population_scaling as e17

        verdict = self._run_doctored(
            monkeypatch, e17, lambda p: p["n"] >= 10_000, change
        )
        assert verdict.startswith("NOT REPRODUCED: regular, but join completion")

    @pytest.mark.parametrize("done_rate", [0.5, 1.0])
    @pytest.mark.parametrize("n", [100, 1_000])
    def test_e17_above_threshold_cell(self, monkeypatch, n, done_rate):
        from repro.experiments import e17_population_scaling as e17

        verdict = self._run_doctored(
            monkeypatch,
            e17,
            lambda p: p["n"] == n and not p["writes"],
            dict(done_rate=done_rate),
        )
        assert verdict.startswith("NOT REPRODUCED: regular, but join completion")

    @pytest.mark.parametrize("n", [100, 1_000])
    def test_e17_sub_threshold_cell(self, monkeypatch, n):
        from repro.experiments import e17_population_scaling as e17

        verdict = self._run_doctored(
            monkeypatch,
            e17,
            lambda p: p["n"] == n and p["writes"],
            dict(done_rate=0.5),
        )
        assert verdict.startswith("NOT REPRODUCED: regular, but join completion")

    CELL_KINDS = {
        "sub-threshold": lambda p: p["n"] == 100 and p["writes"],
        "above-threshold": lambda p: p["n"] == 1_000 and not p["writes"],
        "refresh": lambda p: p["n"] >= 10_000,
    }

    @pytest.mark.parametrize("kind", sorted(CELL_KINDS))
    def test_e17_violation_in_any_cell(self, monkeypatch, kind):
        from repro.experiments import e17_population_scaling as e17

        verdict = self._run_doctored(
            monkeypatch, e17, self.CELL_KINDS[kind], dict(violations=1)
        )
        assert verdict.startswith("NOT REPRODUCED: a population cell violated")


def test_populations_label():
    assert populations_label([1_000]) == "n = 10³"
    assert populations_label([10_000, 1_000, 10_000]) == "n ∈ {10³, 10⁴}"
    assert populations_label([500, 100_000]) == "n ∈ {500, 10⁵}"
