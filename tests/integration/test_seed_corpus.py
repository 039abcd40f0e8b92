"""The regression-seed corpus: found scenarios never regress.

The golden store's ``corpus/<name>`` family (``tests/golden.py``)
records every explorer scenario worth keeping — violating runs
(expected breakages of the paper's hypotheses) and near-misses (faults
fired, safety held) — as its spec together with the verdict, checker
counts and history digest observed when the entry was recorded.  This
suite holds each recorded spec to :data:`CORPUS_SCENARIOS`, replays the
canonical scenario and asserts the outcome is unchanged, so a scenario
the explorer once found can never silently change meaning.

The digests double as a determinism net: like the ``digest/`` family,
they may only change when a change *intentionally* moves scheduling,
RNG draws or churn accounting — it then regenerates the store with
``PYTHONPATH=src python -m tests.golden`` and says which keys moved.

Replay goes through the shared execution engine — each entry is a
``RunSpec`` of kind ``"repro.workloads.explorer:scenario_cell"``, the
same path ``repro explore`` takes — so the corpus also guards the
engine's serial/parallel equivalence: outcomes must match the recorded
digests at whatever worker count this host runs.
"""

from __future__ import annotations

import functools

import pytest

from repro.exec import RunSpec, run_specs
from repro.workloads.explorer import ScenarioOutcome, ScenarioSpec, build_plan
from tests.golden import expected

DELTA = 5.0
HORIZON = 120.0
N = 10


def _spec(name: str, plan_name: str, **overrides) -> tuple[str, ScenarioSpec]:
    plan = build_plan(plan_name, DELTA, HORIZON, N)
    return name, ScenarioSpec(
        n=N, delta=DELTA, horizon=HORIZON, plan=plan, **overrides
    )


#: The resharding-storm corpus shape: big enough for three shards of
#: six, small enough to replay fast.
CLUSTER_N = 18


def _cluster_spec(
    name: str, plan_name: str, **overrides
) -> tuple[str, ScenarioSpec]:
    plan = build_plan(plan_name, DELTA, HORIZON, CLUSTER_N)
    params = dict(
        n=CLUSTER_N, delta=DELTA, horizon=HORIZON, plan=plan,
        shards=3, keys=6, migrations=2,
    )
    params.update(overrides)
    return name, ScenarioSpec(**params)


#: The canonical corpus: one entry per scenario family the explorer
#: surfaced.  Violating entries document hypothesis breakage; safe
#: entries pin the near-miss boundary from the other side.
CORPUS_SCENARIOS: list[tuple[str, ScenarioSpec]] = [
    # -- expected breakages (out-of-model violations) ------------------
    _spec("sync-heavy-loss", "heavy-loss", protocol="sync", delay="sync", seed=0),
    _spec(
        "sync-partition-drop", "partition-drop", protocol="sync", delay="sync", seed=0
    ),
    _spec("sync-delay-spike", "delay-spike", protocol="sync", delay="sync", seed=0),
    _spec(
        "sync-under-es-delays", "none", protocol="sync", delay="es", seed=0
    ),  # the sync protocol needs the bound it assumes
    _spec(
        "abd-under-churn", "none", protocol="abd", delay="sync",
        churn_rate=0.02, seed=0,
    ),  # the paper's motivation: the static baseline breaks
    _spec(
        "combo-shrinks-to-partition", "combo", protocol="sync", delay="sync",
        churn_rate=0.02, seed=0,
    ),
    # -- near misses (faults fired, safety held) -----------------------
    _spec(
        "sync-light-loss-holds", "light-loss", protocol="sync", delay="sync",
        churn_rate=0.02, seed=0,
    ),
    _spec(
        "sync-writer-crash-holds", "writer-crash", protocol="sync", delay="sync",
        seed=0,
    ),
    _spec(
        "es-stalls-dont-lie", "heavy-loss", protocol="es", delay="sync",
        churn_rate=0.02, seed=0,
    ),  # quorums block under loss but never return stale values
    _spec(
        "es-partition-drop-holds", "partition-drop", protocol="es", delay="es",
        churn_rate=0.02, seed=0,
    ),
    # -- clean baselines ----------------------------------------------
    _spec("sync-baseline", "none", protocol="sync", delay="sync",
          churn_rate=0.02, seed=0),
    _spec("es-baseline", "none", protocol="es", delay="es",
          churn_rate=0.02, seed=0),
    # -- resharding storms (live migration under attack) ---------------
    _cluster_spec(
        "cluster-clean-migration", "none", churn_rate=0.02, seed=0,
    ),  # the baseline: both handoffs commit, everything stays judged
    _cluster_spec(
        "mig-loss-aborts-cleanly", "mig-loss", churn_rate=0.02, seed=0,
    ),  # total coordination loss is in-model: clean aborts, safety holds
    _cluster_spec(
        "mig-crash-install-commits", "mig-crash-install", seed=0,
    ),  # a dest replica dying mid-install still reaches full coverage
    _cluster_spec(
        "mig-storm-breaks", "mig-storm", churn_rate=0.02, seed=1,
    ),  # 35% register loss on top: out-of-model, breakage documented
    # -- rebalancing storms (policy-planned migration under attack) -----
    _cluster_spec(
        "rebal-clean-converges", "none", churn_rate=0.02, seed=0,
        migrations=0, rebalance=2,
    ),  # the policy plans its own storms; every one resolves, safety holds
    _cluster_spec(
        "rebal-loss-aborts-cleanly", "rebal-loss", churn_rate=0.02, seed=0,
        migrations=0, rebalance=2,
    ),  # total handoff-coordination loss: every policy move aborts clean
    _cluster_spec(
        "rebal-storm-breaks", "rebal-storm", churn_rate=0.02, seed=1,
        migrations=0, rebalance=2,
    ),  # register loss + dest crashes on top: out-of-model, documented
]


def _observed(outcome: ScenarioOutcome) -> dict:
    return {
        "verdict": outcome.verdict,
        "safe": outcome.safe,
        "violations": outcome.violation_count,
        "checked": outcome.checked_count,
        "live": outcome.live,
        "in_model": outcome.classification.in_model,
        "digest": outcome.digest,
    }


#: The canonical scenarios by their golden-store key.
SPECS = {f"corpus/{name}": spec for name, spec in CORPUS_SCENARIOS}


@functools.lru_cache(maxsize=1)
def _replayed() -> dict[str, ScenarioOutcome]:
    """Every canonical scenario, replayed once per session, by key.

    Each becomes a ``RunSpec`` of the explorer's cell kind — the exact path
    ``repro explore`` runs — judged across all cores.
    """
    outcomes = run_specs(
        [
            RunSpec(
                kind="repro.workloads.explorer:scenario_cell",
                params=spec.to_dict(),
                label=name,
            )
            for name, spec in CORPUS_SCENARIOS
        ]
    )
    return dict(zip(SPECS, outcomes))


def _entry(key: str) -> dict:
    return {"spec": SPECS[key].to_dict(), "expect": _observed(_replayed()[key])}


def corpus_family() -> dict:
    """The golden store's ``corpus/`` family: every canonical scenario."""
    return {key: functools.partial(_entry, key) for key in SPECS}


@pytest.mark.parametrize("key", SPECS)
def test_corpus_entry_records_its_canonical_spec(key):
    assert expected(key)["spec"] == SPECS[key].to_dict(), (
        f"{key}'s recorded spec is not its CORPUS_SCENARIOS spec"
    )


@pytest.mark.parametrize("key", SPECS)
def test_corpus_seed_replays_to_the_recorded_verdict(key):
    assert _observed(_replayed()[key]) == expected(key)["expect"], (
        f"{key} no longer replays to its recorded outcome; if this change "
        f"intentionally moved scheduling/RNG/churn semantics, regenerate "
        f"the golden store (see module docstring)"
    )


def test_corpus_keeps_documenting_the_boundary():
    """The corpus must retain both sides of the model boundary."""
    verdicts = [expected(key)["expect"]["verdict"] for key in SPECS]
    assert "expected-breakage" in verdicts
    assert {"near-miss", "ok"} & set(verdicts)
    assert "bug" not in verdicts, (
        "an in-model bug must be fixed, not enshrined in the corpus"
    )
