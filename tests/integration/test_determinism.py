"""Determinism: the repository's foundational testing assumption.

Every stochastic choice flows through seeded named streams, so equal
configurations must produce byte-identical observable behaviour — ops,
messages, traces, checker verdicts.  These tests pin that down across
protocols and delay models.
"""

import pytest

from repro.bench import DIGEST_WORKLOADS
from repro.net.delay import AsynchronousDelay, EventuallySynchronousDelay
from repro.workloads.generators import read_heavy_plan
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import committed_bench_artifact, make_system


def run_fingerprint(protocol: str, seed: int, delay_factory=None) -> tuple:
    system = make_system(
        protocol=protocol,
        n=15 if protocol != "es" else 15,
        seed=seed,
        trace=True,
        delay=delay_factory() if delay_factory else None,
    )
    system.attach_churn(rate=0.01, min_stay=15.0)
    driver = WorkloadDriver(system)
    plan = read_heavy_plan(
        start=5.0,
        end=80.0,
        write_period=20.0,
        read_rate=0.5,
        rng=system.rng.stream("fp.plan"),
    )
    driver.install(plan)
    system.run_until(120.0)
    history = system.close()
    ops = tuple(
        (op.kind, op.process_id, op.invoke_time, op.response_time, str(op.argument))
        for op in history
    )
    trace_digest = tuple(
        (record.time, record.kind.value, record.process)
        for record in system.trace
    )
    return (
        ops,
        system.network.sent_count,
        system.network.delivered_count,
        system.network.dropped_count,
        system.broadcast.broadcast_count,
        len(trace_digest),
        hash(trace_digest),
        system.check_safety().violation_count,
    )


class TestBitwiseReproducibility:
    @pytest.mark.parametrize("protocol", ["sync", "naive", "es", "abd"])
    def test_same_seed_same_everything(self, protocol):
        assert run_fingerprint(protocol, 77) == run_fingerprint(protocol, 77)

    def test_different_seed_different_run(self):
        assert run_fingerprint("sync", 1) != run_fingerprint("sync", 2)

    def test_asynchronous_delays_are_reproducible(self):
        factory = lambda: AsynchronousDelay(mean=6.0)
        assert run_fingerprint("es", 5, factory) == run_fingerprint("es", 5, factory)

    def test_eventually_synchronous_reproducible(self):
        factory = lambda: EventuallySynchronousDelay(gst=30.0, delta=5.0)
        assert run_fingerprint("es", 9, factory) == run_fingerprint("es", 9, factory)


class TestTraceTransparency:
    """The trace fast path must be semantically invisible.

    With ``trace=False`` the kernel skips trace-record and label
    construction entirely; the operation history must nonetheless be
    byte-identical to the traced run — tracing is observation, never
    behaviour.
    """

    @pytest.mark.parametrize("protocol", ["sync", "es"])
    def test_trace_on_off_same_history(self, protocol):
        def ops_fingerprint(trace: bool) -> tuple:
            system = make_system(protocol=protocol, n=11, seed=13, trace=trace)
            system.attach_churn(rate=0.03, min_stay=15.0)
            driver = WorkloadDriver(system)
            plan = read_heavy_plan(
                start=5.0,
                end=80.0,
                write_period=20.0,
                read_rate=0.5,
                rng=system.rng.stream("fp.plan"),
            )
            driver.install(plan)
            system.run_until(120.0)
            history = system.close()
            return tuple(
                (op.kind, op.process_id, op.invoke_time, op.response_time,
                 str(op.argument))
                for op in history
            )

        assert ops_fingerprint(True) == ops_fingerprint(False)


@pytest.mark.parametrize("field", DIGEST_WORKLOADS)
def test_digest_workload_reproduces_the_committed_digest(field):
    """The tier-1 pin of "byte-identical digests": each of the six
    fixed-seed digest workloads must hash to the entry committed in
    ``BENCH_kernel.json``.  A PR that changes scheduling, RNG draws or
    accounting on purpose regenerates the artifact in the same commit
    (``python -m repro bench --repeats 7``) and says so."""
    committed = committed_bench_artifact()["determinism"]
    assert DIGEST_WORKLOADS[field]() == committed[field]


class TestExperimentDeterminism:
    def test_experiments_are_reproducible(self):
        from repro.experiments import EXPERIMENTS

        for experiment_id in ("E4", "E9"):
            first = EXPERIMENTS[experiment_id](seed=3, quick=True)
            second = EXPERIMENTS[experiment_id](seed=3, quick=True)
            assert first.rows == second.rows, experiment_id
            assert first.verdict == second.verdict
