"""Unit tests for the delay models."""

import random

import pytest

from repro.net.delay import (
    AdversarialDelay,
    AsynchronousDelay,
    DualBoundSynchronousDelay,
    EventuallySynchronousDelay,
    SynchronousDelay,
    make_delay,
)
from repro.sim.errors import ConfigError


@pytest.fixture
def rng():
    return random.Random(99)


class TestSynchronousDelay:
    def test_respects_bound(self, rng):
        model = SynchronousDelay(delta=5.0)
        for _ in range(500):
            delay = model.sample("a", "b", None, 0.0, rng)
            assert 0.0 < delay <= 5.0

    def test_respects_min_delay(self, rng):
        model = SynchronousDelay(delta=5.0, min_delay=2.0)
        for _ in range(200):
            assert model.sample("a", "b", None, 0.0, rng) >= 2.0

    def test_known_bound_exposed(self):
        assert SynchronousDelay(delta=5.0).known_bound == 5.0

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ConfigError):
            SynchronousDelay(delta=0.0)

    def test_rejects_min_above_delta(self):
        with pytest.raises(ConfigError):
            SynchronousDelay(delta=1.0, min_delay=2.0)


class TestEventuallySynchronousDelay:
    def test_bounded_after_gst(self, rng):
        model = EventuallySynchronousDelay(gst=100.0, delta=5.0)
        for _ in range(300):
            assert model.sample("a", "b", None, 150.0, rng) <= 5.0

    def test_unbounded_before_gst(self, rng):
        model = EventuallySynchronousDelay(
            gst=1000.0, delta=5.0, pre_gst_max=100.0, flush_at_gst=False
        )
        samples = [model.sample("a", "b", None, 0.0, rng) for _ in range(300)]
        assert max(samples) > 5.0  # clearly exceeds the eventual bound

    def test_flush_at_gst_caps_in_flight(self, rng):
        model = EventuallySynchronousDelay(gst=50.0, delta=5.0, pre_gst_max=1000.0)
        for _ in range(300):
            delay = model.sample("a", "b", None, 40.0, rng)
            assert 40.0 + delay <= 55.0 + 1e-9  # delivered by gst + delta

    def test_no_known_bound(self):
        model = EventuallySynchronousDelay(gst=10.0, delta=5.0)
        assert model.known_bound is None

    def test_sample_exactly_at_gst_is_bounded(self, rng):
        model = EventuallySynchronousDelay(gst=10.0, delta=5.0)
        assert model.sample("a", "b", None, 10.0, rng) <= 5.0

    def test_rejects_pre_gst_max_below_delta(self):
        with pytest.raises(ConfigError):
            EventuallySynchronousDelay(gst=0.0, delta=5.0, pre_gst_max=1.0)

    def test_rejects_negative_gst(self):
        with pytest.raises(ConfigError):
            EventuallySynchronousDelay(gst=-1.0, delta=5.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_rejects_non_positive_delta_by_name(self, delta):
        with pytest.raises(ConfigError, match=f"delta must be positive, got {delta!r}"):
            EventuallySynchronousDelay(gst=0.0, delta=delta)

    @pytest.mark.parametrize("min_delay", [0.0, -0.5, 5.5])
    def test_rejects_min_delay_outside_zero_to_delta_by_name(self, min_delay):
        message = rf"min_delay {min_delay!r} must lie in \(0, delta=5.0\]"
        with pytest.raises(ConfigError, match=message):
            EventuallySynchronousDelay(gst=0.0, delta=5.0, min_delay=min_delay)


def test_make_delay_refuses_an_unknown_name_by_name():
    with pytest.raises(ConfigError, match="unknown delay model 'fast'; choose from"):
        make_delay("fast", 5.0)


class TestAsynchronousDelay:
    def test_positive_and_unbounded_in_distribution(self, rng):
        model = AsynchronousDelay(mean=5.0)
        samples = [model.sample("a", "b", None, 0.0, rng) for _ in range(2000)]
        assert all(s > 0 for s in samples)
        assert max(samples) > 15.0  # heavy tail shows up

    def test_no_known_bound(self):
        assert AsynchronousDelay().known_bound is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            AsynchronousDelay(mean=0.0)
        with pytest.raises(ConfigError):
            AsynchronousDelay(min_delay=0.0)


class TestAdversarialDelay:
    def test_policy_controls_delay(self, rng):
        model = AdversarialDelay(lambda s, d, p, t: 7.0)
        assert model.sample("a", "b", None, 0.0, rng) == 7.0

    def test_none_falls_through_to_fallback(self, rng):
        model = AdversarialDelay(
            lambda s, d, p, t: None, fallback=SynchronousDelay(delta=2.0)
        )
        assert model.sample("a", "b", None, 0.0, rng) <= 2.0

    def test_policy_sees_message_attributes(self, rng):
        seen = {}

        def policy(sender, dest, payload, send_time):
            seen.update(sender=sender, dest=dest, payload=payload, t=send_time)
            return 1.0

        AdversarialDelay(policy).sample("a", "b", "PAYLOAD", 4.0, rng)
        assert seen == {"sender": "a", "dest": "b", "payload": "PAYLOAD", "t": 4.0}

    def test_non_positive_policy_delay_rejected(self, rng):
        model = AdversarialDelay(lambda s, d, p, t: 0.0)
        with pytest.raises(ConfigError):
            model.sample("a", "b", None, 0.0, rng)


class TestDualBoundSynchronousDelay:
    def test_p2p_respects_small_bound(self, rng):
        from repro.net.delay import DualBoundSynchronousDelay

        model = DualBoundSynchronousDelay(broadcast_delta=5.0, p2p_delta=1.0)
        for _ in range(300):
            assert model.sample("a", "b", None, 0.0, rng) <= 1.0

    def test_broadcast_uses_large_bound(self, rng):
        from repro.net.delay import DualBoundSynchronousDelay

        model = DualBoundSynchronousDelay(broadcast_delta=5.0, p2p_delta=1.0)
        samples = [
            model.sample_broadcast("a", "b", None, 0.0, rng) for _ in range(300)
        ]
        assert all(s <= 5.0 for s in samples)
        assert max(s for s in samples) > 1.0  # clearly wider than δ'

    def test_known_bound_is_broadcast_delta(self):
        from repro.net.delay import DualBoundSynchronousDelay

        model = DualBoundSynchronousDelay(broadcast_delta=5.0, p2p_delta=1.0)
        assert model.known_bound == 5.0

    def test_validation(self):
        from repro.net.delay import DualBoundSynchronousDelay

        with pytest.raises(ConfigError):
            DualBoundSynchronousDelay(broadcast_delta=0.0, p2p_delta=1.0)
        with pytest.raises(ConfigError):
            DualBoundSynchronousDelay(broadcast_delta=2.0, p2p_delta=3.0)
        with pytest.raises(ConfigError):
            DualBoundSynchronousDelay(
                broadcast_delta=2.0, p2p_delta=1.0, min_delay=1.5
            )

    def test_default_models_share_broadcast_and_p2p_distribution(self, rng):
        """For single-bound models sample_broadcast falls back to sample."""
        model = SynchronousDelay(delta=3.0)
        for _ in range(100):
            assert model.sample_broadcast("a", "b", None, 0.0, rng) <= 3.0


class TestUniformHooks:
    """The declared (lo, span) parameters behind the vectorized planes.

    The network's batch-dispatch fast paths inline ``lo + span *
    rng.random()`` using these declarations; a model whose declared
    parameters drift from its ``sample`` draws would silently fork the
    RNG stream, so the hook must reproduce the draw bit-identically.
    """

    @pytest.mark.parametrize(
        "model",
        [
            SynchronousDelay(delta=5.0),
            SynchronousDelay(delta=3.0, min_delay=1.0),
            DualBoundSynchronousDelay(broadcast_delta=5.0, p2p_delta=2.0),
        ],
    )
    def test_p2p_uniform_matches_sample_bit_for_bit(self, model):
        lo, span = model.p2p_uniform()
        inlined = random.Random(7)
        sampled = random.Random(7)
        for _ in range(100):
            assert lo + span * inlined.random() == model.sample(
                "a", "b", None, 0.0, sampled
            )

    @pytest.mark.parametrize(
        "model",
        [
            SynchronousDelay(delta=5.0),
            DualBoundSynchronousDelay(broadcast_delta=5.0, p2p_delta=2.0),
        ],
    )
    def test_broadcast_uniform_matches_fanout_bit_for_bit(self, model):
        lo, span = model.broadcast_uniform()
        inlined = random.Random(13)
        sampled = random.Random(13)
        dests = [f"p{i}" for i in range(50)]
        delays = model.sample_broadcast_many("a", dests, None, 0.0, sampled)
        assert delays == [lo + span * inlined.random() for _ in dests]

    def test_non_uniform_models_decline_the_hooks(self):
        for model in (
            EventuallySynchronousDelay(gst=50.0, delta=5.0),
            AsynchronousDelay(mean=3.0),
            AdversarialDelay(lambda s, d, p, t: 7.0),
        ):
            assert model.broadcast_uniform() is None
            assert model.p2p_uniform() is None

    def test_fallback_fanout_matches_per_recipient_sampling(self):
        model = EventuallySynchronousDelay(gst=50.0, delta=5.0)
        vectorized = random.Random(21)
        looped = random.Random(21)
        dests = [f"p{i}" for i in range(20)]
        many = model.sample_broadcast_many("a", dests, None, 10.0, vectorized)
        one_by_one = [
            model.sample_broadcast("a", dest, None, 10.0, looped)
            for dest in dests
        ]
        assert many == one_by_one

    @pytest.mark.parametrize("flush", [True, False], ids=["flush", "no-flush"])
    @pytest.mark.parametrize(
        "send_time", [0.0, 10.0, 49.5, 50.0, 50.5, 300.0],
        ids=["t0", "before", "inside-the-flush", "at-gst", "after", "long-after"],
    )
    def test_es_fanout_is_per_recipient_sampling_bit_for_bit(self, send_time, flush):
        """The ES model draws a fan-out in one comprehension on either
        side of GST: same stream, same order, same ``flush_at_gst``
        clamp as ``sample_broadcast`` per recipient, and the stream is
        left where the loop leaves it."""
        model = EventuallySynchronousDelay(gst=50.0, delta=5.0, flush_at_gst=flush)
        vectorized = random.Random(21)
        looped = random.Random(21)
        dests = [f"p{i}" for i in range(200)]
        many = model.sample_broadcast_many("a", dests, None, send_time, vectorized)
        assert many == [
            model.sample_broadcast("a", dest, None, send_time, looped)
            for dest in dests
        ]
        assert vectorized.getstate() == looped.getstate()
        if flush and send_time < model.gst:
            latest = (model.gst + model.delta) - send_time
            assert max(many) == latest and many.count(latest) > 1  # clamped ties
        assert model.sample_broadcast_many("a", [], None, send_time, vectorized) == []
        assert vectorized.getstate() == looped.getstate()

    @pytest.mark.parametrize(
        "draw, lo, hi",
        [
            # The three per-message sites that used to call rng.uniform.
            (
                lambda rng: EventuallySynchronousDelay(gst=50.0, delta=5.0).sample(
                    "a", "b", None, 60.0, rng
                ),
                0.5, 5.0,
            ),
            (
                lambda rng: EventuallySynchronousDelay(
                    gst=50.0, delta=5.0, flush_at_gst=False
                ).sample("a", "b", None, 10.0, rng),
                0.5, 100.0,
            ),
            (
                lambda rng: DualBoundSynchronousDelay(
                    broadcast_delta=5.0, p2p_delta=2.0
                ).sample_broadcast("a", "b", None, 0.0, rng),
                0.2, 5.0,
            ),
        ],
        ids=["es-post-gst", "es-pre-gst", "dual-broadcast"],
    )
    def test_written_out_draw_is_random_uniform_bit_for_bit(self, draw, lo, hi):
        written_out = random.Random(31)
        wrapped = random.Random(31)
        for _ in range(10_000):
            assert draw(written_out) == wrapped.uniform(lo, hi)
