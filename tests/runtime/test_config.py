"""Unit tests for system configuration validation."""

import pytest

from repro.net.delay import AsynchronousDelay
from repro.runtime.config import SystemConfig
from repro.sim.errors import ConfigError


class TestValidation:
    def test_defaults_are_valid(self):
        config = SystemConfig()
        assert config.n == 20
        assert config.protocol == "sync"

    def test_rejects_zero_population(self):
        with pytest.raises(ConfigError):
            SystemConfig(n=0)

    @pytest.mark.parametrize(
        "field, value", [("n", 2.5), ("keys", 1.5), ("n", True), ("keys", True)]
    )
    def test_a_non_int_size_is_named(self, field, value):
        # A float used to pass validation and die in the build with a
        # bare ``TypeError`` from ``range``; ``n=True`` built one process.
        with pytest.raises(ConfigError, match=f"^{field} must be an int, got {value!r}$"):
            SystemConfig(**{field: value})

    def test_int_sizes_are_unchanged(self):
        config = SystemConfig(n=7, keys=3)
        assert (config.n, config.keys) == (7, 3)
        assert config.key_tuple() == ("k0", "k1", "k2")

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ConfigError):
            SystemConfig(delta=0.0)

    @pytest.mark.parametrize("field", ["delta", "sample_period"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
    )
    def test_a_non_finite_or_non_positive_duration_is_named(self, field, value):
        # Used to surface as a SchedulerError about a bucket width or a
        # non-finite instant: quantities the caller never set.
        with pytest.raises(ConfigError, match=f"^{field} must be positive and finite"):
            SystemConfig(**{field: value})

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigError) as excinfo:
            SystemConfig(protocol="paxos")
        assert "sync" in str(excinfo.value)  # the error lists the options

    def test_rejects_bad_sample_period(self):
        with pytest.raises(ConfigError):
            SystemConfig(sample_period=0.0)

    def test_accepts_every_registered_protocol(self):
        from repro.protocols import PROTOCOLS

        for name in PROTOCOLS:
            assert SystemConfig(protocol=name).protocol == name

    def test_explicit_delay_model_is_kept(self):
        model = AsynchronousDelay(mean=3.0)
        assert SystemConfig(delay=model).delay is model

    def test_extra_dict_defaults_empty(self):
        assert SystemConfig().extra == {}


class TestClusterFacingFields:
    """The fields the sharded cluster derives per shard (PR 5)."""

    def test_key_tuple_default_is_historical_naming(self):
        assert SystemConfig(keys=1).key_tuple() == (None,)
        assert SystemConfig(keys=3).key_tuple() == ("k0", "k1", "k2")

    def test_key_set_overrides_naming(self):
        config = SystemConfig(keys=2, key_set=("k3", "k7"))
        assert config.key_tuple() == ("k3", "k7")

    def test_key_set_must_match_key_count(self):
        with pytest.raises(ConfigError):
            SystemConfig(keys=3, key_set=("k0",))

    def test_key_set_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            SystemConfig(keys=2, key_set=("k0", "k0"))

    def test_key_set_coerced_to_tuple(self):
        config = SystemConfig(keys=2, key_set=["a", "b"])
        assert config.key_set == ("a", "b")

    def test_pid_prefix_default_and_custom(self):
        assert SystemConfig().pid_prefix == "p"
        assert SystemConfig(pid_prefix="s3.p").pid_prefix == "s3.p"

    def test_empty_pid_prefix_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(pid_prefix="")
