"""Unit tests for :class:`repro.cluster.config.ClusterConfig`."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.runtime.assembly import (
    derive_shard_seed,
    scope_pid,
    shard_pid_prefix,
    split_population,
)
from repro.sim.errors import ConfigError
from repro.sim.rng import derive_seed


class TestValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigError):
            ClusterConfig(shards=0)

    def test_rejects_zero_keys(self):
        with pytest.raises(ConfigError):
            ClusterConfig(keys=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 3.5), ("shards", 2.0), ("keys", 4.0), ("n", True), ("shards", True)],
    )
    def test_a_non_int_size_is_named(self, field, value):
        # A float used to pass validation and die in the build with a
        # bare ``TypeError`` from ``range``.
        with pytest.raises(ConfigError, match=f"^{field} must be an int, got {value!r}$"):
            ClusterConfig(**{field: value})

    def test_int_sizes_are_unchanged(self):
        config = ClusterConfig(shards=3, keys=5, n=12)
        assert (config.shards, config.keys, config.n) == (3, 5, 12)
        assert sum(config.shard_config(i).n for i in range(3)) == 12

    def test_rejects_population_smaller_than_shards(self):
        with pytest.raises(ConfigError):
            ClusterConfig(shards=8, n=4)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigError):
            ClusterConfig(protocol="paxos")

    def test_rejects_unknown_delay_name(self):
        with pytest.raises(ConfigError):
            ClusterConfig(delay="subspace")

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0]
    )
    def test_a_non_finite_or_non_positive_delta_is_named_at_construction(self, value):
        # Refused by the cluster's own config, not first by a shard's.
        with pytest.raises(ConfigError, match="^delta must be positive and finite"):
            ClusterConfig(delta=value)

    @pytest.mark.parametrize("value", [True, False, "5.0", None])
    def test_a_bool_or_non_real_delta_is_named_at_construction(self, value):
        with pytest.raises(
            ConfigError, match=r"^delta must be a real number \(a bool is not one\)"
        ):
            ClusterConfig(delta=value)

    @pytest.mark.parametrize("knob", ["entrant_policy", "initial_value", "sample_period"])
    def test_a_deleted_knob_is_refused(self, knob):
        # Every shard keeps SystemConfig's entrant policy and the
        # runtime's constant initial value and sample period.
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
            ClusterConfig(**{knob: 1})


class TestPopulationSplit:
    def test_even_split(self):
        assert split_population(40, 4) == (10, 10, 10, 10)

    def test_remainder_goes_to_earliest_shards(self):
        assert split_population(10, 3) == (4, 3, 3)

    def test_every_shard_at_least_one(self):
        assert split_population(3, 3) == (1, 1, 1)

    def test_rejects_impossible_split(self):
        with pytest.raises(ConfigError):
            split_population(2, 3)

    def test_shard_sizes_sum_to_total(self):
        config = ClusterConfig(shards=7, n=45)
        assert sum(config.shard_sizes()) == 45


class TestScopePid:
    def test_bare_pid_gains_the_shard_namespace(self):
        assert scope_pid("p0001", 2) == "s2.p0001"

    def test_namespaced_pid_passes_through(self):
        assert scope_pid("s9.p0007", 2) == "s9.p0007"

    def test_agrees_with_the_process_namespace(self):
        # scope_pid("p0001", i) must name what shard i actually calls
        # its first seed process.
        assert scope_pid("p0001", 4) == f"{shard_pid_prefix(4)}0001"


class TestKeyRouting:
    def test_partition_covers_every_key_exactly_once(self):
        config = ClusterConfig(shards=4, keys=16, n=8)
        owned = config.keys_by_shard()
        flat = [key for keys in owned for key in keys]
        assert sorted(flat) == sorted(config.key_tuple())

    def test_routing_is_deterministic_and_seeded(self):
        a = ClusterConfig(shards=4, keys=16, n=8, seed=1)
        b = ClusterConfig(shards=4, keys=16, n=8, seed=1)
        c = ClusterConfig(shards=4, keys=16, n=8, seed=2)
        assert a.keys_by_shard() == b.keys_by_shard()
        # A different seed must (for this many keys) shuffle at least
        # one key to a different shard.
        assert a.keys_by_shard() != c.keys_by_shard()

    def test_routing_is_the_documented_hash(self):
        config = ClusterConfig(shards=4, keys=16, n=8, seed=9)
        for key in config.key_tuple():
            assert config.shard_of(key) == (
                derive_seed(9, f"cluster.keymap:{key}") % 4
            )

    def test_single_key_cluster_keeps_the_none_sentinel(self):
        config = ClusterConfig(shards=2, keys=1, n=4)
        assert config.key_tuple() == (None,)

    def test_fewer_keys_than_shards_leaves_empty_shards(self):
        config = ClusterConfig(shards=8, keys=2, n=16, seed=0)
        owned = config.keys_by_shard()
        assert sum(1 for keys in owned if keys) <= 2
        assert sum(len(keys) for keys in owned) == 2


class TestShardConfigDerivation:
    def test_shard_config_namespace_and_seed(self):
        config = ClusterConfig(shards=3, keys=6, n=10, seed=42, delta=4.0)
        for index in range(3):
            sub = config.shard_config(index)
            assert sub.pid_prefix == shard_pid_prefix(index) == f"s{index}.p"
            assert sub.seed == derive_shard_seed(42, index)
            assert sub.delta == 4.0
            assert sub.n == config.shard_sizes()[index]

    def test_shard_config_owned_keys(self):
        config = ClusterConfig(shards=3, keys=6, n=10, seed=42)
        owned = config.keys_by_shard()
        for index in range(3):
            sub = config.shard_config(index)
            if owned[index]:
                assert sub.key_set == owned[index]
                assert sub.keys == len(owned[index])
            else:
                # An empty shard still serves a (private) single register.
                assert sub.key_set is None
                assert sub.keys == 1

    def test_shard_config_index_bounds(self):
        config = ClusterConfig(shards=2, n=4)
        with pytest.raises(ConfigError):
            config.shard_config(2)
        with pytest.raises(ConfigError):
            config.shard_config(-1)

    def test_shard_seeds_are_pairwise_distinct(self):
        config = ClusterConfig(shards=8, n=16, seed=0)
        seeds = {config.shard_config(i).seed for i in range(8)}
        assert len(seeds) == 8

    def test_delay_name_instantiated_per_shard(self):
        config = ClusterConfig(shards=2, n=4, delay="es")
        a = config.shard_config(0).delay
        b = config.shard_config(1).delay
        assert a is not None and b is not None
        assert a is not b
