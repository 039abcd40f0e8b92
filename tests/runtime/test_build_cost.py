"""What building a population costs, in Python calls per seed.

The paper's system starts with n processes already active (footnote 3),
and at n = 10⁵ building them is most of a judged run's setup.  A seed
costs its objects, not its frames: ``DynamicSystem._build_seeds`` makes
the pids in one comprehension and enters the whole population through
one bulk ``Membership.enter``, so the only frames entered per seed are
the constructor chain ``node_class(pid, ctx, space)`` runs — the
protocol node's ``__init__``, ``RegisterNode.__init__`` and
``SimProcess.__init__``, plus the ES join phase's
``QuorumPhase.__init__``: every seed is handed the population's one
``RegisterSpace``, so none builds its own.  ``sys.setprofile`` counts
every Python-level ``call`` event over the build — deterministic, so
the bound holds without timing noise.  At n = 2000 (CPython 3.11) it
measures 3.03 / 4.03 / 3.03 calls per seed for sync / es / abd,
against 4.03 / 5.03 / 4.03 with a ``RegisterSpace.__init__`` per seed
and 7.03 / 8.03 / 7.03 with a ``_next_pid`` frame, a key-index frame
and a ``Membership.enter`` frame per seed as well.  The population's
one space comes from the system's ``SpaceTable`` once per build.
"""

from __future__ import annotations

import sys

import pytest

from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem

N = 2000

#: protocol -> the ratchet: calls over the build per seed.
MAX_CALLS_PER_SEED = {"sync": 3.05, "es": 4.05, "abd": 3.05}


@pytest.mark.parametrize("protocol", sorted(MAX_CALLS_PER_SEED))
def test_a_seed_costs_its_constructor_chain_and_no_more(protocol):
    # One throwaway build first: imports and per-class state are paid
    # once per process, not once per seed.
    DynamicSystem(SystemConfig(n=20, trace=False, protocol=protocol))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        system = DynamicSystem(SystemConfig(n=N, trace=False, protocol=protocol))
    finally:
        sys.setprofile(None)
    assert len(system.membership) == system.membership.active_count == N
    per_seed = calls / N
    assert per_seed <= MAX_CALLS_PER_SEED[protocol], (
        f"{protocol}: {calls} calls over {N} seeds = {per_seed:.3f} per seed"
    )
