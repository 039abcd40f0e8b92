"""What a broadcast arrival costs the kernel, in Python frames.

A fault-free fan-out under a uniform delay model is one vector of
the scheduler's (``EventScheduler._schedule_vector``): each arrival's
queue entry is built, with its epoch's others, in one C-level ``zip``
when the clock reaches that epoch, and it fires through the network's
one delivery fire site, ``_Delivery.fire``, like a point-to-point
message.  So a delivered arrival enters one Python frame of
``repro.sim`` / ``repro.net`` — its fire — plus its share of the
broadcast call, of the epoch activations and of whatever else the
system runs meanwhile (its probe timers).  ``sys.setprofile`` counts
every Python-level ``call`` event over the drain, so the bound is exact
for a fixed seed and needs no quiet runner.  It measures 1.07 frames
per arrival (2145 for 2000: n = 2000, one WRITE of sequence number 0,
so no handler answers); 2.07 (4145) when each arrival re-armed a sweep
item through ``EventScheduler._push`` before its delivery.
"""

from __future__ import annotations

import os
import sys

import repro.net
import repro.sim
from repro.net.network import _Delivery
from repro.protocols.sync_reg import WriteMsg
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem

N = 2000
#: The ratchet: kernel frames per delivered fan-out arrival.
MAX_KERNEL_FRAMES_PER_ARRIVAL = 1.1


def test_a_broadcast_arrival_is_one_fire_frame():
    system = DynamicSystem(SystemConfig(n=N, trace=False))
    sender = system.seed_pids[0]
    payload = WriteMsg("v", 0)  # sn 0: its deliveries adopt nothing
    system.broadcast.broadcast(sender, payload)  # warm the dispatch caches
    system.run_for(2 * system.config.delta)
    network = system.network
    delivered = network.delivered_count
    dirs = tuple(
        os.path.dirname(package.__file__) + os.sep
        for package in (repro.sim, repro.net)
    )
    fire = _Delivery.fire.__code__
    kernel = fires = calls = 0

    def count(frame, event, arg):
        nonlocal kernel, fires, calls
        if event == "call":
            code = frame.f_code
            calls += 1
            kernel += code.co_filename.startswith(dirs)
            fires += code is fire

    sys.setprofile(count)
    try:
        system.broadcast.broadcast(sender, payload)
        system.run_for(2 * system.config.delta)
    finally:
        sys.setprofile(None)
    arrivals = network.delivered_count - delivered
    assert arrivals == N
    # One fire site: every arrival fired through ``_Delivery.fire``.
    assert fires == arrivals
    per_arrival = kernel / arrivals
    assert per_arrival <= MAX_KERNEL_FRAMES_PER_ARRIVAL, (
        f"{kernel} repro.sim / repro.net frames for {arrivals} arrivals "
        f"({calls} Python calls in all)"
    )
