"""What a broadcast arrival costs the kernel, in Python frames.

A dense fault-free fan-out under a uniform delay model — ``_DENSE``
arrivals or more per calendar epoch of its delay span, 360 recipients
at the runtime's ``δ/25`` buckets — is one vector of the scheduler's
(``EventScheduler._schedule_vector``): each arrival's queue entry is
built, with its epoch's others, in one C-level ``zip`` when the clock
reaches that epoch, and it fires through the network's one delivery fire
site, ``_Delivery.fire``, like a point-to-point message.  So a delivered
arrival enters one Python frame of ``repro.sim`` / ``repro.net`` — its
fire — plus its share of the broadcast call, of the epoch activations
and of whatever else the system runs meanwhile (its probe timers).  A
sparser fan-out builds no vector: each arrival is pushed on its own
(``EventScheduler._push``), so it enters two frames, its push and its
fire.  ``sys.setprofile`` counts every Python-level ``call`` event over
the drain, so each bound is exact for a fixed seed and needs no quiet
runner.

* Dense: one fan-out to n = 2000 seeds measures 1.07 frames per arrival
  (2146 for 2000: one WRITE of sequence number 0, so no handler
  answers); 2.07 when each arrival re-armed a sweep item through
  ``_push`` before its delivery.
* Sparse: 20 fan-outs to n = 100 seeds, issued together, measure 2.15
  frames per arrival (4295 for 2000; 3.23 for one fan-out alone, whose
  100 arrivals carry the probe timers and epoch activations by
  themselves).
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

#: The ratchets: kernel frames per delivered fan-out arrival.
MAX_DENSE_FRAMES_PER_ARRIVAL = 1.1
MAX_SPARSE_FRAMES_PER_ARRIVAL = 2.2


def kernel_frames(n, fanouts):
    """Broadcast a WRITE of sequence number 0 from a seed of an
    n-seed system ``fanouts`` times at one instant and drain the
    arrivals; return the arrivals, the ``repro.sim`` / ``repro.net``
    frames entered, the ``_Delivery.fire`` frames among them, every
    Python call, and the queue slots the fan-outs took."""
    system = DynamicSystem(SystemConfig(n=n, trace=False))
    sender = system.seed_pids[0]
    payload = WriteMsg("v", 0)  # sn 0: its deliveries adopt nothing
    system.broadcast.broadcast(sender, payload)  # warm the dispatch caches
    system.run_for(2 * system.config.delta)
    network = system.network
    engine = system.engine
    delivered = network.delivered_count
    slots = engine._occupied_slots()
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
        for _ in range(fanouts):
            system.broadcast.broadcast(sender, payload)
        taken = engine._occupied_slots() - slots
        system.run_for(2 * system.config.delta)
    finally:
        sys.setprofile(None)
    return network.delivered_count - delivered, kernel, fires, calls, taken


def test_a_dense_broadcast_arrival_is_one_fire_frame():
    arrivals, kernel, fires, calls, taken = kernel_frames(2000, 1)
    assert arrivals == 2000
    assert taken == 0  # one vector: no arrival holds a slot before its epoch
    # One fire site: every arrival fired through ``_Delivery.fire``.
    assert fires == arrivals
    per_arrival = kernel / arrivals
    assert per_arrival <= MAX_DENSE_FRAMES_PER_ARRIVAL, (
        f"{kernel} repro.sim / repro.net frames for {arrivals} arrivals "
        f"({calls} Python calls in all)"
    )


def test_a_sparse_broadcast_arrival_is_its_push_and_its_fire():
    arrivals, kernel, fires, calls, taken = kernel_frames(100, 20)
    assert arrivals == 2000
    assert taken >= arrivals  # per recipient: every arrival holds a slot
    assert fires == arrivals
    per_arrival = kernel / arrivals
    assert per_arrival <= MAX_SPARSE_FRAMES_PER_ARRIVAL, (
        f"{kernel} repro.sim / repro.net frames for {arrivals} arrivals "
        f"({calls} Python calls in all)"
    )
