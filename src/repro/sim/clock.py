"""Simulated time for the discrete-event simulator.

The paper's time model is the set of positive integers (Section 2.1).
The simulator is slightly more liberal: time is a non-negative real so
that message delays drawn from continuous distributions remain exact,
while churn ticks and protocol timeouts stay on the integer grid.  All
ordering guarantees only rely on times being totally ordered.
"""

from __future__ import annotations

#: Type alias used throughout the library for simulated instants.
Time = float

#: The instant at which every simulation starts.
START_OF_TIME: Time = 0.0
