"""Seeded random-number streams.

A simulation mixes several independent stochastic ingredients: message
delays, churn victim selection, workload timing, ...  Drawing them all
from one ``random.Random`` would couple them — adding a single extra
delay sample would perturb the churn schedule and make regressions
impossible to bisect.  :class:`RngRegistry` hands out one independent
stream per named purpose, each deterministically derived from the root
seed, so components evolve without disturbing each other.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    The derivation is stable across processes and Python versions
    (``hash()`` is salted per-process, so it must not be used here).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independent, reproducible RNG streams.

    >>> streams = RngRegistry(seed=42)
    >>> a = streams.stream("delays")
    >>> b = streams.stream("churn")
    >>> a is streams.stream("delays")
    True
    >>> a is b
    False
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the RNG stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self._seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={sorted(self._streams)})"
