"""Deterministic randomness for simulations.

All stochastic choices in the library (latency jitter, drop decisions,
workload inter-arrival times, failure injection) draw from a
:class:`SimRandom` owned by the environment, so a run is reproducible from
its seed alone.  Subsystems that need independent streams fork child
generators with :meth:`SimRandom.fork`, which derives a new seed
deterministically — adding a new subsystem does not perturb the draws seen
by existing ones.
"""

from __future__ import annotations

import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class SimRandom:
    """A seeded random stream with deterministic forking."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._fork_count = 0
        # random(): a float in [0, 1) straight from the C generator.  An
        # instance attribute rather than a method, so hot callers (the
        # latency jitter draw, once per datagram) pay one C call and no
        # Python frame.
        self.random = self._rng.random

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str = "") -> "SimRandom":
        """Derive an independent child stream.

        The child seed depends only on the parent seed, the fork index and
        ``label``, never on how many numbers the parent has drawn.
        """
        self._fork_count += 1
        child_seed = hash((self._seed, self._fork_count, label)) & 0x7FFFFFFF
        return SimRandom(child_seed)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(list(seq), k)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)
