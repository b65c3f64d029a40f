"""Deterministic, hierarchical random-number streams.

Every stochastic component of the library (input generators, fault-site
sampling, GA operators) draws from an :class:`RngStream` derived from a master
seed plus a textual path, so campaigns are reproducible and independent of
process-pool scheduling order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

import numpy

__all__ = ["derive_seed", "RngStream"]


def derive_seed(master: int, *path: object) -> int:
    """Derive a 64-bit child seed from ``master`` and a path of labels.

    The derivation is a SHA-256 hash of the master seed and the repr of each
    path element, so any hashable/printable labels (app names, input indices,
    trial indices) produce stable, well-mixed child seeds.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for item in path:
        h.update(b"/")
        h.update(repr(item).encode())
    return int.from_bytes(h.digest()[:8], "little")


class RngStream:
    """A named deterministic RNG combining ``random.Random`` and NumPy.

    The NumPy ``Generator`` (:attr:`np`) is built on first use: most
    streams (fault-site sampling, GA operators) only draw through ``py``.

    Parameters
    ----------
    seed:
        Master seed for this stream.
    path:
        Optional labels mixed into the seed via :func:`derive_seed`.
    """

    __slots__ = ("seed", "py", "_np")

    def __init__(self, seed: int, *path: object) -> None:
        self.seed = derive_seed(seed, *path) if path else int(seed)
        self.py = random.Random(self.seed)
        self._np: numpy.random.Generator | None = None

    @property
    def np(self) -> numpy.random.Generator:
        """A NumPy ``Generator`` seeded like :attr:`py`, built on first use."""
        if self._np is None:
            self._np = numpy.random.default_rng(self.seed)
        return self._np

    def child(self, *path: object) -> "RngStream":
        """Create an independent sub-stream labelled by ``path``."""
        return RngStream(derive_seed(self.seed, *path))

    # Convenience forwarding -------------------------------------------------
    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return self.py.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self.py.random()

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi]``."""
        return self.py.uniform(lo, hi)

    def choice(self, seq: Sequence):
        """Uniform choice from a non-empty sequence."""
        return self.py.choice(seq)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self.py.shuffle(seq)

    def sample(self, seq: Sequence, k: int) -> list:
        """Sample ``k`` distinct elements."""
        return self.py.sample(seq, k)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian variate."""
        return self.py.gauss(mu, sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed})"
