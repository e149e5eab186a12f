"""Deterministic random-number streams.

Every stochastic component in the library draws from a named child stream of
a single root seed, so any experiment is exactly reproducible and components
do not perturb each other's streams when the code evolves (the guidance in
the NumPy random-generator best practices: spawn independent streams instead
of sharing one generator).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "RngFactory"]


def derive_seed(root: int, *names: str | int) -> int:
    """Derive a stable 63-bit child seed from a root seed and a name path.

    Uses BLAKE2 over the textual path so the mapping is stable across Python
    versions and platforms (``hash()`` is salted per process and unusable
    here).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for name in names:
        h.update(b"/")
        h.update(str(name).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


class RngFactory:
    """Factory of independent, named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> f = RngFactory(1234)
    >>> g1 = f.stream("trace", "mcf", 0)
    >>> g2 = f.stream("trace", "mcf", 1)
    >>> g1 is not g2
    True
    """

    def __init__(self, root_seed: int):
        if root_seed < 0:
            raise ValueError("root seed must be non-negative")
        self.root_seed = int(root_seed)

    def seed(self, *names: str | int) -> int:
        return derive_seed(self.root_seed, *names)

    def stream(self, *names: str | int) -> np.random.Generator:
        """A fresh generator for the given name path (always the same seed)."""
        return np.random.default_rng(self.seed(*names))
