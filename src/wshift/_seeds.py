"""Labeled derivation of independent RNG streams from a single root seed.

Every stochastic routine in the package takes one root seed in [0, 2^64)
and derives its own stream by hashing a tuple of string/number labels into a
``numpy.random.SeedSequence``. Two streams with different labels are
statistically independent, and the mapping is stable across processes and
platforms (no use of Python's builtin ``hash``). A root seed outside that
range is rejected rather than reduced, so no two recorded seeds share a
stream. Integer labels are reduced modulo 2^64; every other label is keyed
by its ``str``, so ``0.1``, ``np.float64(0.1)`` and ``"0.1"`` share a key
under any numpy version (numpy 2 changed ``repr`` of its scalars, not ``str``).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(str(label).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def seed_sequence(seed: int, *labels) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by ``labels`` under ``seed``."""
    root = int(seed)
    if not 0 <= root <= 0xFFFFFFFFFFFFFFFF:
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")
    entropy = [root]
    entropy.extend(_label_key(lab) for lab in labels)
    return np.random.SeedSequence(entropy)


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the stream identified by ``labels`` under ``seed``."""
    return np.random.default_rng(seed_sequence(seed, *labels))


def derive_seed(seed: int, *labels) -> int:
    """A 64-bit child seed usable as the root of a further stream family."""
    return int(seed_sequence(seed, *labels).generate_state(1, np.uint64)[0])
