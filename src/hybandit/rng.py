"""Seedable counter-based random streams.

Every random draw in the library comes from a Philox (counter-based, 64-bit)
generator whose key is derived from ``(env_seed, trial, round, tag)``.  Streams
are therefore addressable: the contexts of round ``t`` can be regenerated
without replaying rounds ``0..t-1``, and two trials of the same environment
share contexts while drawing independent reward noise.

Key derivation: the triple ``(tag, trial, round)`` is packed injectively into
one 64-bit word (8 bits tag, 16 bits trial, 40 bits round) and passed through
splitmix64; the Philox key is ``[env_seed, splitmix64(packed)]``.
"""

from __future__ import annotations

import numpy as np

# numpy loads numpy.random on first use; importing it here loads it once in
# the parent process, before any pool worker forks, instead of in every worker.
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1

# Registry of stream purposes. Values must stay stable: they are part of the
# reproducibility contract for seeds.
STREAM_TAGS = {
    "params": 1,
    "context": 2,
    "noise": 3,
    "replay": 4,
    "misc": 5,
}

MAX_TRIALS = 1 << 16
MAX_ROUNDS = 1 << 40


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling step (a 64-bit bijection)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def stream(
    env_seed: int, trial: int = 0, round_index: int = 0, tag: str = "misc"
) -> Generator:
    """Return the generator for one (seed, trial, round, purpose) stream."""
    if tag not in STREAM_TAGS:
        raise ValueError(f"unknown stream tag {tag!r}; known: {sorted(STREAM_TAGS)}")
    if not 0 <= trial < MAX_TRIALS:
        raise ValueError(f"trial index {trial} outside [0, {MAX_TRIALS})")
    if not 0 <= round_index < MAX_ROUNDS:
        raise ValueError(f"round index {round_index} outside [0, {MAX_ROUNDS})")
    packed = (STREAM_TAGS[tag] << 56) | (trial << 40) | round_index
    key = np.array([env_seed & _MASK64, splitmix64(packed)], dtype=np.uint64)
    return Generator(Philox(key=key))


def derive_seed(base_seed: int, index: int) -> int:
    """Derive the seed of the ``index``-th child stream (e.g. per-environment)."""
    return splitmix64((base_seed & _MASK64) ^ splitmix64(index & _MASK64))
