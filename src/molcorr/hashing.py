"""Pinned hashing and PRNG primitives.

These are fixed by contract: feature-hashed embeddings, the random
retrieval strategy and the noisy mock backend all reproduce across runs
(and across reimplementations) only if every implementation agrees on
FNV-1a 64 and splitmix64 bit for bit.
"""

MASK64 = (1 << 64) - 1

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & MASK64
    return h


class SplitMix64:
    """splitmix64 sequence generator (64-bit outputs)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def splitmix64_once(seed: int) -> int:
    """First splitmix64 output for a seed (one-shot decisions keyed by id)."""
    return SplitMix64(seed).next_uint64()
