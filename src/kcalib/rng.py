"""Deterministic RNG substreams.

All randomness in kcalib flows through numpy's PCG64 generator. Substreams
are derived from an integer seed plus a sequence of integer or string keys
via ``numpy.random.SeedSequence``, so replicates and Monte-Carlo terms are
reproducible regardless of evaluation order or thread count.
"""

from __future__ import annotations

import zlib

import numpy as np

from .distributions import checked_int


def _key_to_int(key: int | str) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    return int(key) & 0xFFFFFFFFFFFFFFFF


def substream(seed: int, *keys: int | str) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *keys)``."""
    entropy = [checked_int(seed, "seed") & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entropy))
