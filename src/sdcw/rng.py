"""Deterministic randomness: one 64-bit root seed, named substreams.

Every source of randomness in the workbench (weight init, MLM masking,
batch shuffling, synthetic data) draws from a counter-based Philox
generator keyed by (root seed, stream name), so a run is fully
reproducible from its seed.
"""
from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    """Generator for the substream `name` under root `seed`."""
    key = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def derive(seed: int, name: str) -> int:
    """A 63-bit child seed for code that wants an int instead of a stream."""
    return int(stream(seed, name).integers(0, 2**63))


def truncated_normal(
    rng: np.random.Generator, shape, std: float = 0.02, clip_sigmas: float = 2.0
) -> np.ndarray:
    """Normal(0, std) samples, resampled until all lie within clip_sigmas*std.

    Each round redraws exactly the values still out of bounds, assigned in
    ascending flat-index order. That is what re-scanning the whole array and
    assigning through its boolean mask does, so the generator stream and the
    values are fixed by the seed alone. A value drawn in bounds is never
    redrawn, so a round only checks the values it has just drawn.
    """
    out = rng.normal(0.0, std, size=shape)
    bound = clip_sigmas * std
    flat = out.reshape(-1)
    bad = np.flatnonzero(_outside(flat, bound))
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        flat[bad] = redraw
        bad = bad[_outside(redraw, bound)]
    return out.astype(np.float32)


def _outside(x: np.ndarray, bound: float) -> np.ndarray:
    """|x| > bound, without a float64 |x| temporary."""
    mask = x > bound
    mask |= x < -bound
    return mask
