"""Deterministic seed derivation.

Every stochastic component in the library takes an explicit seed.  To keep a
whole-world build reproducible from a single master seed, components derive
child seeds with :func:`derive_seed`, which hashes the parent seed together
with a string label.  The derivation is stable across processes and Python
versions (it uses SHA-256, not ``hash()``).

Hot loops that derive many seeds under one shared prefix take the prefix
form, :func:`seed_deriver`, and draw many per-seed normal streams at once
with :func:`standard_normals`, which seeds a whole batch of PCG64 streams
in one pass.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np

__all__ = ["derive_seed", "seed_deriver", "rng_for", "standard_normals"]

_MASK_63 = (1 << 63) - 1


def seed_deriver(parent_seed: int, *labels: object) -> Callable[..., int]:
    """``derive_seed(parent_seed, *labels, *suffix)`` as a function of ``suffix``.

    The shared prefix is hashed once; each call copies that hash state and
    absorbs only its own labels, so a loop deriving one seed per task
    under a common ``(parent_seed, *labels)`` skips re-hashing it.  This is
    the one place the seed's bytes are laid out: the parent's decimal
    string, then per label a ``0x1f`` byte and ``str(label)`` in UTF-8,
    SHA-256, and the digest's first 8 bytes, big-endian, cut to 63 bits.

    >>> seed_deriver(42, "geo")("new-orleans") == derive_seed(42, "geo", "new-orleans")
    True
    """

    def absorb(hasher, more: tuple):
        for label in more:
            hasher.update(b"\x1f")
            hasher.update(str(label).encode("utf-8"))
        return hasher

    prefix = absorb(hashlib.sha256(str(int(parent_seed)).encode("utf-8")), labels)

    def derive(*suffix: object) -> int:
        digest = absorb(prefix.copy(), suffix).digest()
        return int.from_bytes(digest[:8], "big") & _MASK_63

    return derive


def derive_seed(parent_seed: int, *labels: object) -> int:
    """Derive a child seed from ``parent_seed`` and one or more labels.

    The same ``(parent_seed, labels)`` pair always produces the same child
    seed; distinct labels produce (with overwhelming probability) distinct
    seeds.

    >>> derive_seed(42, "geo", "new-orleans") == derive_seed(42, "geo", "new-orleans")
    True
    >>> derive_seed(42, "geo") != derive_seed(42, "isp")
    True
    """
    return seed_deriver(parent_seed, *labels)()


def rng_for(parent_seed: int, *labels: object) -> np.random.Generator:
    """Return a NumPy generator seeded from a derived child seed."""
    return np.random.default_rng(derive_seed(parent_seed, *labels))


# ----------------------------------------------------------------------
# Batched PCG64 seeding
# ----------------------------------------------------------------------
# numpy's SeedSequence (``numpy/random/bit_generator.pyx``) hashes the
# entropy words into a 4-word uint32 pool, then ``generate_state`` hashes
# the pool out into the words PCG64 seeds from.  Each hash step xors the
# word with a running constant, advances the constant by a fixed
# multiplier and multiplies the word by the new constant.  The chain of
# constants never depends on the data, so it is computed once here and
# every step runs over a whole batch of seeds as uint32 array arithmetic.
_MASK_32 = 0xFFFFFFFF
_MASK_128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _constant_chain(init: int, mult: int, steps: int) -> list[np.uint32]:
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK_32)
    return [np.uint32(c) for c in chain]


# The pool's entropy pass (4 hash steps) and its all-pairs mix (12) run
# ``mix_entropy``'s hash chain; ``generate_state(4, uint64)`` hashes 8
# output words on its own chain.
_CHAIN_A = _constant_chain(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_CHAIN_B = _constant_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hash(words: np.ndarray, chain: list[np.uint32], step: int) -> np.ndarray:
    hashed = (words ^ chain[step]) * chain[step + 1]
    return hashed ^ (hashed >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> _SHIFT)


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for every seed, in one pass.

    Seeds must lie in ``[0, 2**64)``.  A seed's entropy is its 32-bit words,
    least significant first; below ``2**128`` a word past the seed's length
    hashes exactly like a zero word, so every seed hashes four words and
    the upper two are constants.  numpy keeps a seed's stream fixed across
    releases (NEP 19), and ``tests/test_seeding.py`` pins this function
    against ``PCG64`` itself.
    """
    seeds64 = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros_like(seeds64, dtype=np.uint32)
    entropy = [
        (seeds64 & np.uint64(_MASK_32)).astype(np.uint32),
        (seeds64 >> np.uint64(32)).astype(np.uint32),
        zero,
        zero,
    ]
    step = 0
    pool = []
    for word in entropy:
        pool.append(_hash(word, _CHAIN_A, step))
        step += 1
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _CHAIN_A, step))
                step += 1
    # generate_state(4, np.uint64): eight uint32 words, read as four
    # little-endian uint64s.
    words = [
        _hash(pool[i % _POOL_SIZE], _CHAIN_B, i).astype(np.uint64)
        for i in range(2 * _POOL_SIZE)
    ]
    state64 = [
        (words[2 * i] | (words[2 * i + 1] << np.uint64(32))).tolist()
        for i in range(_POOL_SIZE)
    ]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*state64):
        # pcg64_set_seed -> pcg_setseq_128_srandom_r: inc = initseq*2 + 1,
        # then two LCG steps from 0 with initstate added in between.
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK_128
        state = ((((s_hi << 64) | s_lo) + inc) * _PCG_MULT + inc) & _MASK_128
        states.append((state, inc))
    return states


def standard_normals(seeds: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """Concatenated ``np.random.default_rng(seed).standard_normal(k)``.

    One float64 array holding, for each ``(seed, k)`` pair in order, the
    first ``k`` standard normals of that seed's generator, bit for bit.
    The PCG64 states come from ``_pcg64_states`` in one pass; one
    reused generator is set to each state and draws its ``k`` values.
    """
    out = np.empty(sum(counts), dtype=np.float64)
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    # One state dict, refilled per stream: the setter copies it out.
    full_state = bit_generator.state
    lcg = full_state["state"]
    offset = 0
    for (state, inc), k in zip(_pcg64_states(seeds), counts):
        lcg["state"], lcg["inc"] = state, inc
        bit_generator.state = full_state
        generator.standard_normal(out=out[offset : offset + k])
        offset += k
    return out
