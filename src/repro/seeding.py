"""Deterministic seed derivation.

Every stochastic component in the library takes an explicit seed.  To keep a
whole-world build reproducible from a single master seed, components derive
child seeds with :func:`derive_seed`, which hashes the parent seed together
with a string label.  The derivation is stable across processes and Python
versions (it uses SHA-256, not ``hash()``).

Hot loops that derive many seeds under one shared prefix take the prefix
form, :func:`seed_deriver`.  Loops that need one generator per seed take
:func:`seeded_generators`, which seeds a whole batch of PCG64 streams in
one pass and sets one reused ``Generator`` to each in turn;
:func:`standard_normals` draws many per-seed normal streams through it.
Loops that make many scalar draws from one seed (the address generator)
take a :class:`DrawStream`: ``random()``, ``integers()``, ``choice()`` and
``permutation()`` of ``np.random.default_rng(seed)``, bit for bit, served
from chunks of raw PCG64 words instead of one ``Generator`` call per draw.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

__all__ = [
    "derive_seed",
    "seed_deriver",
    "rng_for",
    "seeded_generators",
    "standard_normals",
    "DrawStream",
]

_T = TypeVar("_T")

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


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed in turn, bit for bit.

    The PCG64 states come from ``_pcg64_states`` in one pass.  One
    generator is made per call and set to each state as the loop reaches
    it, so a yielded generator is valid only until the next is taken:
    draw from it before advancing.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    # One state dict, refilled per seed: the setter copies it out, and its
    # empty uint32 buffer is a fresh generator's.
    full_state = bit_generator.state
    lcg = full_state["state"]
    for state, inc in _pcg64_states(seeds):
        lcg["state"], lcg["inc"] = state, inc
        bit_generator.state = full_state
        yield generator


def standard_normals(seeds: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """Concatenated ``np.random.default_rng(seed).standard_normal(k)``.

    One float64 array holding, for each ``(seed, k)`` pair in order, the
    first ``k`` standard normals of that seed's generator, bit for bit,
    drawn from :func:`seeded_generators`.
    """
    out = np.empty(sum(counts), dtype=np.float64)
    offset = 0
    for generator, k in zip(seeded_generators(seeds), counts):
        generator.standard_normal(out=out[offset : offset + k])
        offset += k
    return out


# ----------------------------------------------------------------------
# Scalar draws from raw PCG64 words
# ----------------------------------------------------------------------
_TWO_POW_32 = 1 << 32
#: ``next_double``'s scale: a word's top 53 bits times 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


class DrawStream:
    """Scalar draws of ``np.random.default_rng(seed)``, bit for bit.

    Each ``Generator`` method call costs ~1 µs of dispatch however little
    it draws.  This stream fetches PCG64's 64-bit output words in chunks
    (``random_raw``) and replays, in Python, what numpy's C code does
    with them:

    * ``random()`` is ``next_double``: ``(word >> 11) * 2**-53``;
    * ``integers(low, high)`` is Lemire's bounded draw (arXiv:1805.10941)
      over PCG64's buffered ``next_uint32``, which returns a word's low
      half and keeps its high half for the next 32-bit draw (``random()``
      in between leaves that half buffered).  A one-value range draws
      nothing;
    * ``choice(seq)`` is ``seq[integers(0, len(seq))]``;
    * ``permutation(n)`` rewinds the bit generator past the words fetched
      but not used, hands it the buffered half, runs numpy's own
      ``permutation`` and takes the half back.

    numpy keeps these streams fixed across releases (NEP 19);
    ``tests/test_seeding.py`` pins every method, interleaved, against a
    ``Generator`` of the same seed.
    """

    #: Words fetched per ``random_raw`` call.
    CHUNK = 1024

    def __init__(self, seed: int) -> None:
        self._generator = np.random.default_rng(seed)
        self._bit_generator = self._generator.bit_generator
        self._words: list[int] = []
        self._next = 0
        #: The buffered high half of PCG64's last split word, or None.
        self._half: int | None = None

    def _word(self) -> int:
        index = self._next
        if index == len(self._words):
            self._words = self._bit_generator.random_raw(self.CHUNK).tolist()
            index = 0
        self._next = index + 1
        return self._words[index]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _MASK_32

    def random(self) -> float:
        """``Generator.random()``: a float in [0, 1)."""
        return (self._word() >> 11) * _DOUBLE_SCALE

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for ``high - low <= 2**32``."""
        span = high - low
        if span == 1:
            return low
        if not 1 < span <= _TWO_POW_32:
            raise ValueError(f"integers({low}, {high}): need 1 <= high - low <= 2**32")
        scaled = self._uint32() * span
        if scaled & _MASK_32 < span:
            threshold = _TWO_POW_32 % span
            while scaled & _MASK_32 < threshold:
                scaled = self._uint32() * span
        return low + (scaled >> 32)

    def choice(self, seq: Sequence[_T]) -> _T:
        """``Generator.choice(seq)`` (uniform, one element)."""
        return seq[self.integers(0, len(seq))]

    def permutation(self, n: int) -> np.ndarray:
        """``Generator.permutation(n)``."""
        bit_generator = self._bit_generator
        unused = len(self._words) - self._next
        if unused:
            bit_generator.advance(-unused)
        state = bit_generator.state
        state["has_uint32"] = int(self._half is not None)
        state["uinteger"] = self._half or 0
        bit_generator.state = state
        order = self._generator.permutation(n)
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words, self._next = [], 0
        return order
