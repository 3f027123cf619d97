"""Deterministic random streams.

Every sampling routine takes an explicit stream: any object with
`.random(size=None)`, or a numpy Generator where a routine needs more than
uniforms.  Batch callers (the CLI, long test loops) derive one independent
substream per sample, keyed by (master seed, sample index), so results do
not depend on how the loop is chunked or parallelized.

Both streams mirror the two algorithms behind numpy's `default_rng`:
numpy's SeedSequence hash (entropy pool mixing and `generate_state`, stable
since numpy 1.17) and the PCG64 XSL-RR generator (O'Neill 2014) seeded from
its state.  `master_rng(seed)` steps PCG64 in Python integers, so its
uniforms equal `default_rng(seed).random(...)` bit for bit without loading
numpy.random.  `pes` and `lhes` read one uniform from each sample's
substream, and `substream_uniforms` computes all of them in one vectorized
pass, in numpy integer arithmetic, that is bit-identical to
`substream(seed, i).random()`.
"""
from __future__ import annotations

import operator
from typing import Protocol

import numpy as np

from .errors import TooLarge

# Largest sample count a run accepts: 32 MiB of uniforms for the batched
# draws of pes and lhes, the Hoeffding pair budget of luae and luae-u.
MAX_SAMPLES = 2**22
# substream_uniforms encodes each sample index as one 32-bit entropy word.
assert MAX_SAMPLES <= 2**32

# Indices per vectorized pass, so temporaries stay bounded for any count.
SUBSTREAM_CHUNK = 2**12

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier as high and low 64-bit halves.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(0xFFFFFFFF)
_U64 = {k: np.uint64(k) for k in (1, 11, 32, 58, 63, 64)}
_PCG_MULT = int(_PCG_MULT_HI) << 64 | int(_PCG_MULT_LO)
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1


class UniformStream(Protocol):
    """Any object with `.random(size=None)`, numpy's Generator signature:
    a Pcg64Stream, or a numpy Generator."""

    def random(self, size=None): ...


class Pcg64Stream:
    """The uniform stream of `np.random.default_rng(seed)` in Python ints.

    `.random(size=None)` equals `default_rng(seed).random(size)` bit for
    bit, scalar and batch calls interleaved; a scalar call returns a float.
    A negative seed raises numpy's ValueError.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        words = [np.full(1, w, dtype=np.uint32) for w in _seed_words(seed)]
        s0, s1, s2, s3 = (int(word[0]) for word in _generate_state(words))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        # srandom: state = 0, step (state = inc), add s0:s1, step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128

    def _next53(self) -> int:
        """Step, then the top 53 bits of the XSL-RR output."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        xsl, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        return (((xsl >> rot) | (xsl << (64 - rot))) & _MASK64) >> 11

    def random(self, size=None):
        if size is None:
            return self._next53() * 2.0**-53
        out = np.empty(size)  # a negative size raises numpy's ValueError
        out.flat = [self._next53() * 2.0**-53 for _ in range(out.size)]
        return out


def master_rng(seed: int) -> Pcg64Stream:
    """The decide stream: `default_rng(seed)`'s uniforms (Pcg64Stream)."""
    return Pcg64Stream(seed)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for sample `index` under `seed`."""
    if index < 0:
        raise ValueError("sample index must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def substream_uniforms(seed: int, count: int) -> np.ndarray:
    """First uniform of each of the substreams 0..count-1 under `seed`.

    Element i equals `substream(seed, i).random()` bit for bit.  Like the
    per-sample loop, a zero count reads no seed; a negative seed otherwise
    raises ValueError, as SeedSequence does.  Counts above MAX_SAMPLES
    raise TooLarge.
    """
    count = operator.index(count)
    if count < 0:
        raise ValueError("sample count must be nonnegative")
    if count > MAX_SAMPLES:
        raise TooLarge(f"{count} samples exceed the cap of {MAX_SAMPLES}")
    out = np.empty(count)
    if count == 0:
        return out
    seed_words = [np.full(1, w, dtype=np.uint32) for w in _seed_words(seed)]
    for start in range(0, count, SUBSTREAM_CHUNK):
        stop = min(start + SUBSTREAM_CHUNK, count)
        index = np.arange(start, stop, dtype=np.uint32)
        state = _generate_state(seed_words + [index])
        out[start:stop] = _pcg64_first_uniform(state)
    return out


# ---------------------------------------------------------------------------
# SeedSequence, vectorized over the last entropy word

def _seed_words(seed) -> list[int]:
    """The seed as little-endian 32-bit words; 0 is one zero word."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return words


def _hash_constants(value: int, mult: int):
    """SeedSequence's running hash constant: (xor, multiplier) per hashmix."""
    while True:
        xor = value
        value = (value * mult) & 0xFFFFFFFF
        yield np.uint32(xor), np.uint32(value)


def _hashmix(value, constants):
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _generate_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64), one uint64 array
    per state word; the uint32 entropy words broadcast against each other."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else zero, constants)
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    halves = [
        _hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64)
        for i in range(2 * _POOL_SIZE)
    ]
    return [halves[2 * k] | (halves[2 * k + 1] << _U64[32]) for k in range(4)]


# ---------------------------------------------------------------------------
# PCG64 on (high, low) uint64 halves of the 128-bit state

def _mulhi_lo(a):
    """High 64 bits of a * _PCG_MULT_LO, in 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _U64[32]
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _U64[32]
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64[32]) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U64[32]) + (p10 >> _U64[32]) + (mid >> _U64[32])


def _add128(hi, lo, b_hi, b_lo):
    lo = lo + b_lo
    return hi + b_hi + (lo < b_lo).astype(np.uint64), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state <- state * multiplier + inc (mod 2^128)."""
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi_lo(lo)
    return _add128(hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _pcg64_first_uniform(state: list[np.ndarray]) -> np.ndarray:
    """PCG64 seeded from a generate_state(4, uint64) output, then one
    random(): (next64 >> 11) * 2^-53."""
    s0, s1, s2, s3 = state
    inc_hi = (s2 << _U64[1]) | (s3 >> _U64[63])
    inc_lo = (s3 << _U64[1]) | _U64[1]
    # srandom: state = 0, step (state = inc), add s0:s1, step
    hi, lo = _add128(inc_hi, inc_lo, s0, s1)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    # XSL-RR output: rotate (hi ^ lo) right by the top six state bits
    xsl, rot = hi ^ lo, hi >> _U64[58]
    out = (xsl >> rot) | (xsl << ((_U64[64] - rot) & _U64[63]))
    return (out >> _U64[11]).astype(np.float64) * 2.0**-53
