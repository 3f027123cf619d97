"""Deterministic random streams.

Every sampling routine takes an explicit stream: any object with
`.random(size=None)`, such as a numpy Generator.  One rule keys every
uniform a command draws: uniform k of a run under `seed` is the first
uniform of substream (seed, k), numpy's `default_rng(SeedSequence((seed,
k)))`.  It is a function of (seed, k) alone (a counter-based stream, as in
Salmon et al., SC 2011), so results do not depend on how draws are batched.

`master_rng(seed)`, the one entry point, serves those uniforms in order,
scalar and batch calls interleaved.  It computes them in numpy integer
arithmetic, SUBSTREAM_CHUNK indices per vectorized pass, bit for bit and
without loading numpy.random:
numpy's SeedSequence hash (entropy pool mixing and `generate_state`, stable
since numpy 1.17), then one step of the PCG64 XSL-RR generator (O'Neill
2014) seeded from its state.
"""
from __future__ import annotations

import math
import operator
from typing import Protocol

import numpy as np

from .errors import TooLarge

# Largest sample count a run accepts: 32 MiB of uniforms for the batched
# draws of pes and lhes, the Hoeffding pair budget of luae and luae-u.
MAX_SAMPLES = 2**22
# Each uniform index is one 32-bit entropy word; luae-u reads 3 per sample.
INDEX_LIMIT = 2**32
assert 3 * MAX_SAMPLES < INDEX_LIMIT

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


class UniformStream(Protocol):
    """Any object with `.random(size=None)`, numpy's Generator signature:
    master_rng's stream, or a numpy Generator."""

    def random(self, size=None): ...


class CounterStream:
    """Uniforms 0, 1, 2, ... of the substreams of one seed, in order.

    `.random(size=None)` returns the next uniform as a float, or the next
    prod(size) of them as an array of that shape.  A call that runs past
    the block computes a new one from the current index: max(count,
    SUBSTREAM_CHUNK) uniforms, so small calls share a block and a large
    call computes exactly its count.  The array returned is a view of the
    block; a later call never serves those indices again.  An index at or
    above INDEX_LIMIT raises TooLarge.  A negative seed raises numpy's
    ValueError.
    """

    __slots__ = ("_words", "_next", "_block", "_block_start")

    def __init__(self, seed: int):
        self._words = _seed_words(seed)
        self._next = 0
        self._block = np.empty(0)
        self._block_start = 0

    def random(self, size=None):
        shape = () if size is None else size if isinstance(size, tuple) else (size,)
        start, count = self._next, math.prod(shape)
        if min(shape, default=0) < 0:
            raise ValueError("negative dimensions are not allowed")
        if start + count > INDEX_LIMIT:
            raise TooLarge(f"uniform index {start + count - 1} is beyond the "
                           f"{INDEX_LIMIT} substreams of a seed")
        if start + count > self._block_start + len(self._block):
            block = np.empty(min(max(count, SUBSTREAM_CHUNK), INDEX_LIMIT - start))
            self._block, self._block_start = _first_uniforms(self._words, start, block), start
        offset = start - self._block_start
        out = self._block[offset : offset + count]
        self._next = start + count
        return float(out[0]) if size is None else out.reshape(shape)


def master_rng(seed: int) -> CounterStream:
    """The stream of every command's draws under `seed`: uniform k is the
    first uniform of substream (seed, k)."""
    return CounterStream(seed)


def _first_uniforms(seed_words: list[np.ndarray], start: int, out: np.ndarray) -> np.ndarray:
    """Fill the 1-D `out` with the first uniform of the substreams start,
    start + 1, ..., SUBSTREAM_CHUNK indices per vectorized pass."""
    for lo in range(0, len(out), SUBSTREAM_CHUNK):
        hi = min(lo + SUBSTREAM_CHUNK, len(out))
        index = np.arange(start + lo, start + hi, dtype=np.uint32)
        out[lo:hi] = _pcg64_first_uniform(_generate_state(seed_words + [index]))
    return out


# ---------------------------------------------------------------------------
# SeedSequence, vectorized over the last entropy word

def _seed_words(seed) -> list[np.ndarray]:
    """The seed as little-endian 32-bit words, each a one-element uint32
    array that broadcasts against the index word; 0 is one zero word."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return [np.full(1, w, dtype=np.uint32) for w in words]


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
