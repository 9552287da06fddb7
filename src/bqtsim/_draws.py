"""numpy's draws replayed faster than numpy makes them, bit for bit; numpy stays their oracle.

Many seeds' first draws of ``np.random.default_rng(seed).random()`` at once:
``default_rng(seed)`` hashes the seed's 32-bit words into a four-word pool
(``SeedSequence``), expands the pool into four 64-bit words, seeds PCG64
from them, and draws each double from the top 53 bits of PCG64's next
XSL-RR output.  :func:`uniforms` replays those steps for a whole array of
seeds.  All its arithmetic is on uint64 arrays, never on numpy scalars
(whose overflow warns).  A 32-bit word is a uint64 array masked to 32 bits,
so the product of two words never overflows; a 128-bit number is four such
limbs, least significant first.

One generator's bounded integers, one at a time: a scalar
``Generator.integers(low, low + span)`` is Lemire's multiply-shift rule on
the bit generator's next 32-bit word (D. Lemire, "Fast Random Integer
Generation in an Interval", ACM TOMACS 2019).  :func:`_bounded` applies that
rule, in Python ints, to the same words, which it takes through the bit
generator's ``ctypes`` interface without numpy's per-call argument handling.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["uniforms"]

#: Seeds drawn per pass, so the temporaries stay bounded for any batch.
_CHUNK = 4096

_M32 = 0xFFFFFFFF

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_STATE_WORDS = 8  # generate_state(4, np.uint64) as 32-bit words

#: PCG64's 128-bit LCG multiplier, as limbs.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_LIMBS = tuple(_PCG_MULT >> (32 * k) & _M32 for k in range(4))


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of ``n`` successive hash steps.  The
    hash constant that ``SeedSequence`` steps does not depend on the seed."""
    steps, h = [], init
    for _ in range(n):
        steps.append((h, h * mult & _M32))
        h = steps[-1][1]
    return steps


#: ``mix_entropy`` hashes each pool word once, then once per ordered pair of words.
_MIX_STEPS = _hash_constants(_INIT_A, _MULT_A, _POOL + _POOL * (_POOL - 1))
_STATE_STEPS = _hash_constants(_INIT_B, _MULT_B, _STATE_WORDS)


def _hash(value: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    xor, mult = step
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(MIX_MULT_L * x - MIX_MULT_R * y) mod 2**32``, then the xorshift."""
    result = ((x * _MIX_MULT_L & _M32) + (1 << 32) - (y * _MIX_MULT_R & _M32)) & _M32
    return result ^ result >> 16


def _state_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as eight 32-bit words, low word first.

    A seed's entropy is its 32-bit words, low first: one word below 2**32,
    else two.  The pool hashes a missing word as 0, so both cases are the
    words ``(seed & M32, seed >> 32, 0, 0)``.
    """
    steps = iter(_MIX_STEPS)
    zero = np.zeros_like(seeds)
    pool = [_hash(word, next(steps)) for word in (seeds & _M32, seeds >> 32, zero, zero)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(steps)))
    return [_hash(pool[k % _POOL], step) for k, step in enumerate(_STATE_STEPS)]


def _add(a: list, b: list) -> list:
    out, carry = [], 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & _M32)
        carry = total >> 32
    return out


def _step(state: list, inc: list) -> list:
    """One LCG step, ``state * MULT + inc mod 2**128``: each column sums at
    most four low and four high halves of limb products, so none overflows."""
    columns = [0] * 4
    for i, limb in enumerate(state):
        for j, m in enumerate(_MULT_LIMBS[: 4 - i]):
            product = limb * m
            columns[i + j] += product & _M32
            if i + j < 3:
                columns[i + j + 1] += product >> 32
    return _add(columns, inc)


def _chunk(seeds: np.ndarray, out: np.ndarray) -> None:
    """Write each seed's first ``out.shape[1]`` draws into its row of ``out``."""
    w = _state_words(seeds)
    # PCG64 takes initstate = val[0] << 64 | val[1] and initseq = val[2] << 64 | val[3],
    # val[k] = w[2k] | w[2k + 1] << 32
    initstate = [w[2], w[3], w[0], w[1]]
    seq = [w[6], w[7], w[4], w[5]]
    inc = [(seq[k] << 1 | (seq[k - 1] >> 31 if k else 1)) & _M32 for k in range(4)]
    # srandom: state 0, step, += initstate, step
    state = _step(_add(inc, initstate), inc)
    for k in range(out.shape[1]):
        state = _step(state, inc)
        lo, hi = state[1] << 32 | state[0], state[3] << 32 | state[2]
        x, rot = hi ^ lo, state[3] >> 26
        x = x >> rot | x << (64 - rot & 63)
        out[:, k] = (x >> 11).astype(np.float64) * 2.0**-53


def uniforms(seeds, n: int) -> np.ndarray:
    """``u[i, k]``: the ``k``-th ``np.random.default_rng(int(seeds[i])).random()``, bit for bit.

    ``seeds`` is array-like of integers in [0, 2**64); the result has shape
    ``(len(seeds), n)``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    out = np.empty((len(seeds), n))
    for start in range(0, len(seeds), _CHUNK):
        _chunk(seeds[start:start + _CHUNK], out[start:start + _CHUNK])
    return out


def _bounded(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(span)``: what ``rng.integers(low, low + span)`` returns, minus ``low``, from the same
    words of ``rng``'s bit generator, for ``1 <= span < 2**32``.

    numpy scales one 32-bit word by ``span`` and keeps the high half, unless
    the low half is below ``2**32 % span``: then the word is drawn again.  A
    span of 1 draws nothing.
    """
    interface = rng.bit_generator.ctypes
    next_uint32, state = interface.next_uint32, interface.state

    def draw(span: int) -> int:
        if span == 1:
            return 0
        m = next_uint32(state) * span
        while (m & _M32) < (1 << 32) % span:
            m = next_uint32(state) * span
        return m >> 32

    return draw
