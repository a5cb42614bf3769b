"""Deterministic pseudo-random number generation.

Every stochastic choice in this package (parameter init, data shuffling,
randomized scenarios) flows through :class:`Xoshiro256`, a xoshiro256**
generator seeded via splitmix64.  The algorithm is written out here, in
plain integer arithmetic, so that the exact streams can be reproduced in
any language:

splitmix64 (seed expansion):
    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)
    (all arithmetic modulo 2**64)

xoshiro256** (main generator, state s[0..3] from four splitmix64 outputs):
    output = rotl(s[1] * 5, 7) * 9
    t = s[1] << 17
    s[2] ^= s[0];  s[3] ^= s[1];  s[1] ^= s[2];  s[0] ^= s[3]
    s[2] ^= t
    s[3] = rotl(s[3], 45)

Derived values:
    float64 in [0, 1):   (output >> 11) * 2**-53
    integer in [0, n):   (output * n) >> 64   (multiply-shift; the
                         O(n / 2**64) bias is irrelevant here and the
                         rule is trivially portable)
    shuffle:             Fisher-Yates from the back, using the integer rule

Block draws (`next_u64s`, and `uniforms` on top of it) give exactly the
stream of that many `next_u64` calls and leave the same state behind;
`next_u64` is the written spec they are tested against.  The state
update is linear over GF(2), so L updates are one fixed 256 x 256 bit
matrix; n draws run as m = ceil(n / L) lanes of L draws:
    jump:        lane k starts at state k*L, each lane start the previous
                 one times the L-update matrix (built by running the 256
                 one-bit states L steps, applied a byte at a time)
    advance:     all lanes step together in numpy uint64, whose
                 arithmetic wraps modulo 2**64 as above
    interleave:  lane k's draw i is draw k*L + i; the last lane stops at
                 draw n, and its state there is the generator's new state
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# the shifts and multipliers above as uint64 scalars: a Python int operand
# costs numpy a conversion on every call
_U = {k: np.uint64(k) for k in (5, 7, 9, 11, 17, 19, 45, 57)}
# the 256 states with one bit set, as [256 x 4] words; row 8p + j sets
# bit j of byte p of the words' bytes in memory order
_UNIT_STATES = np.packbits(np.eye(256, dtype=np.uint8), axis=1,
                           bitorder="little").view(np.uint64)
_BYTE_POSITIONS = np.arange(32)


def _update(s0, s1, s2, s3, t) -> None:
    """One xoshiro256** state update of every lane, in place: each word is
    a uint64 array over the lanes, and t is scratch of the same length."""
    np.left_shift(s1, _U[17], out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, _U[45], out=t)
    s3 >>= _U[19]
    s3 |= t


@lru_cache(maxsize=8)
def _jump_table(steps: int) -> np.ndarray:
    """[256 x 32 x 4] table: the XOR over bytes p of a state's entries
    [byte p's value, p] is that state after `steps` updates.  It depends
    on nothing but `steps`, so a process builds it once per lane length
    (256 KiB each)."""
    x = _UNIT_STATES.T.copy()
    words, t = tuple(x), np.empty(256, np.uint64)
    for _ in range(steps):
        _update(*words, t)
    images = x.T.reshape(32, 8, 4)  # [byte p, bit j] -> advanced unit state
    table = np.empty((256, 32, 4), np.uint64)
    table[0] = 0
    for j in range(8):  # the values with top bit j: those below, plus bit j
        np.bitwise_xor(table[:1 << j], images[:, j], out=table[1 << j:2 << j])
    table.flags.writeable = False
    return table


def _lane_length(n: int) -> int:
    """Draws per lane for an n-draw block.  A step of the lanes (and, when
    a table is built, of the unit states) costs about as much as one lane
    start, so a lane length of sqrt(n / 1.5) balances the two; block
    times are flat for divisors between 1 and 2."""
    return max(1, round(math.sqrt(n / 1.5)))


class Xoshiro256:
    """xoshiro256** with splitmix64 seeding; 64-bit output per draw."""

    def __init__(self, seed: int):
        if type(seed) is not int or not 0 <= seed <= _MASK64:
            raise ValidationError(f"seed must be in [0, 2**64), got {seed!r}")
        state = seed
        s = []
        for _ in range(4):
            state, word = _splitmix64(state)
            s.append(word)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        out = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return out

    def random(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array: one block, equal to n
        `next_u64` calls and leaving the same state (module docstring)."""
        if n < 0:
            raise ValueError(f"cannot draw {n} values")
        if n == 0:
            return np.zeros(0, np.uint64)
        steps = _lane_length(n)
        lanes = -(-n // steps)
        starts = np.empty((lanes, 4), np.uint64)
        starts[0] = self._s
        if lanes > 1:
            table = _jump_table(steps)
            for k in range(1, lanes):
                starts[k] = np.bitwise_xor.reduce(
                    table[starts[k - 1].view(np.uint8), _BYTE_POSITIONS], axis=0)
        x = starts.T.copy()
        t = np.empty(lanes, np.uint64)
        out = np.empty((lanes, steps), np.uint64)  # s[1] before each step
        last = n - (lanes - 1) * steps  # the last lane's draws
        words = tuple(x)
        for i in range(steps):
            out[:, i] = words[1]
            _update(*words, t)
            if i + 1 == last:
                self._s = x[:, -1].tolist()
        out = out.reshape(-1)[:n]  # stream order
        out *= _U[5]
        t = out >> _U[57]
        out <<= _U[7]
        out |= t
        out *= _U[9]
        return out

    def uniforms(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """An array of `shape` filled row-major with uniform draws in
        [low, high); the same numbers as one `uniform` call per element."""
        return self.uniforms_split([(shape, low, high)])[0]

    def uniforms_split(self, specs) -> list[np.ndarray]:
        """What successive `uniforms(shape, low, high)` calls would return
        for each (shape, low, high) in specs, drawn as one block."""
        sizes = [int(np.prod(shape)) for shape, _, _ in specs]
        bits = self.next_u64s(sum(sizes))
        bits >>= _U[11]
        values = bits * 2.0**-53
        arrays, start = [], 0
        for (shape, low, high), size in zip(specs, sizes):
            part = values[start:start + size]
            arrays.append((low + (high - low) * part).reshape(shape))
            start += size
        return arrays

    def integer(self, n: int) -> int:
        """Uniform-ish integer in [0, n) via multiply-shift."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return (self.next_u64() * n) >> 64

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.integer(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        self.shuffle(idx)
        return idx
