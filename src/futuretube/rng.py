"""Deterministic random streams for seeded experiments.

Every sample of every suite draws from its own small generator derived
from (seed, label, sample index), so draws are independent of evaluation
order and identical configurations reproduce identical values bit for bit.

The generator is PCG-XSH-RR 64/32 with the standard constants:

    multiplier  6364136223846793005
    advance     state' = state * multiplier + increment   (mod 2**64)
    output      rotr32(uint32(((state >> 18) ^ state) >> 27), state >> 59)

Stream keys are derived with splitmix64 (constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and FNV-1a 64 for label hashing.
Doubles take the top 53 bits of a 64-bit draw; normals use Box-Muller on
consecutive uniform pairs, with the sine mate buffered.

normal_block draws the first k normals of many sample streams at once,
equal bit for bit to the scalar streams.  The keys are splitmix64 on
np.uint64 arrays, and the j-th state of a stream started at s with
increment inc is the jump-ahead (Brown, "Random number generation with
arbitrary strides", 1994)

    state_j = A_j s + C_j inc    (mod 2**64),
    A_j = multiplier**j,  C_j = sum_{t<j} multiplier**t,

so the 2k draws of every stream (2k + 2 for odd k) come from one uint64
product with a cached table of A_j and C_j.  The uint64 arithmetic stays
on arrays, which wrap silently; numpy scalars would warn.  Box-Muller
keeps math.log, math.cos and math.sin, one call each per pair as in
Stream.normal: numpy's versions differ from them in the last bit on some
inputs.  The square root and the products may use numpy, since both are
correctly rounded.

A Block reads such a block column by column, so samplers written for one
stream draw every sample at once.  A RowStream serves one sample's row
and past it continues the same stream by jump-ahead, so a rejection
sampler that reads further stays exact.
"""

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB


def splitmix64(x):
    """splitmix64 of a Python int or, elementwise, of an np.uint64 array."""
    x = (x + _SM_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _SM_M1) & _MASK64
    x = ((x ^ (x >> 27)) * _SM_M2) & _MASK64
    return x ^ (x >> 31)


def _pcg_output(old):
    """XSH-RR output of a Python int state or, elementwise, of a uint64 array."""
    xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
    rot = old >> 59
    return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class _Normals:
    """Complex draws built on normals(m), for any leading shape it returns."""

    def complex_normals(self, n):
        """n complex draws, real and imaginary parts each standard normal."""
        a = self.normals(2 * n)
        return a[..., 0::2] + 1j * a[..., 1::2]

    def matrix(self):
        """Random complex 2x2 with standard-normal entry parts."""
        c = self.complex_normals(4)
        return c.reshape(c.shape[:-1] + (2, 2))


class Stream(_Normals):
    """One PCG32 stream plus float and normal helpers."""

    def __init__(self, state, inc):
        self._state = state & _MASK64
        self._inc = (inc | 1) & _MASK64
        self._spare = None

    def next_u32(self):
        old = self._state
        self._state = (old * _MULT + self._inc) & _MASK64
        return _pcg_output(old)

    def next_u64(self):
        hi = self.next_u32()
        return ((hi << 32) | self.next_u32()) & _MASK64

    def uniform(self):
        """Uniform double in [0, 1) using 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self):
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        t = 2.0 * math.pi * u2
        self._spare = r * math.sin(t)
        return r * math.cos(t)

    def normals(self, n):
        return np.array([self.normal() for _ in range(n)])


def _stream_keys(seed, label, index):
    """(state, inc) of stream_for(seed, label, index); index may be a uint64 array."""
    k = splitmix64((int(seed) & _MASK64) ^ fnv1a64(str(label).encode("utf-8")))
    k = splitmix64(k ^ index)
    return splitmix64(k), splitmix64(k ^ _SM_GAMMA) | 1


def stream_for(seed, label, index):
    """Derive the stream for sample `index` of the suite named `label`."""
    return Stream(*_stream_keys(seed, label, int(index) & _MASK64))


@functools.lru_cache(maxsize=64)
def _jump_table(m):
    """uint64 arrays A, C of length m + 1 with state_j = A[j] state_0 + C[j] inc."""
    A, C = [1], [0]
    for _ in range(m):
        A.append(A[-1] * _MULT & _MASK64)
        C.append((C[-1] * _MULT + 1) & _MASK64)
    return np.array(A, dtype=np.uint64), np.array(C, dtype=np.uint64)


def _mapped(fn, x):
    return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)


def normal_block(seed, label, count, k, start=0):
    """(count, k) normals: row r holds the first k normals of
    stream_for(seed, label, start + r), equal to them bit for bit.

    Every row is drawn in one pass, so the caller bounds count.
    """
    pairs = (k + 1) // 2
    index = np.arange(count, dtype=np.uint64) + np.uint64(int(start) & _MASK64)
    state, inc = _stream_keys(seed, label, index)
    A, C = _jump_table(4 * pairs)
    u32 = _pcg_output(A[:-1] * state[:, None] + C[:-1] * inc[:, None])
    u = ((u32[:, 0::2] << 32 | u32[:, 1::2]) >> 11).astype(float) * 2.0**-53
    r = np.sqrt(-2.0 * _mapped(math.log, 1.0 - u[:, 0::2]))
    t = 2.0 * math.pi * u[:, 1::2]
    out = np.empty((count, 2 * pairs))
    out[:, 0::2] = r * _mapped(math.cos, t)
    out[:, 1::2] = r * _mapped(math.sin, t)
    return out[:, :k]


class RowStream(Stream):
    """The stream of one sample, read from its block row first.

    normal and normals serve row[pos:], where pos is the number of
    normals the sample has already used.  Any other draw, or a read past
    the row, leaves it: the stream takes the PCG32 state the scalar
    stream has at that point, found by jump-ahead past the pairs used,
    with an odd position's sine mate pending.  So every draw equals the
    draw of stream_for(seed, label, index).
    """

    def __init__(self, row, seed, label, index, pos=0):
        super().__init__(0, 1)
        self._row = row
        self._pos = pos
        self._key = (seed, label, index)

    def _leave_row(self):
        pairs, odd = divmod(self._pos, 2)
        self._row = None
        state, self._inc = _stream_keys(*self._key)
        A, C = _jump_table(4 * pairs)
        self._state = (int(A[-1]) * state + int(C[-1]) * self._inc) & _MASK64
        if odd:
            Stream.normal(self)  # its cosine was served from the row; keep the sine

    def next_u32(self):
        if self._row is not None:
            self._leave_row()
        return super().next_u32()

    def normal(self):
        if self._row is not None:
            if self._pos < len(self._row):
                self._pos += 1
                return float(self._row[self._pos - 1])
            self._leave_row()
        return super().normal()

    def normals(self, n):
        if self._row is None:
            return super().normals(n)
        out = self._row[self._pos : self._pos + n].copy()
        self._pos += len(out)
        if len(out) < n:
            out = np.concatenate([out, [self.normal() for _ in range(n - len(out))]])
        return out


class Block(_Normals):
    """normal_block(seed, label, count, k, start), read column by column.

    normals(m) gives the next m normals of every sample as a (count, m)
    array, so a sampler written for one stream draws all samples at once,
    stacked along a leading axis.  row(i) is the RowStream of the i-th
    sample, stream index start + i, from the current column on.
    """

    def __init__(self, seed, label, count, k, start=0):
        self._key = (seed, label)
        self._start = start
        self._normals = normal_block(seed, label, count, k, start)
        self._pos = 0

    def normals(self, m):
        if self._pos + m > self._normals.shape[1]:
            raise ValueError(f"block of {self._normals.shape[1]} normals per sample is used up")
        self._pos += m
        return self._normals[:, self._pos - m : self._pos].copy()

    def row(self, i):
        return RowStream(self._normals[i], *self._key, self._start + i, self._pos)
