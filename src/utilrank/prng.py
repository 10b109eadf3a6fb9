"""Portable deterministic random generation, one numpy lane per stream.

A SplitMix64 mixer derives seeds and substreams; xoshiro256++ generates
each stream; Gaussian variates come from a rational-approximation inverse
normal CDF (Acklam's coefficients, max relative error ~1.15e-9). Only
64-bit integer arithmetic, sqrt, and log are used, so identical seeds
give identical output on every platform.

Substream derivation: substream k of seed s starts from the (k+1)-th
SplitMix64 output of s, optionally re-mixed with a redraw attempt
counter. Streams for different substream indices are independent; one
uniform is consumed per variate, in generation order.

:func:`lane_units` runs many streams at once: each stream is one lane of
four numpy ``uint64`` state arrays, and every step advances all lanes
that still owe a draw. Seeding stays in Python, once per lane. A long
stream is cut into pieces that run as lanes of their own, each piece
starting from an exact jump-ahead state: the xoshiro256++ step is linear
over GF(2), so a jump of L steps is a table lookup per state byte and an
XOR. The lane outputs are bit-identical to stepping each stream on its
own. The tail branches of :func:`normal_ppf` take ``math.log`` element
by element, because ``np.log`` is not correctly rounded: it differs
from it by an ulp on a few inputs in a thousand.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream(seed: int, index: int, attempt: int = 0) -> int:
    """The seed of substream ``index`` of ``seed`` (redraw ``attempt``).

    The substream is the xoshiro256++ stream seeded with it, one lane of
    :func:`lane_units`.
    """
    root = mix64((seed + (index + 1) * _GOLDEN) & _MASK64)
    return mix64((root + attempt * _GOLDEN) & _MASK64)


def _initial_state(seed: int) -> list[int]:
    """xoshiro256++ state: the first four SplitMix64 outputs of ``seed``."""
    state = [mix64((seed + k * _GOLDEN) & _MASK64) for k in range(1, 5)]
    return state if any(state) else [_GOLDEN, 0, 0, 0]  # all-zero is the one forbidden point


def _steps(state: np.ndarray, live: Sequence[int]) -> np.ndarray:
    """Advance the first ``live[j]`` lanes of ``state`` (4 x lanes) at step j.

    xoshiro256++ outputs rotl(s0 + s3, 23) + s0 from the state before a
    step, so each step records s0 and then s3 of its lanes, in that order.
    """
    record = np.empty(2 * sum(live), dtype=np.uint64)
    t = np.empty(state.shape[1], dtype=np.uint64)
    xor, shl, k17, k45, k19 = np.bitwise_xor, np.left_shift, np.uint64(17), np.uint64(45), np.uint64(19)
    at, width = 0, None
    for n in live:
        if n != width:  # fewer lanes as the short ones finish
            width, s, tn = n, state[:, :n], t[:n]
            s1, s2, s3, s01, s23, s32, s03 = s[1], s[2], s[3], s[0:2], s[2:4], s[3:1:-1], s[0:4:3]
        np.copyto(record[at:at + 2 * n].reshape(2, n), s03)
        at += 2 * n
        shl(s1, k17, tn)
        xor(s23, s01, s23)  # s2 ^= s0, s3 ^= s1
        xor(s01, s32, s01)  # s0 ^= s3, s1 ^= s2
        xor(s2, tn, s2)
        shl(s3, k45, tn)
        np.right_shift(s3, k19, s3)
        np.bitwise_or(s3, tn, s3)
    return record


@functools.lru_cache(maxsize=4)
def _jump_table(length: int) -> np.ndarray:
    """The xoshiro256++ jump of ``length`` steps as a 32 x 256 x 4 ``uint64`` byte table.

    The step is linear over GF(2), so the state ``length`` steps on is the
    XOR, over the 32 bytes b of the state (byte k of word w is b = 8w + k),
    of ``table[b, byte b's value]``. Each entry is the XOR of the images of
    the byte's set bits, the images found by stepping the 256 one-bit states.
    The last four tables built are kept (read-only), 256 KiB each: the
    groups of one spec ask for a few lengths over and over, as each
    group's length follows its longest pair.
    """
    bit = np.arange(256)
    basis = np.zeros((4, 256), dtype=np.uint64)
    basis[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    _steps(basis, [256] * length)  # its record is dropped
    images = basis.T.reshape(32, 8, 1, 4)  # bit j of byte b is state bit 8b + j
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for j in range(8):  # the values with top bit j are those below 2**j, plus bit j
        np.bitwise_xor(table[:, :1 << j], images[:, j], table[:, 1 << j:2 << j])
    table.setflags(write=False)
    return table


_BYTE_SHIFTS = np.arange(0, 64, 8, dtype=np.uint64)
_BYTE_BASES = np.arange(0, 32 * 256, 256, dtype=np.uint64)  # byte b's first row in the flat table


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``states`` (lanes x 4) advanced by the jump of :func:`_jump_table`.

    Bytes are taken with shifts, so the result does not depend on byte
    order. Their rows come through a flat (32 * 256, 4) view of the table
    in one ``take``, which is faster than indexing it by byte and value.
    """
    octets = ((states[:, :, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)).reshape(-1, 32)
    octets += _BYTE_BASES
    return np.bitwise_xor.reduce(table.reshape(-1, 4).take(octets, axis=0), axis=1)


def _piece_length(counts: np.ndarray) -> int:
    """Draws per piece: the square root of the longest count, or more if pieces would pass 1024.

    A lane of n draws then takes about 2 sqrt(n) numpy steps and jumps
    (those that build the jump table included), not n; many lanes are cut
    into at most about 1024 pieces beyond one per lane.
    """
    return max(math.isqrt(int(counts.max(initial=0))), -(-int(counts.sum()) // 1024), 1)


def lane_units(seeds: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """Uniforms strictly inside (0, 1), 53 significant bits each.

    Lane k is the xoshiro256++ stream seeded by ``seeds[k]``; it yields
    its first ``counts[k]`` uniforms. The result holds lane 0's uniforms,
    then lane 1's, and so on.

    Each lane is cut into pieces of :func:`_piece_length` draws (the last
    one may be shorter), piece q starting from the lane's state jumped q
    times, and the pieces run as lanes of their own.
    """
    counts = np.asarray(counts, dtype=np.int64)
    length = _piece_length(counts)
    pieces = -(-counts // length)
    # Pieces are lane-major; piece q of lane k is starts[first[k] + q].
    first = np.cumsum(pieces) - pieces
    starts = np.empty((int(pieces.sum()), 4), dtype=np.uint64)
    # Lanes with the most pieces first, so the lanes that still jump at round q are a prefix.
    order = np.argsort(-pieces, kind="stable")
    live = len(pieces) - np.cumsum(np.bincount(pieces, minlength=1))[:-1]
    state = np.array([_initial_state(seeds[k]) for k in order.tolist()],
                     dtype=np.uint64).reshape(-1, 4)
    table = _jump_table(length) if len(live) > 1 else None
    for q, n in enumerate(live.tolist()):
        state = _jump(table, state[:n]) if q else state[:n]
        starts[first[order[:n]] + q] = state
    drawn = pieces > 0  # a lane with no draws has no piece
    sizes = np.full(len(starts), length)
    sizes[(first + pieces - 1)[drawn]] = (counts - (pieces - 1) * length)[drawn]  # last pieces
    return _units(starts, sizes)


def _units(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The first ``counts[k]`` uniforms of the stream in state ``starts[k]`` (4 words), lane after lane."""
    # Lanes run longest first, so the ``live[j]`` lanes that still draw at
    # step j are a prefix; step j's record is record[at[j]:at[j + 1]].
    order = np.argsort(-counts, kind="stable")
    live = len(counts) - np.cumsum(np.bincount(counts, minlength=1))[:-1]
    at = np.concatenate(([0], np.cumsum(2 * live)))
    state = np.ascontiguousarray(starts[order].T)
    record = _steps(state, live.tolist())
    # Draw j of the lane in sorted position p: s0 at record[at[j] + p], s3 live[j] later.
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    draw = np.arange(at[-1] // 2) - np.repeat(np.cumsum(counts) - counts, counts)
    s0_at = at[draw] + np.repeat(position, counts)
    words = record[s0_at + live[draw]]
    s0 = record[s0_at]
    del record, s0_at, draw
    words += s0
    words = (words << np.uint64(23)) | (words >> np.uint64(41))
    words += s0
    units = (words >> np.uint64(11)).astype(np.float64)
    units += 0.5
    units *= 2.0 ** -53
    return units


# Acklam's rational approximation of the inverse normal CDF.
_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00, 1.0)
_PPF_LOW = 0.02425
_PPF_HIGH = 1.0 - _PPF_LOW


def _horner(coefficients: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    """c0 x^(n-1) + ... + c(n-1), one rounded multiply and add per coefficient."""
    acc = coefficients[0] * x + coefficients[1]
    for c in coefficients[2:]:
        acc *= x
        acc += c
    return acc


def normal_ppf(p) -> np.ndarray:
    """Inverse standard normal CDF of each entry of ``p``, all in (0, 1)."""
    p = np.asarray(p, dtype=np.float64)
    inside = (p > 0.0) & (p < 1.0)
    if not inside.all():
        raise ValueError(f"normal_ppf requires p in (0, 1), got {float(p[~inside].flat[0])!r}")
    z = np.empty_like(p)
    low, high = p < _PPF_LOW, p > _PPF_HIGH
    central = ~(low | high)
    q = p[central] - 0.5
    s = q * q
    z[central] = _horner(_PPF_A, s) * q / _horner(_PPF_B, s)
    tail = ~central
    tail_p = np.where(low, p, 1.0 - p)[tail]
    q = np.sqrt(np.array([-2.0 * math.log(v) for v in tail_p.tolist()]))
    r = _horner(_PPF_C, q) / _horner(_PPF_D, q)
    z[tail] = np.where(high[tail], -r, r)
    return z
