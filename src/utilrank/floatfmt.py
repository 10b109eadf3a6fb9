"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

:func:`render` gives, for every value at once, the text ``repr`` gives it,
using numpy integer operations only. The digits come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), the
algorithm of Java's ``Double.toString``: for a double v it finds the
shortest decimal in v's rounding interval, the one closest to v among
those, ties to an even last digit. That is the decimal Python's ``repr``
prints. Two of Java's steps are left out because they serve Java's rule
of at least two digits: the ``s >= 100`` guard before trying one digit
fewer, and the scaling of small subnormals (``C_TINY``). With them, 5e-324
would read 4.9e-324 and 5e-323 would read 4.9e-323.

The 64 x 128-bit products are taken from 32-bit limbs in ``uint64``
arrays; the float-to-bits ``view`` is the only float operation.

The text of each value is then laid out as ``repr`` does: positional for
1e-4 <= |x| < 1e16 (with ``.0`` on integral values), else ``d.ddde±XX``;
``nan``, ``inf``, ``-inf``, ``0.0`` and ``-0.0`` as they are. Every such
text is a subsequence of one template row (see ``_TEMPLATE``), so a value's
text is its template row filtered by a mask, and one mask serves every
value of one layout: the same sign, significant-digit count and
decimal-point position or exponent form.
"""

from __future__ import annotations

import functools

import numpy as np

# The template, one row per value:
#   -  n a n  i n f  0 .  0 0 0  d1 . d2 . ... . d17  e + -  x x x
# d1..d17 are the 17 digits of the decimal, trailing zeros included;
# x x x are the three digits of the exponent's magnitude.
_MINUS, _NAN_AT, _INF_AT, _ZERO_AT, _POINT, _ZEROS = 0, 1, 4, 7, 8, 9
_DIGITS = 12  # digit j (from 0) is column 12 + 2j; the point after it 13 + 2j
_E, _PLUS, _EXP_MINUS, _EXP = 45, 46, 47, 48
WIDTH = 51
_TEMPLATE = np.frombuffer(b"-naninf0.000" + b"0." * 16 + b"0e+-000", dtype=np.uint8)

# Layouts: (significant digits 1..17, form), form 0..19 positional with the
# decimal point after -3..16 digits, 20..23 an exponent of 2 or 3 digits,
# positive or negative; then nan, inf and zero. Negative values take the
# same layouts _HALF keys on, with the minus sign; nan has no sign.
_FORMS = 24
_NAN, _INF, _ZERO = 17 * _FORMS, 17 * _FORMS + 1, 17 * _FORMS + 2
_HALF = 17 * _FORMS + 3

_U = np.uint64
_32, _M32 = _U(32), _U(0xFFFFFFFF)
_POW10 = np.array([10 ** j for j in range(18)], dtype=np.uint64)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]


def _layout(digits: int, form: int) -> list[int]:
    """The template columns of one layout of a positive value, in order."""
    at = [_DIGITS + 2 * j for j in range(17)]
    if form < 20:  # positional; the point follows digit ``point`` (0: leading "0.")
        point = form - 3
        if point <= 0:
            return [_ZERO_AT, _POINT] + list(range(_ZEROS, _ZEROS - point)) + at[:digits]
        shown = max(digits, point + 1)  # past the digits, zeros: "12.0", "1200.0"
        return at[:point] + [at[point - 1] + 1] + at[point:shown]
    negative, wide = divmod(form - 20, 2)
    exponent = [_EXP_MINUS if negative else _PLUS] + list(range(_EXP + 1 - wide, _EXP + 3))
    point = [at[0] + 1] if digits > 1 else []
    return at[:1] + point + at[1:digits] + [_E] + exponent


@functools.lru_cache(maxsize=None)
def _tables() -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Built on first use: the per-exponent ``g``, h and k, the layout masks and lengths, exponent digits.

    Entry 2 * (biased exponent) + (irregular spacing) holds Schubfach's k
    and h, and g = g1 2**63 + g0 as g1 and g0, where g = floor(10**-k / 2**r) + 1
    and 2**125 <= g < 2**126, from exact integers. The floor logarithms are
    Java's integer formulas.
    """
    entry = np.arange(4096)
    biased, irregular = entry >> 1, entry & 1
    q = np.maximum(biased, 1) - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    g_halves = []
    for e in range(-292, 325):  # e = -k
        r = ((e * 913_124_641_741) >> 38) - 125
        g = (10 ** max(e, 0) << max(-r, 0)) // (10 ** max(-e, 0) << max(r, 0)) + 1
        g_halves.append((g >> 63, g & ((1 << 63) - 1)))
    per_exponent = (*np.array(g_halves, dtype=np.uint64).T[:, 292 - k], h.astype(np.uint64))

    layouts = [_layout(digits, form) for digits in range(1, 18) for form in range(_FORMS)]
    layouts += [[_NAN_AT, _NAN_AT + 1, _NAN_AT + 2], [_INF_AT, _INF_AT + 1, _INF_AT + 2],
                [_ZERO_AT, _POINT, _ZEROS]]
    masks = np.zeros((2 * _HALF, WIDTH), dtype=bool)
    masks[np.repeat(np.arange(_HALF), list(map(len, layouts))), np.concatenate(layouts)] = True
    masks[_HALF:] = masks[:_HALF]
    masks[_HALF:, _MINUS] = True
    lengths = np.count_nonzero(masks, axis=1)
    exponents = np.frombuffer("".join(f"{m:03d}" for m in range(1000)).encode(),
                              dtype=np.uint8).reshape(1000, 3)  # the digits of 0..999
    for table in (*per_exponent, k, masks, lengths, exponents):
        table.setflags(write=False)
    return per_exponent, k, masks, lengths, exponents


def _mulhi(a1: np.ndarray, a0: np.ndarray, b1: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * b, from the 32-bit limbs a = a1 2**32 + a0 and b = b1 2**32 + b0.

    In-place steps keep the temporaries few: each new array is an allocation,
    and chunk-sized ones can cost the heap a trim and a refill every time.
    """
    high, low = a1 * b1, a0 * b0
    low >>= _32
    for cross in (a0 * b1, a1 * b0):
        high += cross >> _32
        cross &= _M32
        low += cross
    low >>= _32
    high += low
    return high


def _rop(g: tuple[np.ndarray, ...], cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: floor(g cp / 2**127) with the sticky bit.

    ``g`` is g = g1 2**63 + g0 as g1 and the 32-bit limbs of g1 and g0.
    """
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> _32, cp & _M32
    z = g1 * cp
    z >>= _U(1)
    z += _mulhi(g0h, g0l, ch, cl)
    vb = _mulhi(g1h, g1l, ch, cl)
    vb += z >> _U(63)
    z <<= _U(1)
    vb |= z != 0
    return vb


def render(values: np.ndarray, text: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write the ``repr`` of each of ``values`` into ``text`` and ``keep``; return its lengths.

    ``text`` and ``keep`` are (len(values), WIDTH) ``uint8`` and bool
    arrays (column slices of wider rows will do). Row i of ``text``
    filtered by row i of ``keep`` is ``repr(values[i])`` in ASCII, and
    its length is entry i of the returned ``intp`` array.
    """
    per_exponent, exponent_k, masks, lengths, exponents = _tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    negative = (bits >> _U(63)).astype(np.intp)
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    fraction = bits & _U((1 << 52) - 1)
    c = fraction | ((biased != 0).astype(np.uint64) << _U(52))
    irregular = (fraction == 0) & (biased > 1)
    entry = 2 * biased + irregular
    g1, g0, h = (table.take(entry) for table in per_exponent)
    g = (g1, g1 >> _32, g1 & _M32, g0 >> _32, g0 & _M32)
    # v, and the bounds of its rounding interval, times 4 * 2**h: 4c, 4c - 2
    # (4c - 1 below a power of two) and 4c + 2. One array at a time: the
    # temporaries of one chunk's rows then stay small for the heap.
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    lower = _rop(g, (cb - _U(2) + irregular) << h)
    upper = _rop(g, (cb + _U(2)) << h)

    # The shortest decimal in the interval: one digit fewer (a multiple of
    # ten) if exactly one such lies in it, else s or s + 1, the closer one
    # (ties to even). ``out`` makes the interval open when c is odd.
    out = c & _U(1)
    lower += out
    upper -= out
    s = vb >> _U(2)
    tens = s // _U(10) * _U(10)
    tens_up = (tens + _U(10)) << _U(2) <= upper
    s_in, s_up = lower <= s << _U(2), (s + _U(1)) << _U(2) <= upper
    half = (s << _U(2)) + _U(2)
    s_closer = (vb < half) | ((vb == half) & ((s & _U(1)) == 0))
    f = np.where((lower <= tens << _U(2)) != tens_up, tens + _U(10) * tens_up,
                 s + np.where(s_in != s_up, s_up, ~s_closer))
    del lower, vb, upper, s, tens, tens_up, s_in, s_up, half, s_closer

    # Normalised to 17 digits, the decimal is 0.d1...d17 * 10**point.
    length = np.searchsorted(_POW10, f, side="right")
    f *= _POW10[17 - length]
    point = length + exponent_k[entry]
    # Two halves of 9 and 8 digits in uint32, then digit by digit.
    halves = np.empty((2, len(f)), dtype=np.uint32)
    halves[0] = f // _U(10 ** 8)
    halves[1] = f - halves[0] * _U(10 ** 8)
    digits = np.empty((17, len(f)), dtype=np.uint8)
    for j in range(8, -1, -1):
        rest = halves // np.uint32(10)
        halves -= rest * np.uint32(10)
        digits[j] = halves[0]
        if j:
            digits[8 + j] = halves[1]
        halves = rest
    significant = ((digits != 0) * _PLACES).max(axis=0).astype(np.intp)
    digits += ord("0")
    text[:] = _TEMPLATE
    text[:, _DIGITS:_E:2] = digits.T
    magnitude = np.abs(point - 1)
    positional = (point > -4) & (point <= 16)
    text[~positional, _EXP:] = exponents[magnitude[~positional]]

    form = np.where(positional, point + 3, 20 + 2 * (point < 1) + (magnitude >= 100))
    key = (significant - 1) * _FORMS + form
    key[biased == 0x7FF] = _INF
    key[(bits << _U(1)) == 0] = _ZERO
    key += _HALF * negative
    key[(biased == 0x7FF) & (fraction != 0)] = _NAN
    keep[:] = masks.take(key, axis=0)
    return lengths.take(key)
