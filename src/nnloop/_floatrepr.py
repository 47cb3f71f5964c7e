"""``repr`` of a whole float64 array at once, in numpy.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020) on uint64 arrays: the shortest decimal in the rounding
interval, of those the closest, ties to an even digit, as ``repr`` picks
them; Java's two-digit minimum is left out (``5e-324``, not ``4.9e-324``).
Every integer operand is an explicit uint64, since numpy 1.x turns uint64
with int64 into float64, and the products that wrap around are taken on
arrays, which wrap silently where numpy scalars warn.
"""

import functools

import numpy as np

_U = np.uint64
# uint64 literals, made once: a numpy scalar costs about 1 us to make.
_0, _1, _2, _10, _S32, _S52, _S63 = (_U(v) for v in (0, 1, 2, 10, 32, 52, 63))
_M32, _M52, _M63 = (_U((1 << b) - 1) for b in (32, 52, 63))
_EXP = _U(0x7FF << 52)          # the exponent bits of a double
_K_MIN, _K_COUNT = -324, 617    # decimal exponents of the scaling
_W = 24                         # longest repr: -2.2250738585072014e-308


@functools.cache
def _pow10_table():
    """Rows g1, g0 and filled of the table _g fills as exponents occur."""
    return np.zeros((3, _K_COUNT), _U)


def _g(k):
    """g1, g0 with g1 2^63 + g0 = floor(10^-k 2^-r) + 1 in [2^125, 2^126)."""
    g1, g0, filled = _pow10_table()
    idx = k - _K_MIN
    need = (np.bincount(idx, minlength=_K_COUNT) > 0) & (filled == _0)
    for i in np.flatnonzero(need).tolist():
        e = -(i + _K_MIN)
        r = ((e * 913124641741) >> 38) - 125    # floor(e log2 10) - 125
        g = (10 ** max(e, 0) << max(-r, 0)) // (10 ** max(-e, 0) << max(r, 0))
        g1[i], g0[i] = divmod(g + 1, 1 << 63)
    filled[need] = _1
    return g1[idx], g0[idx]


def _mulhi(al, ah, cl, ch):
    """High 64 bits of a c from 32-bit halves (a < 2^63, c < 2^60: no wrap)."""
    return (((al * cl >> _S32) + al * ch + ah * cl) >> _S32) + ah * ch


def _shortest(bits):
    """Digits f and exponent k, v = f 10^k, of finite positive doubles."""
    be = bits >> _S52
    t = bits & _M52
    c = t | ((be != _0) * (_M52 + _1))
    q = np.maximum(be, _1).astype(np.int64) - 1075      # v = c 2^q
    closer = (t == _0) & (be > _1)          # lower neighbour twice as close
    k = (q * 661971961083 - closer * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(_U)    # 2..5
    g1, g0 = _g(k)
    g0l, g0h, g1l, g1h = g0 & _M32, g0 >> _S32, g1 & _M32, g1 >> _S32

    def rop(cp):                # g cp / 2^127, rounded to odd
        cl, ch = cp & _M32, cp >> _S32
        z = (g1 * cp >> _1) + _mulhi(g0l, g0h, cl, ch)
        sticky = ((z & _M63) + _M63) >> _S63
        return (_mulhi(g1l, g1h, cl, ch) + (z >> _S63)) | sticky

    cb = c << _2
    out = c & _1                # an odd c excludes the interval's ends
    vb = rop(cb << h)
    vbl = rop((cb - _2 + closer) << h) + out
    vbr = rop((cb + _2) << h) - out
    s = vb >> _2
    sp = s // _10 * _10
    upin = vbl <= sp << _2
    wpin = (sp + _10) << _2 <= vbr
    uin = vbl <= s << _2
    win = (s + _1) << _2 <= vbr
    mid = (s << _2) + _2
    up = np.where(uin != win, win, (vb > mid) | ((vb == mid) & (s & _1 != _0)))
    return np.where(upin != wpin, sp + wpin * _10, s + up), k


def reprs(x) -> np.ndarray:
    """``repr(float(v)).encode()`` for each v of x, raveled, as S24."""
    bits = np.ascontiguousarray(x, dtype=np.float64).ravel().view(_U)
    finite = (bits & _EXP) != _EXP
    zero = (bits << _1) == _0
    f, k = _shortest(np.where(~finite | zero, _EXP >> _1, bits & _M63))
    # f as exactly 17 digits; p is the position of the decimal point.
    p10 = _10 ** np.arange(18, dtype=_U)
    n0 = np.searchsorted(p10, f, side="right")
    p = k + n0
    f = f * p10[17 - n0]
    # Z holds one float per column, one character per row.
    Z = np.zeros((_W, bits.size), np.uint8)
    hi = f // p10[8]
    p9 = np.uint32(10) ** np.arange(8, -1, -1, dtype=np.uint32)[:, None]
    for top, v in ((0, hi), (9, f - hi * p10[8])):
        d = v.astype(np.uint32) // p9[top // 9:]
        Z[top:top + len(d)] = d - d // np.uint32(10) * np.uint32(10) + 48
    L = (np.arange(1, 18, dtype=np.uint8)[:, None] * (Z[:17] != 48)).max(0)
    expo = (p <= -4) | (p > 16)
    small = ~expo & (p <= 0)                # 0.000ddd
    neg = bits >> _S63 != _0
    # Move the digits down past the sign and the zeros of 0.000ddd, ...
    # (m * (a - b) added to b is np.where(m, a, b), faster for uint8)
    lead = np.where(small, 1 - p, 0) + neg
    for b in (1, 2, 4):
        m = (lead & b) != 0
        Z[b:] += m * (Z[:-b] - Z[b:])
        Z[:b] += m * (48 - Z[:b])
    # ... insert the point, write the sign, cut the text's end, ...
    j = np.arange(_W, dtype=np.int8)[:, None]
    point = (np.where(expo | small, 1, p) + neg).astype(np.int8)
    Z[1:] += (j[1:] > point) * (Z[:-1] - Z[1:])
    Z[point, np.arange(bits.size)] = ord(".")
    Z[0] += neg * (ord("-") - Z[0])
    end = neg + np.where(expo, L + (L > 1),
                         np.where(small, 2 - p + L, np.maximum(L, p + 1) + 1))
    Z *= j < end.astype(np.int8)
    # ... and append e±XX or e-XXX (the tens overwrite a 0 of the hundreds).
    ix = np.flatnonzero(expo)
    e, at = p[ix] - 1, end[ix]
    a = np.abs(e)
    Z[at, ix] = ord("e")
    Z[at + 1, ix] = np.where(e < 0, ord("-"), ord("+"))
    for i, d in enumerate((a // 100, a // 10 % 10, a % 10)):
        Z[at + 2 + i - (i > 0) * (a < 100), ix] = d + 48
    res = np.ascontiguousarray(Z.T).view(f"S{_W}").ravel()
    nan = (bits << _1) > _EXP << _1
    for mask, text in ((zero, b"0.0"), (~finite & ~nan, b"inf")):
        res[mask] = text
        res[mask & neg] = b"-" + text
    res[nan] = b"nan"
    return res
