"""Double-double arithmetic on numpy arrays.

A :class:`DD` holds an unevaluated sum hi + lo of two float64 arrays with
|lo| <= ulp(hi) / 2, about 106 bits of significand.  The operations are
built from the error-free transformations TwoSum (Knuth) and TwoProd
(Dekker's splitting), so they need nothing beyond IEEE double rounding.
They follow the "sloppy" variants of Hida, Li and Bailey's QD library:
each result is accurate to a few units of 2**-106 relative to the size
of its operands, which is all a recurrence evaluation can use anyway.

Plain Python or numpy numbers mixed into an expression are taken as
exact doubles; values that are not (an exact rational, a 50-digit mpf)
enter through :meth:`DD.of`.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    """s, e with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """two_sum for |a| >= |b| (or a = 0)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    """hi, lo with a = hi + lo exactly and each half at most 26 bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """p, e with p = fl(a * b) and p + e = a * b exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _parts(value):
    if isinstance(value, DD):
        return value.hi, value.lo
    return value, 0.0


class DD:
    """An array (or scalar) of double-double numbers."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = hi
        self.lo = lo

    @classmethod
    def of(cls, value) -> "DD":
        """The double-double nearest an int, Fraction or mpf scalar."""
        hi = float(value)
        if isinstance(value, mpmath.mpf):
            return cls(hi, float(value - hi))
        return cls(hi, float(Fraction(value) - Fraction(hi)))

    def rounded(self):
        """hi + lo rounded once to float64."""
        return self.hi + self.lo

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __add__(self, other):
        ohi, olo = _parts(other)
        s, e = two_sum(self.hi, ohi)
        return DD(*_fast_two_sum(s, e + (self.lo + olo)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        ohi, olo = _parts(other)
        p, e = two_prod(self.hi, ohi)
        return DD(*_fast_two_sum(p, e + (self.hi * olo + self.lo * ohi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        ohi, olo = _parts(other)
        q1 = self.hi / ohi
        p, e = two_prod(q1, ohi)
        # remainder self - q1 * other, to first order in the small parts
        r = ((self.hi - p) - e + self.lo - q1 * olo) / ohi
        return DD(*_fast_two_sum(q1, r))
