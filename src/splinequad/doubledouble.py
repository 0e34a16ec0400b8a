"""Double-double arithmetic on numpy arrays.

A :class:`DD` holds an unevaluated sum hi + lo of two float64 arrays with
|lo| <= ulp(hi) / 2, about 106 bits of significand.  The operations are
built from the error-free transformations TwoSum (Knuth) and TwoProd
(Dekker's splitting), so they need nothing beyond IEEE double rounding.
They follow the "sloppy" variants of Hida, Li and Bailey's QD library:
each result is accurate to a few units of 2**-106 relative to the size
of its operands, which is all a recurrence evaluation can use anyway.

Plain Python or numpy numbers mixed into an expression are taken as
exact doubles; values that are not (an int past 2**53, a Fraction such
as a spec's constants) enter through :meth:`DD.of`.

A Python int k with |k| < 2**26 is its own high half under Dekker's
splitting, with a zero low part.  Multiplying or dividing by such an int
(every constant of the Gegenbauer recurrence is one) skips its split and
the products with that zero low part: the terms dropped are +-0, so the
values are those of the general path.  Any other number, a bool or a
numpy integer included, takes the general path.
"""

from __future__ import annotations

from fractions import Fraction

_SPLITTER = 134217729.0  # 2**27 + 1
_SMALL_INT = 2 ** 26  # an int below this in size splits into itself and 0


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


def _two_prod_small(a, k):
    """two_prod for a Python int k with |k| < _SMALL_INT."""
    p = a * k
    ah, al = _split(a)
    return p, (ah * k - p) + al * k


def _is_small_int(value):
    return type(value) is int and -_SMALL_INT < value < _SMALL_INT


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
        """The double-double nearest an int or Fraction: hi the double
        nearest it, lo the double nearest the rest, exactly."""
        hi = float(value)
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
        if _is_small_int(other):
            p, e = _two_prod_small(self.hi, other)
            return DD(*_fast_two_sum(p, e + self.lo * other))
        ohi, olo = _parts(other)
        p, e = two_prod(self.hi, ohi)
        return DD(*_fast_two_sum(p, e + (self.hi * olo + self.lo * ohi)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_small_int(other):
            q1 = self.hi / other
            p, e = _two_prod_small(q1, other)
            return DD(*_fast_two_sum(q1, ((self.hi - p) - e + self.lo) / other))
        ohi, olo = _parts(other)
        q1 = self.hi / ohi
        p, e = two_prod(q1, ohi)
        # remainder self - q1 * other, to first order in the small parts
        r = ((self.hi - p) - e + self.lo - q1 * olo) / ohi
        return DD(*_fast_two_sum(q1, r))
