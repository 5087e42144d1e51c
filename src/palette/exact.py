"""Exact arithmetic over numbers of the form a + b*sqrt(d).

The charging ledgers must not be computed in floating point: the tight
instances have zero margin, and the targets are irrational -- the bias that
maximizes the randomized path guarantee is the golden ratio over sqrt(5),
and the fair tree floor (2*sqrt(k)-2)/(2*sqrt(k)-1) involves sqrt(k) -- so
plain fractions are not enough either.  This tiny quadratic-field type
supports the ring operations, division, and exact ordering, which is all
the ledgers need.  The radicand d is stored per value: `Sqrt5(a, b)` has
d = 5 and `surd(a, b, d)` any other; `==` is exact across radicands.  A
surd combines with ints, Fractions and surds of its own radicand, and
`_coerce`, the one operand rule of every arithmetic and ordering operator,
refuses anything else with TypeError (another radicand with ValueError).  A
coordinate is an int or a Fraction: int coordinates stay ints under +, -, *
and `//`, so a ledger scaled to whole numbers compares and splits in ints,
and `/` gives Fractions, never floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Sqrt5:
    """The number a + b*sqrt(d) with int or Fraction a, b and a positive
    non-square integer d.  The constructor always gives d = 5; every value,
    whatever its radicand, is built by the same two-argument call and then
    given its d, so code that wraps the constructor sees one signature."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0):
        self.a = a if type(a) is int else Fraction(a)
        self.b = b if type(b) is int else Fraction(b)
        self.d = 5

    def _like(self, a, b) -> "Sqrt5":
        """a + b*sqrt(d) with this value's radicand."""
        r = Sqrt5(a, b)
        r.d = self.d
        return r

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Sqrt5":
        if isinstance(other, Sqrt5):
            if other.d != self.d:
                raise ValueError(
                    f"cannot mix radicands sqrt({self.d}) and sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self._like(other, 0)
        raise TypeError(f"a surd combines with int, Fraction or surd, not {type(other).__name__}")

    def __add__(self, other):
        o = self._coerce(other)
        return self._like(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        return self._like(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        return self._like(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        return self._like(
            self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        # multiply by the conjugate; a Fraction norm a*a - d*b*b keeps ints from dividing to floats
        norm = Fraction(o.a * o.a - o.d * o.b * o.b)
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        num = self * o._like(o.a, -o.b)
        return self._like(num.a / norm, num.b / norm)

    def __floordiv__(self, n: int):
        """Each coordinate floor-divided by the int n: exact when n divides both."""
        return self._like(self.a // n, self.b // n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- exact ordering -----------------------------------------------------

    def _sign(self) -> int:
        """Sign of a + b*sqrt(d), decided without leaving the rationals."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d b^2 on the dominant side
        aa, dbb = a * a, self.d * b * b
        if a > 0:  # b < 0: positive iff a^2 > d b^2
            return 1 if aa > dbb else (-1 if aa < dbb else 0)
        # a < 0 < b: positive iff d b^2 > a^2
        return 1 if dbb > aa else (-1 if dbb < aa else 0)

    def __eq__(self, other):  # b*sqrt(d) is irrational unless b = 0: compare a, sign(b), b*b*d
        if isinstance(other, Sqrt5):
            return (self.a == other.a and (self.b > 0) == (other.b > 0)
                    and self.b * self.b * self.d == other.b * other.b * other.d)
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __lt__(self, other):
        return (self - other)._sign() < 0

    def __le__(self, other):
        return (self - other)._sign() <= 0

    def __gt__(self, other):
        return (self - other)._sign() > 0

    def __ge__(self, other):
        return (self - other)._sign() >= 0

    def __hash__(self):  # equal values share a, the sign of b and b*b*d
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b > 0, self.b * self.b * self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- conversions ----------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"{abs(self.b)}*sqrt({self.d})"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {root}"

    def __repr__(self):
        if self.d != 5:
            return f"surd({self.a}, {self.b}, {self.d})"
        if self.b == 0:
            return f"Sqrt5({self.a})"
        return f"Sqrt5({self.a}, {self.b})"


def surd(a, b, d: int) -> Sqrt5:
    """The number a + b*sqrt(d) for a positive non-square integer d."""
    if not isinstance(d, int) or d < 2 or math.isqrt(d) ** 2 == d:
        raise ValueError(f"radicand must be a positive non-square integer, got {d!r}")
    r = Sqrt5(a, b)
    r.d = d
    return r


def sqrt(k: int):
    """sqrt(k) exactly: the int s for k = s*s, else the surd sqrt(k)."""
    s = math.isqrt(k)
    return s if s * s == k else surd(0, 1, k)


#: (1 + sqrt(5)) / (2 sqrt(5)) = 1/2 + sqrt(5)/10, the golden ratio over sqrt(5)
PHI_OVER_SQRT5 = Sqrt5(Fraction(1, 2), Fraction(1, 10))
