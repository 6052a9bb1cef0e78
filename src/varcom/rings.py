"""Exact scalar domains: rationals, small prime fields, and the local ring
of rational functions in t that are regular at t = 0.

Rationals are stdlib ``fractions.Fraction`` (already reduced, positive
denominator).  Prime fields are supported for p <= 97 only; they exist for
exhaustive enumeration, not for speed.  Local-ring elements are stored as
gcd-reduced fractions num(t)/den(t) of polynomials over Q with den(0) = 1,
so every computation with families is exact and no truncation order ever
has to be chosen.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}


class GFElement:
    """Residue in F_p.  Immutable; arithmetic stays inside one field."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _check(self, other):
        if not isinstance(other, GFElement):
            if isinstance(other, int):
                return GFElement(self.p, other)
            return NotImplemented
        if other.p != self.p:
            raise ValueError(f"mixed prime fields F_{self.p} and F_{other.p}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v - other.v)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.p, other.v - self.v)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return GFElement(self.p, self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return GFElement(self.p, self.v * pow(other.v, self.p - 2, self.p))

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class QPoly:
    """Dense univariate polynomial over Q, trailing zeros stripped.

    Coefficients are Fractions, lowest degree first.  The zero polynomial
    has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((Fraction(c),))

    @classmethod
    def t(cls) -> "QPoly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """Index of the lowest nonzero coefficient; +inf for 0."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return INF

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quo[i - d] = q
            for j in range(d + 1):
                rem[i - d + j] -= q * other.coeffs[j]
        return QPoly(quo), QPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return QPoly(tuple(c / lead for c in self.coeffs))

    def gcd(self, other: "QPoly") -> "QPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __call__(self, x):
        x = x if isinstance(x, Fraction) else Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "QPoly") -> "QPoly":
        acc = QPoly()
        for c in reversed(self.coeffs):
            acc = acc * inner + QPoly.const(c)
        return acc

    def series_inverse(self, order: int) -> "QPoly":
        """Power-series inverse mod t^order; requires coeff(0) != 0."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise ZeroDivisionError("series inverse needs a unit constant term")
        c0 = self.coeffs[0]
        out = [Fraction(1) / c0]
        for n in range(1, order):
            s = Fraction(0)
            for k in range(1, min(n, len(self.coeffs) - 1) + 1):
                s += self.coeffs[k] * out[n - k]
            out.append(-s / c0)
        return QPoly(out)

    def truncate(self, order: int) -> "QPoly":
        return QPoly(self.coeffs[:order])

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts)


class RatFun:
    """Rational function num(t)/den(t) regular at t = 0.

    Canonical form: gcd(num, den) = 1 and den(0) = 1.  Construction rejects
    a pole at 0.  These form the local ring at t = 0 inside Q(t): exactly
    the elements of valuation 0 are invertible.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFun):
            if den is not None:
                raise TypeError("RatFun(num, den) with RatFun num")
            self.num, self.den = num.num, num.den
            return
        num = num if isinstance(num, QPoly) else QPoly.const(num)
        den = QPoly.const(1) if den is None else (
            den if isinstance(den, QPoly) else QPoly.const(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        d0 = den(0)
        if d0 == 0:
            raise ValueError("pole at t = 0")
        self.num = QPoly(tuple(c / d0 for c in num.coeffs))
        self.den = QPoly(tuple(c / d0 for c in den.coeffs))

    @classmethod
    def t(cls) -> "RatFun":
        return cls(QPoly.t())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def valuation(self):
        """t-adic valuation; +inf for 0.  Denominator is a unit, so only
        the numerator counts."""
        return self.num.valuation()

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        # Stays in the local ring only when val(self) >= val(other); the
        # constructor rejects the resulting pole otherwise.
        return RatFun(self.num * other.den, self.den * other.num)

    def __neg__(self):
        out = RatFun.__new__(RatFun)
        out.num, out.den = -self.num, self.den
        return out

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def at_zero(self) -> Fraction:
        return self.num(0)

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at t = {x}")
        return self.num(x) / d

    def substitute(self, inner: QPoly) -> "RatFun":
        """Reparametrize t -> inner(t); inner(0) must be 0 so that
        regularity at 0 is preserved."""
        if inner(0) != 0:
            raise ValueError("substitution must fix t = 0")
        return RatFun(self.num.compose(inner), self.den.compose(inner))

    def series(self, order: int) -> QPoly:
        """Taylor expansion mod t^order."""
        return (self.num * self.den.series_inverse(order)).truncate(order)

    def __repr__(self):
        if self.den == QPoly.const(1):
            return repr(self.num)
        return f"({self.num})/({self.den})"


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, QPoly)):
        return RatFun(x)
    return NotImplemented


def valuation(x):
    """t-adic valuation of a local-ring scalar (+inf sentinel for 0)."""
    if not isinstance(x, RatFun):
        raise TypeError("valuation is defined for local-ring scalars")
    return x.valuation()


class Domain:
    """Scalar-kind descriptor attached to matrices; supplies constants and
    coercion so the linear algebra stays entry-kind homogeneous."""

    def __init__(self, name, zero, one, coerce, is_field):
        self.name = name
        self.zero = zero
        self.one = one
        self.coerce = coerce
        self.is_field = is_field

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Domain) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


def _coerce_q(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} into Q")


QQ = Domain("QQ", Fraction(0), Fraction(1), _coerce_q, True)

_gf_cache: dict[int, Domain] = {}


def GF(p: int) -> Domain:
    """The field F_p for a prime p <= 97."""
    if p not in SMALL_PRIMES:
        raise ValueError(f"p = {p} is not a prime <= 97")
    if p not in _gf_cache:
        def coerce(x, p=p):
            if isinstance(x, GFElement):
                if x.p != p:
                    raise TypeError(f"element of F_{x.p} in F_{p} context")
                return x
            if isinstance(x, int):
                return GFElement(p, x)
            raise TypeError(f"cannot coerce {x!r} into F_{p}")
        _gf_cache[p] = Domain(f"GF({p})", GFElement(p, 0), GFElement(p, 1),
                              coerce, True)
    return _gf_cache[p]


def _coerce_local(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, QPoly)):
        return RatFun(x)
    raise TypeError(f"cannot coerce {x!r} into the local ring")


# Not a field: only valuation-0 elements are invertible.
LOCAL = Domain("LOCAL", RatFun(0), RatFun(1), _coerce_local, False)
