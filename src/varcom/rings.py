"""Exact scalar domains: rationals, small prime fields, and the local ring
of rational functions in t that are regular at t = 0.

Rationals are stdlib ``fractions.Fraction`` (already reduced, positive
denominator).  Prime fields are supported for p <= 97 only; they exist for
exhaustive enumeration, not for speed.

Polynomials and rational functions in t are integer polynomials (tuples
of Python ints), so their arithmetic never makes a Fraction per
coefficient.  A ``QPoly`` is one such polynomial over one positive integer
denominator.  A ``RatFun`` is a quotient P/Q of integer polynomials, kept
coprime and with Q(0) > 0; its ``num`` and ``den`` are the canonical
num(t)/den(t) with den(0) = 1.  Gcds come from the primitive polynomial
remainder sequence over Z, and ``RatFun`` arithmetic reduces by Henrici's
smaller gcds, skipping each one where nothing can cancel.  Every
computation with families is exact, and no truncation order ever has to
be chosen.
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


# -- Integer polynomials: tuples of ints, lowest degree first, with no
# trailing zeros (the zero polynomial is ()).  QPoly and RatFun are built
# on these.

def _strip(cs) -> tuple:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _val(a):
    for i, x in enumerate(a):
        if x:
            return i
    return INF


def _is_monomial(a) -> bool:
    return not any(a[:-1])


def _add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    if len(a) > len(b):
        return tuple([x + y for x, y in zip(a, b)]) + a[len(b):]
    return _strip([x + y for x, y in zip(a, b)])


def _neg(a) -> tuple:
    return tuple([-x for x in a])


def _scale(a, k: int) -> tuple:
    return a if k == 1 else tuple([k * x for x in a])


def _mul(a, b) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1:
        return _scale(b, a[0])
    if len(b) == 1:
        return _scale(a, b[0])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return tuple(out)


def _pdivmod(a, b):
    """(q, r, m) with m a = q b + r, deg r < deg b and m a positive int.

    The sparse pseudo-division: each step scales by lc(b) / gcd(lc(b), c)
    only, so m = 1 whenever b divides a in Z[t]."""
    n = len(b) - 1
    lb = b[-1]
    low = [(j, y) for j, y in enumerate(b[:n]) if y]
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    m = 1
    for i in range(len(a) - 1, n - 1, -1):
        c = r[i]
        if not c:
            continue
        g = math.gcd(c, lb) if lb > 0 else -math.gcd(c, lb)
        s = lb // g
        c //= g
        if s != 1:
            r = [s * x for x in r[:i]]
            q = [s * x for x in q]
            m *= s
        q[i - n] = c
        for j, y in low:
            r[i - n + j] -= c * y
    return _strip(q), _strip(r[:n]), m


def _divexact(a, b) -> tuple:
    """a / b, where b divides a in Z[t]."""
    if _is_monomial(b):
        k, lb = len(b) - 1, b[-1]
        return a[k:] if lb == 1 else tuple([x // lb for x in a[k:]])
    return _pdivmod(a, b)[0]


def _primitive(a) -> tuple:
    """a over its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([x // g for x in a])


def _prs_gcd(a, b) -> tuple:
    """The gcd over Q of integer polynomials, as a primitive integer
    polynomial with positive leading coefficient; () only for gcd(0, 0).

    The primitive polynomial remainder sequence (Collins 1967; Brown &
    Traub 1971): pseudo-remainders with their content divided out, so the
    coefficients stay as small as the gcd allows.  Powers of t are split
    off first."""
    if not a or not b:
        return _primitive(a or b) if a or b else ()
    va, vb = _val(a), _val(b)
    a, b = _primitive(a[va:]), _primitive(b[vb:])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pdivmod(a, b)[1]
        if not r:
            break
        a, b = b, _primitive(r)
    else:
        b = (1,)
    return (0,) * min(va, vb) + b


def _gcd(a, b) -> tuple:
    """gcd of two nonzero integer polynomials, at least one of which has a
    nonzero constant term.  A monomial on either side shares no factor with
    the other, so only two non-monomials need QPoly.gcd."""
    if _is_monomial(a) or _is_monomial(b):
        return (1,)
    return QPoly.gcd(_qpoly(a, 1), _qpoly(b, 1))._c


def _eval(a, x) -> Fraction:
    x = x if isinstance(x, Fraction) else Fraction(x)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _series(p, q, order: int) -> "QPoly":
    """p/q mod t^order, for integer polynomials with q(0) != 0.

    The Taylor coefficients are f_n = (p_n - sum_k q_k f_{n-k}) / q_0, and
    F_n = f_n q_0^(n+1) is an integer."""
    q0 = q[0]
    pw = [1]
    for _ in range(order):
        pw.append(pw[-1] * q0)
    F = []
    for n in range(order):
        s = p[n] * pw[n] if n < len(p) else 0
        for k in range(1, min(n, len(q) - 1) + 1):
            s -= q[k] * F[n - k] * pw[k - 1]
        F.append(s)
    return _reduced([x * pw[order - 1 - n] for n, x in enumerate(F)], pw[order])


class QPoly:
    """Dense univariate polynomial over Q, stored as integer coefficients
    over one positive denominator.

    ``_c`` holds the integer coefficients, lowest degree first, with
    trailing zeros stripped; ``_d`` is the denominator, and no prime
    divides ``_d`` and every coefficient, so each polynomial has exactly
    one representation.  The zero polynomial is () over 1 and has degree
    -1.  ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        d = math.lcm(*[c.denominator for c in cs])
        self._c, self._d = _normal([c.numerator * (d // c.denominator) for c in cs], d)

    @classmethod
    def const(cls, c) -> "QPoly":
        return cls((c,))

    @classmethod
    def t(cls) -> "QPoly":
        return _qpoly((0, 1), 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest degree first."""
        d = self._d
        return tuple([Fraction(c, d) for c in self._c])

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def valuation(self):
        """Index of the lowest nonzero coefficient; +inf for 0."""
        return _val(self._c)

    def __add__(self, other):
        da, db = self._d, other._d
        if da == db:
            return _reduced(_add(self._c, other._c), da)
        d = math.lcm(da, db)
        return _reduced(_add(_scale(self._c, d // da), _scale(other._c, d // db)), d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _qpoly(_neg(self._c), self._d)

    def __mul__(self, other):
        return _reduced(_mul(self._c, other._c), self._d * other._d)

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._c == other._c and self._d == other._d

    def __hash__(self):
        # A constant hashes like its Fraction, as does a RatFun equal to it.
        if len(self._c) <= 1:
            return hash(Fraction(self._c[0], self._d)) if self._c else 0
        return hash((self._c, self._d))

    def gcd(self, other: "QPoly") -> "QPoly":
        """The monic gcd, by the primitive remainder sequence over Z."""
        g = _prs_gcd(self._c, other._c)
        return _qpoly(g, g[-1]) if g else QPoly()

    def __call__(self, x):
        return _eval(self._c, x) / self._d

    def compose(self, inner: "QPoly") -> "QPoly":
        acc = QPoly()
        for c in reversed(self._c):
            acc = acc * inner + QPoly((c,))
        return _reduced(acc._c, acc._d * self._d)

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


def _normal(cs, d: int):
    """The canonical (coefficients, denominator) of the polynomial cs / d,
    for integers cs and d != 0."""
    cs = _strip(cs)
    g = math.gcd(d, *cs)
    if d < 0:
        g = -g
    if g != 1:
        cs, d = tuple([x // g for x in cs]), d // g
    return cs, d


def _qpoly(c: tuple, d: int) -> QPoly:
    """A QPoly from a representation that is already canonical."""
    out = object.__new__(QPoly)
    out._c, out._d = c, d
    return out


def _reduced(cs, d: int) -> QPoly:
    return _qpoly(*_normal(cs, d))


class RatFun:
    """Rational function num(t)/den(t) regular at t = 0.

    Canonical form: gcd(num, den) = 1 and den(0) = 1.  Construction rejects
    a pole at 0.  These form the local ring at t = 0 inside Q(t): exactly
    the elements of valuation 0 are invertible.

    Stored as integer polynomials ``_p / _q`` = num/den with _q(0) > 0 and
    no prime dividing every coefficient of both; ``num`` and ``den`` are
    computed from them.  Arithmetic reduces by Henrici's smaller gcds and
    skips those that cannot cancel anything.
    """

    __slots__ = ("_p", "_q")

    def __init__(self, num, den=None):
        if isinstance(num, RatFun):
            if den is not None:
                raise TypeError("RatFun(num, den) with RatFun num")
            self._p, self._q = num._p, num._q
            return
        num = num if isinstance(num, QPoly) else QPoly.const(num)
        if den is None:
            self._p, self._q = num._c, (num._d,)
            return
        den = den if isinstance(den, QPoly) else QPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        # (c1 / d1) / (c2 / d2) = (c1 d2) / (c2 d1)
        p, q = _scale(num._c, den._d), _scale(den._c, num._d)
        if p:
            k = min(_val(p), _val(q))
            p, q = p[k:], q[k:]
            g = _gcd(p, q)
            p, q = _divexact(p, g), _divexact(q, g)
            if not q[0]:
                raise ValueError("pole at t = 0")
        self._p, self._q = _lowest(p, q)

    @property
    def num(self) -> QPoly:
        return _reduced(self._p, self._q[0])

    @property
    def den(self) -> QPoly:
        return _reduced(self._q, self._q[0])

    def is_zero(self) -> bool:
        return not self._p

    def valuation(self):
        """t-adic valuation; +inf for 0.  Denominator is a unit, so only
        the numerator counts."""
        return _val(self._p)

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other._p, other._q)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, _neg(other._p), other._q)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        if not p1 or not p2:
            return _raw((), (1,))
        # Only p1 with q2 and p2 with q1 can share a factor.
        if len(q2) > 1:
            g = _gcd(p1, q2)
            if len(g) > 1:
                p1, q2 = _divexact(p1, g), _divexact(q2, g)
        if len(q1) > 1:
            g = _gcd(p2, q1)
            if len(g) > 1:
                p2, q1 = _divexact(p2, g), _divexact(q1, g)
        return _rat(_mul(p1, p2), _mul(q1, q2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        if not p2:
            raise ZeroDivisionError("division by zero rational function")
        if not p1:
            return _raw((), (1,))
        # (p1 / q1) / (p2 / q2) = (p1 q2) / (q1 p2): only p1 with p2 and q1
        # with q2 can share a factor.  Stays in the local ring only when
        # val(self) >= val(other); the pole is rejected otherwise.
        k = min(_val(p1), _val(p2))
        p1, p2 = p1[k:], p2[k:]
        g = _gcd(p1, p2)
        if len(g) > 1:
            p1, p2 = _divexact(p1, g), _divexact(p2, g)
        if len(q1) > 1 and len(q2) > 1:
            g = _gcd(q1, q2)
            if len(g) > 1:
                q1, q2 = _divexact(q1, g), _divexact(q2, g)
        q = _mul(q1, p2)
        if not q[0]:
            raise ValueError("pole at t = 0")
        return _rat(_mul(p1, q2), q)

    def __neg__(self):
        return _raw(_neg(self._p), self._q)

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self._p == other._p and self._q == other._q

    def __hash__(self):
        # Equal values hash equally: a polynomial like its QPoly, so a
        # constant like its Fraction.
        if len(self._q) == 1:
            return hash(self.num)
        return hash((self._p, self._q))

    def __bool__(self):
        return bool(self._p)

    def at_zero(self) -> Fraction:
        return Fraction(self._p[0], self._q[0]) if self._p else Fraction(0)

    def __call__(self, x) -> Fraction:
        d = _eval(self._q, x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at t = {x}")
        return _eval(self._p, x) / d

    def substitute(self, inner: QPoly) -> "RatFun":
        """Reparametrize t -> inner(t); inner(0) must be 0 so that
        regularity at 0 is preserved."""
        if inner(0) != 0:
            raise ValueError("substitution must fix t = 0")
        return RatFun(_qpoly(self._p, 1).compose(inner),
                      _qpoly(self._q, 1).compose(inner))

    def series(self, order: int) -> QPoly:
        """Taylor expansion mod t^order."""
        return _series(self._p, self._q, order)

    def __repr__(self):
        if len(self._q) == 1:
            return repr(self.num)
        return f"({self.num})/({self.den})"


def _lowest(p: tuple, q: tuple):
    """p / q with the content of both divided out and q(0) > 0."""
    if not p:
        return (), (1,)
    g = math.gcd(*p, *q)
    if q[0] < 0:
        g = -g
    if g == 1:
        return p, q
    return tuple([x // g for x in p]), tuple([x // g for x in q])


def _raw(p: tuple, q: tuple) -> RatFun:
    """A RatFun from a representation that is already canonical."""
    out = object.__new__(RatFun)
    out._p, out._q = p, q
    return out


def _rat(p: tuple, q: tuple) -> RatFun:
    """The RatFun p / q, for integer polynomials coprime over Q with
    q(0) != 0."""
    return _raw(*_lowest(p, q))


def _sum(x: RatFun, p2: tuple, q2: tuple) -> RatFun:
    """x + p2 / q2 by Henrici's formula: with d = gcd(q1, q2), only
    gcd(p, d) can cancel from p / q = (p1 q2/d + p2 q1/d) / (q1 q2/d)."""
    p1, q1 = x._p, x._q
    if not p2:
        return x
    if not p1:
        return _raw(p2, q2)
    if q1 == q2:
        d, c1, c2 = q1, (1,), (1,)
    else:
        d = _gcd(q1, q2)
        c1, c2 = _divexact(q1, d), _divexact(q2, d)
    p = _add(_mul(p1, c2), _mul(p2, c1))
    q = _mul(q1, c2)
    if len(d) > 1 and p:
        g = _gcd(p, d)
        if len(g) > 1:
            p, q = _divexact(p, g), _divexact(q, g)
    return _rat(p, q)


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, int):
        return _raw((int(x),) if x else (), (1,))
    if isinstance(x, (Fraction, QPoly)):
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
    y = _as_ratfun(x)
    if y is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} into the local ring")
    return y


# Not a field: only valuation-0 elements are invertible.
LOCAL = Domain("LOCAL", RatFun(0), RatFun(1), _coerce_local, False)
