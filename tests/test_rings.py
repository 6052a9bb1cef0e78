import math
import random
from fractions import Fraction

import pytest

from varcom.rings import GF, INF, LOCAL, QQ, GFElement, QPoly, RatFun, valuation


def t_power(k):
    return RatFun(QPoly((Fraction(0),) * k + (Fraction(1),)))


class TestPrimeField:
    def test_field_axioms_small(self):
        for p in (2, 3, 5, 7):
            dom = GF(p)
            elems = [dom.coerce(v) for v in range(p)]
            for a in elems:
                for b in elems:
                    assert (a + b) - b == a
                    assert a * b == b * a
                    if b != dom.zero:
                        assert (a / b) * b == a

    def test_inverse(self):
        dom = GF(97)
        for v in (1, 5, 50, 96):
            x = dom.coerce(v)
            assert x / x == dom.one

    def test_prime_bound(self):
        with pytest.raises(ValueError):
            GF(101)
        with pytest.raises(ValueError):
            GF(4)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            GFElement(3, 1) + GFElement(5, 1)


class TestQPoly:
    def test_gcd_monic(self):
        a = QPoly((0, 2, 2))          # 2t(1 + t)
        b = QPoly((0, 0, 4, 4))       # 4t^2(1 + t)
        g = a.gcd(b)
        assert g == QPoly((0, 1, 1))  # t(1 + t), monic

    def test_compose(self):
        f = QPoly((1, 0, 1))          # 1 + t^2
        u = QPoly((0, 1, 1))          # t + t^2
        assert f.compose(u)(2) == f(u(2))


class TestLocalRing:
    def test_valuation_examples(self):
        # t^2 / (1 + t) -> 2
        x = RatFun(QPoly((0, 0, 1)), QPoly((1, 1)))
        assert valuation(x) == 2
        # 0 -> +inf
        assert valuation(RatFun(0)) == INF
        assert math.isinf(valuation(RatFun(0)))
        # (3t + t^3)/(2 - t) -> 1
        y = RatFun(QPoly((0, 3, 0, 1)), QPoly((2, -1)))
        assert valuation(y) == 1

    def test_canonical_form(self):
        # denominator normalized to den(0) = 1 and gcd-reduced
        x = RatFun(QPoly((0, 2, 2)), QPoly((2, 2)))   # 2t(1+t) / 2(1+t) = t
        assert x == RatFun(QPoly.t())
        assert x.den == QPoly.const(1)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            RatFun(QPoly((1,)), QPoly.t())

    def test_units_are_valuation_zero(self):
        u = RatFun(QPoly((1, 1)))
        assert u.valuation() == 0
        assert (RatFun(1) / u) * u == RatFun(1)
        with pytest.raises(ValueError):
            RatFun(1) / RatFun(QPoly.t())   # 1/t has a pole at 0

    def test_division_closure(self):
        assert t_power(3) / t_power(1) == t_power(2)

    def test_valuation_laws_random(self):
        rng = random.Random(2024)

        def rand_elem():
            num = QPoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))])
            den = QPoly([Fraction(rng.choice([1, 2, -1]))]
                        + [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))])
            return RatFun(num, den)

        for _ in range(500):
            x, y = rand_elem(), rand_elem()
            vx, vy = x.valuation(), y.valuation()
            assert (x * y).valuation() == vx + vy
            assert (x + y).valuation() >= min(vx, vy)

    def test_substitute_reparametrization(self):
        x = RatFun(QPoly((0, 1)), QPoly((1, 1)))     # t/(1+t)
        u = QPoly((0, 1, 1))                          # t(1+t)
        y = x.substitute(u)
        assert y.valuation() == x.valuation()
        assert y(Fraction(1, 2)) == x(u(Fraction(1, 2)))
        with pytest.raises(ValueError):
            x.substitute(QPoly((1, 1)))               # must fix t = 0

    def test_series(self):
        x = RatFun(QPoly((1,)), QPoly((1, -1)))       # 1/(1-t)
        assert x.series(4) == QPoly((1, 1, 1, 1))

    def test_domain_coercion(self):
        assert LOCAL.coerce(3) == RatFun(3)
        assert QQ.coerce(2) == Fraction(2)
        with pytest.raises(TypeError):
            QQ.coerce("nope")
        with pytest.raises(TypeError):
            valuation(Fraction(1))

    def test_hash_agrees_with_equality(self):
        # equal values must hash equally, so a RatFun finds its constant's
        # dictionary entry
        assert {1: "x"}.get(RatFun(1)) == "x"
        for v in (0, 1, -3, Fraction(5, 7), Fraction(-1, 12)):
            assert RatFun(v) == v
            assert hash(RatFun(v)) == hash(v)
            assert hash(QPoly.const(v)) == hash(Fraction(v))
        x = RatFun(QPoly((0, Fraction(1, 2), 3)))
        assert x == x.num and x.num == x and hash(x) == hash(x.num)
        assert QPoly.const(1) != 1 and QPoly.t() != "t"
        y = RatFun(QPoly((0, 2, 2)), QPoly((2, 2, 0, 4)))
        assert hash(y) == hash(RatFun(y.num * QPoly((5, 1)), y.den * QPoly((5, 1))))


T_POWERS_AND_ROOTS = (QPoly((0, 1)), QPoly((0, 0, 1)), QPoly((-3, 1)),
                      QPoly((Fraction(1, 2), 1)), QPoly((0, 0, 0, 7)))


class TestSympyOracle:
    """QPoly.gcd and the RatFun canonical form against sympy's gcd and
    cancel, an implementation that shares no code with varcom."""

    @staticmethod
    def random_poly(rng, max_deg=5):
        """Integer or rational coefficients up to 10^12, either sign; the
        zero polynomial and constants included."""
        deg = rng.randint(-1, max_deg)
        big = rng.choice((3, 10 ** 4, 10 ** 12))
        cs = []
        for _ in range(deg + 1):
            c = Fraction(rng.randint(-big, big))
            if rng.random() < 0.25:
                c /= rng.randint(1, big)
            cs.append(c)
        if cs and rng.random() < 0.5:
            cs[-1] = -abs(cs[-1]) or Fraction(-1)     # negative leading coefficient
        return QPoly(cs)

    def shared_factor(self, rng):
        f = QPoly((1,))
        for _ in range(rng.randint(0, 3)):
            f = f * rng.choice(T_POWERS_AND_ROOTS + (self.random_poly(rng, 2),))
        return f if not f.is_zero() else QPoly((1,))

    @staticmethod
    def to_sympy(p, sympy, t):
        return sympy.Poly(list(reversed(p.coeffs)) or [0], t, domain="QQ")

    @staticmethod
    def from_sympy(P):
        return QPoly([Fraction(int(c.p), int(c.q)) for c in reversed(P.all_coeffs())])

    def cases(self, n=300, seed=6):
        rng = random.Random(seed)
        for _ in range(n):
            f = self.shared_factor(rng)
            yield f * self.random_poly(rng), f * self.random_poly(rng)

    def test_gcd(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for a, b in self.cases():
            g = a.gcd(b)
            G = sympy.gcd(self.to_sympy(a, sympy, t), self.to_sympy(b, sympy, t))
            want = self.from_sympy(G.monic() if not G.is_zero else G)
            assert g == want, (a, b)
            assert g.is_zero() or g.coeffs[-1] == 1

    def test_canonical_form(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        for a, b in self.cases(seed=7):
            if b.is_zero():
                continue
            P, Q = self.to_sympy(a, sympy, t).cancel(self.to_sympy(b, sympy, t),
                                                    include=True)
            q0 = Q.eval(0)
            if q0 == 0:
                with pytest.raises(ValueError, match="pole"):
                    RatFun(a, b)
                continue
            x = RatFun(a, b)
            assert x.num == self.from_sympy(P * (1 / q0))
            assert x.den == self.from_sympy(Q * (1 / q0))
            assert x.den(0) == 1

    def test_skip_paths_match_general_path(self, monkeypatch):
        """Products by constants and by t^a, negation and sums of
        polynomials call no gcd, and agree with the constructor, which
        reduces by the full gcd."""
        rng = random.Random(8)
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
        elems = []
        for a, b in self.cases(n=120, seed=9):
            if b.is_zero() or b(0) == 0:
                continue
            elems.append(RatFun(a, b))
        scalars = [RatFun(c) for c in (0, 1, -1, Fraction(-7, 3), 10 ** 12)]
        monomials = [RatFun(QPoly((0,) * k + (c,))) for k in (1, 2, 5)
                     for c in (1, -2, Fraction(3, 4))]
        polys = [RatFun(self.random_poly(rng)) for _ in range(40)]
        for x in elems:
            for y in scalars + monomials:
                calls.clear()
                got = (x * y, y * x)
                assert not calls
                general = RatFun(x.num * y.num, x.den * y.den)
                assert got == (general, general)
            calls.clear()
            neg = -x
            assert not calls
            assert neg == RatFun(-x.num, x.den)
        for x, y in zip(polys, polys[1:]):
            calls.clear()
            got = (x + y, x - y)
            assert not calls
            assert got == (RatFun(x.num * y.den + y.num * x.den, x.den * y.den),
                           RatFun(x.num * y.den - y.num * x.den, x.den * y.den))

    def test_henrici_paths_match_general_path(self):
        """Sums, products and quotients of operands that share factors,
        against the constructor, which reduces by the full gcd."""
        rng = random.Random(10)
        for a, b in self.cases(n=150, seed=10):
            c, d = self.random_poly(rng), self.random_poly(rng)
            # a and b share a factor: put them in the two denominators, a
            # numerator and the other denominator, or the two numerators
            for n1, d1, n2, d2 in ((c, a, d, b), (a, c, d, b), (c, a, b, d),
                                   (a, c, b, d)):
                if d1.is_zero() or d2.is_zero() or d1(0) == 0 or d2(0) == 0:
                    continue
                x, y = RatFun(n1, d1), RatFun(n2, d2)
                assert x * y == RatFun(x.num * y.num, x.den * y.den)
                assert x + y == RatFun(x.num * y.den + y.num * x.den, x.den * y.den)
                assert x - y == RatFun(x.num * y.den - y.num * x.den, x.den * y.den)
                # w = x - y by the general path: w + y and x - w must cancel
                # the factor of one denominator that the other lacks
                w = RatFun(x.num * y.den - y.num * x.den, x.den * y.den)
                assert w + y == x and x - w == y
                if y.is_zero():
                    continue
                general = x.num * y.den, x.den * y.num
                if x.valuation() >= y.valuation():
                    assert x / y == RatFun(*general)
                else:
                    with pytest.raises(ValueError, match="pole"):
                        x / y
