"""Property tests for the local ring: ring axioms, the canonical form,
additivity of the valuation, and Taylor series against evaluation."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from varcom.rings import INF, QPoly, RatFun

coeff = st.integers(-20, 20)
poly = st.lists(coeff, max_size=4).map(QPoly)
# den(0) != 0, so the quotient is regular at 0 and its poles stay away from
# 0: a root of the denominator has modulus at least 1/21.
den = st.builds(lambda c0, rest: QPoly([c0] + rest),
                coeff.filter(bool), st.lists(coeff, max_size=3))
ratfun = st.builds(RatFun, poly, den)
# A nonzero factor, possibly divisible by t, to build the same value twice.
factor = st.lists(coeff, min_size=1, max_size=3).map(QPoly).filter(
    lambda p: not p.is_zero())

# derandomize: the suite tests the same examples on every run
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@SETTINGS
@given(ratfun, ratfun, ratfun)
def test_ring_axioms(x, y, z):
    zero, one = RatFun(0), RatFun(1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert x - x == zero and x + (-x) == zero and -(-x) == x
    assert (x - y) + y == x
    if y.valuation() == 0:
        assert (x / y) * y == x


@SETTINGS
@given(poly, den, factor, st.fractions(max_denominator=50).filter(bool))
def test_canonical_form_is_unique(n, d, k, c):
    x = RatFun(n, d)
    # the same value from a scaled fraction with a common factor
    y = RatFun(n * k * QPoly.const(c), d * k * QPoly.const(c))
    assert x == y and hash(x) == hash(y)
    assert (x.num, x.den) == (y.num, y.den)
    assert x.den(0) == 1
    assert x.num.gcd(x.den) == QPoly.const(1) or x.is_zero()
    assert RatFun(x.num, x.den) == x


@SETTINGS
@given(ratfun, ratfun)
def test_valuation_is_additive(x, y):
    vx, vy = x.valuation(), y.valuation()
    assert (x * y).valuation() == vx + vy
    assert (x + y).valuation() >= min(vx, vy)
    if vx != vy:
        assert (x + y).valuation() == min(vx, vy)
    assert vx == INF if x.is_zero() else x.num.coeffs[vx] != 0


@SETTINGS
@given(ratfun, st.integers(1, 6))
def test_series_agrees_with_evaluation_near_zero(x, order):
    s = x.series(order)
    assert s.degree < order
    assert (x - RatFun(s)).valuation() >= order
    # x(t0) - s(t0) = O(t0^order), and the implied constant is far below
    # 10^45 for these coefficient sizes; a wrong coefficient of degree
    # k < order would leave an error of order t0^k instead.
    t0 = Fraction(1, 10 ** 60)
    assert abs(x(t0) - s(t0)) * 10 ** 15 < t0 ** (order - 1)
