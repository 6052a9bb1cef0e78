"""Limits of one-parameter families of complexes.

A family D(t), regular at t = 0 with D(t)^2 = 0, degenerates as t -> 0.
Its limit is more than D(0): the vanishing orders of the differential
carry higher corrections, one spectral-sequence page per t-power.  The
machinery below splits the family into elementary blocks R --t^a--> R
over the local ring at 0 (an exact Smith-type decomposition), reads the
pages off the block exponents, and labels the boundary stratum of the
compactification the limit lands in.

The chain of kernels and cokernels of A_0 = A(0), A_1, A_2, ... for a
family of square matrices is the classical complete-collineation picture;
it is reproduced here as the special case of a two-term complex.
"""

from fractions import Fraction

from varcom import (GradedDims, LOCAL, Matrix, QPoly, RatFun, dvr_decompose,
                    exponent_rank_table, filtered_oracle,
                    limit_complete_complex)
from varcom.degeneration import PolyComplex


def tpow(k):
    return RatFun(QPoly((Fraction(0),) * k + (Fraction(1),)))


def show(pc, name, oracle_N=None):
    print(f"\n=== {name}")
    dec = dvr_decompose(pc)
    print(f"elementary blocks (degree, t-exponent): {dec.block_multiset()}")
    limit = limit_complete_complex(pc, dec)
    for nu, (page, rv) in enumerate(zip(limit.ss.pages, limit.ss.ranks)):
        print(f"  page {nu}: dims {page.dims.n} ranks {rv.r}")
    if limit.label is not None:
        print(f"  stratum label: {[e.r for e in limit.label.elements]} "
              f"-> {limit.label.terminal.r}")
    print(f"  reduced: {limit.reduced}")
    if oracle_N:
        table = filtered_oracle(pc, oracle_N)
        agree = list(table) == list(
            exponent_rank_table(pc, dec))[:len(table)] and \
            len(table) >= len(exponent_rank_table(pc, dec))
        print(f"  independent filtered-complex oracle (N={oracle_N}): "
              f"{'agree' if agree else 'DISAGREE'}")
    return limit


# the complete-collineation chain: diag(1, t, t^2, t^3)
grid = [[tpow(i) if i == j else RatFun(0) for j in range(4)] for i in range(4)]
chain = PolyComplex(GradedDims((4, 4)), [Matrix(LOCAL, 4, 4, grid)])
show(chain, "diag(1, t, t^2, t^3) on dims (4, 4)", oracle_N=10)

# a three-term family degenerating in the middle
t = tpow(1)
z = RatFun(0)
middle = PolyComplex(GradedDims((1, 2, 1)),
                     [Matrix(LOCAL, 2, 1, [[t], [z]]),
                      Matrix(LOCAL, 1, 2, [[z, t]])])
show(middle, "(t, 0)^T then (0, t) on dims (1, 2, 1)", oracle_N=8)

# a gap in the exponents: pages compress, the boundary label records the
# divisor of the origin blowup followed by the rank-1 wall
gap = PolyComplex(GradedDims((2, 2)),
                  [Matrix(LOCAL, 2, 2, [[t, z], [z, tpow(3)]])])
show(gap, "diag(t, t^3): exponent gap", oracle_N=12)

# reparametrizing t does not move the limit point
u = QPoly((Fraction(0), Fraction(1), Fraction(1)))      # t(1 + t)
l1 = limit_complete_complex(gap)
l2 = limit_complete_complex(gap.substitute(u))
assert l1.ss == l2.ss and l1.label == l2.label
print("\nreparametrization t -> t(1+t) leaves the limit unchanged: OK")
