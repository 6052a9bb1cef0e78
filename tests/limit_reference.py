"""The ambient construction of the limit's page differentials, kept as the
oracle for ``degeneration.limit_complete_complex``.

Everything happens in the original basis x.  Per active exponent a: the
exponent-a block map conjugated back through g(0)^-1, the lifts of the page
basis and of every boundary hit so far, and the page differential read off
one rref of [lifts | boundaries | value].  The package reads the same
differential in block coordinates y = g(0) x, with no inverse of g(0), no
boundaries and no augmented solve.
"""

from varcom.complexes import Complex
from varcom.degeneration import dvr_decompose, local_at_zero
from varcom.linalg import Matrix, inverse, rref
from varcom.rings import QQ
from varcom.strata import GradedDims

import adapted_reference


def solve(basis: Matrix, value: Matrix) -> Matrix:
    """The unique X with basis @ X = value, from one rref of
    [basis | value]; the columns of basis must be independent."""
    R, pivots = rref(basis.hstack(value))
    assert pivots == list(range(basis.cols)), "no unique solution"
    return R.submatrix(range(basis.cols),
                       range(basis.cols, basis.cols + value.cols))


def limit_pages(pc, dec=None) -> list:
    """Pages E_0 .. E_L of the limit, without the final zero page."""
    dec = dec or dvr_decompose(pc)
    dims = pc.dims
    m = dims.m
    G = [local_at_zero(gj) for gj in dec.g]
    Ginv = [inverse(Gj) for Gj in G]

    def exponent_map(a):
        """The exponent-a block map in the original basis."""
        out = []
        for i in range(m):
            grid = [[QQ.zero] * dims[i] for _ in range(dims[i + 1])]
            for b in dec.blocks:
                if b.degree == i and b.exponent == a:
                    grid[b.target][b.source] = QQ.one
            E = Matrix(QQ, dims[i + 1], dims[i], grid)
            out.append(Ginv[i + 1] @ E @ G[i])
        return out

    lifts = [Matrix.identity(QQ, n) for n in dims]
    bnds = [Matrix.zeros(QQ, n, 0) for n in dims]
    pages = [Complex(dims, [local_at_zero(d) for d in pc.diffs])]
    for a in [a for a in dec.exponents() if a >= 1]:
        page = pages[-1]
        full, B, _ = adapted_reference.adapted_bases(page)
        n = page.dims
        images = [B[i].submatrix(range(n[i]), range(full[i]))
                  for i in range(m + 1)]
        h_lifts = [B[i].submatrix(range(n[i]), range(full[i] + full[i + 1], n[i]))
                   for i in range(m + 1)]
        bnds = [bnd.hstack(lift @ im)
                for bnd, lift, im in zip(bnds, lifts, images)]
        lifts = [lift @ hl for lift, hl in zip(lifts, h_lifts)]
        amb = exponent_map(a)
        h = [lift.cols for lift in lifts]
        diffs = [solve(lifts[i + 1].hstack(bnds[i + 1]), amb[i] @ lifts[i])
                 .submatrix(range(h[i + 1]), range(h[i])) for i in range(m)]
        pages.append(Complex(GradedDims(h), diffs))
    return pages
