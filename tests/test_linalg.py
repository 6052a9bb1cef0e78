import math
import random
from fractions import Fraction

import pytest

from varcom import linalg
from varcom.degeneration import PolyComplex, dvr_decompose, local_at_zero
from varcom.linalg import (Matrix, _int_rows, _int_rref, _kernel_and_pivots,
                           _rref, complete_basis, inverse, kernel_basis,
                           pivot_columns, rank, rref)
from varcom.rings import GF, LOCAL, QQ, QPoly, RatFun
from varcom.strata import GradedDims
from varcom.suites import _random_local_invertible

from adapted_reference import complement_basis


def qmat(rows):
    return Matrix(QQ, len(rows), len(rows[0]) if rows else 0, rows)


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(QQ, 2)) == 2

    def test_zero(self):
        assert rank(Matrix.zeros(QQ, 2, 2)) == 0

    def test_proportional_rows(self):
        assert rank(qmat([[1, 2], [2, 4]])) == 1

    def test_gf_rank(self):
        dom = GF(2)
        m = Matrix(dom, 2, 2, [[1, 1], [1, 1]])
        assert rank(m) == 1

    def test_local_rejected(self):
        m = Matrix(LOCAL, 1, 1, [[RatFun(1)]])
        with pytest.raises(TypeError):
            rank(m)
        with pytest.raises(TypeError):
            kernel_basis(m)

    def test_fractional_entries(self):
        m = qmat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
        assert rank(m) == 2
        assert rank(qmat([[Fraction(1, 2), Fraction(1, 3)],
                          [Fraction(3, 2), 1]])) == 1


class TestKernel:
    def test_single_pivot(self):
        k = kernel_basis(qmat([[1, 0], [0, 0]]))
        assert k.cols == 1
        assert k.column(0) == [Fraction(0), Fraction(1)]

    def test_identity_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(QQ, 3)).cols == 0

    def test_one_equation(self):
        k = kernel_basis(qmat([[1, 1]]))
        assert k.cols == 1
        v = k.column(0)
        # spans (1, -1)^T
        assert v[0] == -v[1] and v[1] != 0

    def test_rank_nullity_random(self):
        rng = random.Random(7)
        for _ in range(60):
            r, c = rng.randint(0, 4), rng.randint(0, 4)
            m = qmat([[Fraction(rng.randint(-3, 3)) for _ in range(c)]
                      for _ in range(r)]) if r else Matrix.zeros(QQ, 0, c)
            assert rank(m) + kernel_basis(m).cols == c
            k = kernel_basis(m)
            for j in range(k.cols):
                assert all(x == 0 for x in m.apply(k.column(j)))


class TestComplement:
    """The greedy complement, which the package no longer has: it survives
    in the tests as the reference for the adapted bases."""

    def test_extend_e1(self):
        sub = Matrix.from_columns(QQ, 2, [[Fraction(1), Fraction(0)]])
        comp = complement_basis(sub, 2)
        assert comp.columns() == [[Fraction(0), Fraction(1)]]

    def test_full_basis_empty_complement(self):
        assert complement_basis(Matrix.identity(QQ, 2), 2).cols == 0

    def test_greedy_picks_first_standard_vector(self):
        sub = Matrix.from_columns(QQ, 2, [[Fraction(1), Fraction(1)]])
        comp = complement_basis(sub, 2)
        assert comp.columns() == [[Fraction(1), Fraction(0)]]

    def test_dependent_input_rejected(self):
        sub = Matrix.from_columns(QQ, 2, [[Fraction(1), Fraction(0)],
                                          [Fraction(2), Fraction(0)]])
        with pytest.raises(ValueError):
            complement_basis(sub, 2)

    @pytest.mark.parametrize("domain", [QQ, GF(5)], ids=str)
    def test_greedy_reference(self, domain):
        """complete_basis and complement_basis against a brute-force greedy
        loop that accepts a candidate iff the rank grows: the chosen
        columns, B B^{-1} = 1, and the rejection of a dependent base and of
        candidates that do not span."""
        rng = random.Random(23)

        def span_rank(dim, cols):
            return rank(Matrix.from_columns(domain, dim, cols)) if cols else 0

        def greedy(dim, base, candidates):
            kept = []
            for col in candidates:
                if span_rank(dim, base + kept + [col]) > span_rank(dim, base + kept):
                    kept.append(col)
            return kept

        def vec(dim):
            # small entries and many zeros, so dependencies are common
            return [domain.coerce(rng.choice([0, 0, 0, 1, -1, 2]))
                    for _ in range(dim)]

        def columns(dim, cols):
            return Matrix.from_columns(domain, dim, cols)

        spanning = short = 0
        for _ in range(60):
            dim = rng.randint(0, 5)
            base = greedy(dim, [], [vec(dim) for _ in range(rng.randint(0, 3))])
            cands = [vec(dim) for _ in range(rng.randint(0, 6))]
            std = [[domain.one if i == j else domain.zero for i in range(dim)]
                   for j in range(dim)]
            sub = columns(dim, base)
            if len(base + greedy(dim, base, cands)) < dim:
                short += 1
                with pytest.raises(ValueError, match="do not complete"):
                    complete_basis(sub, columns(dim, cands))
            else:
                spanning += 1
            B, Binv = complete_basis(sub, columns(dim, cands + std))
            assert B.columns() == base + greedy(dim, base, cands + std)
            assert B @ Binv == Matrix.identity(domain, dim)
            assert complement_basis(sub, dim).columns() == greedy(dim, base, std)
            dependent = [x + y for x, y in zip(base[0], base[-1])] if base else None
            if dependent is not None:
                with pytest.raises(ValueError, match="dependent base"):
                    complete_basis(columns(dim, base + [dependent]),
                                   columns(dim, cands + std))
        assert spanning >= 10 and short >= 10

    @pytest.mark.parametrize("domain", [QQ, GF(5)], ids=str)
    def test_complement_of_kernel_is_pivot_columns(self, domain):
        """The greedy complement of ker M among standard vectors is
        {e_j : j a pivot column of M}, and one rref gives both."""
        rng = random.Random(29)
        for _ in range(80):
            r, c = rng.randint(0, 5), rng.randint(0, 6)
            M = Matrix(domain, r, c, [[rng.choice([0, 0, 0, 1, -1, 2])
                                       for _ in range(c)] for _ in range(r)])
            ker, pivots = _kernel_and_pivots(M)
            assert ker == kernel_basis(M)
            assert pivots == pivot_columns(M)
            std = Matrix.identity(domain, c)
            assert complement_basis(ker, c) == std.submatrix(range(c), pivots)


def local_eval(M, point):
    """A local-ring matrix evaluated at a rational point where no
    denominator vanishes."""
    return M.map_entries(lambda x: x(point), QQ)


def generic_rank(m):
    """Rank over Q(t) of one local-ring matrix, from the block
    decomposition of the one-differential family it is."""
    pc = PolyComplex(GradedDims((m.cols, m.rows)), [m])
    return dvr_decompose(pc).rank_vector().r[0]


class TestLocalElimination:
    def test_local_rank_diag(self):
        t = RatFun(QPoly.t())
        m = Matrix(LOCAL, 2, 2, [[RatFun(1), RatFun(0)], [RatFun(0), t]])
        assert generic_rank(m) == 2

    def test_local_rank_vs_evaluation(self):
        # Clearing row i's denominators leaves polynomials of degree at
        # most e_i = max num degree + sum of den degrees, so a k x k minor
        # has degree at most sum_i e_i.  A minor that is nonzero over Q(t)
        # is nonzero at one of sum_i e_i + 1 points that are no pole, and no
        # minor of larger size is nonzero anywhere: the generic rank is the
        # largest rank at those points.
        rng = random.Random(5)
        deficient = 0
        for _ in range(60):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            grid = []
            for _ in range(r):
                row = []
                for _ in range(c):
                    num = QPoly([Fraction(rng.randint(-2, 2))
                                 for _ in range(rng.randint(0, 3))])
                    den = QPoly([Fraction(rng.choice([1, 2]))]
                                + [Fraction(rng.randint(-1, 1))
                                   for _ in range(rng.randint(0, 2))])
                    row.append(RatFun(num, den))
                grid.append(row)
            m = Matrix(LOCAL, r, c, grid)
            bound = sum(max(max(x.num.degree, 0) for x in row)
                        + sum(x.den.degree for x in row) for row in grid)
            ranks = []
            q = Fraction(0)
            while len(ranks) <= bound:
                q += 1
                if any(x.den(q) == 0 for row in grid for x in row):
                    continue
                ranks.append(rank(local_eval(m, q)))
            generic = generic_rank(m)
            assert generic == max(ranks)
            deficient += generic < min(r, c)
        assert deficient >= 5

    def test_inverse_rejects_local_ring(self):
        t = RatFun(QPoly.t())
        m = Matrix(LOCAL, 2, 2, [[RatFun(1), t], [t, RatFun(1)]])
        with pytest.raises(TypeError, match="dvr_decompose"):
            inverse(m)

    def test_random_local_invertible_pairs(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 4)
            m, minv = _random_local_invertible(rng, n)
            assert m @ minv == Matrix.identity(LOCAL, n)
            assert minv @ m == Matrix.identity(LOCAL, n)

    def test_at_zero(self):
        t = RatFun(QPoly.t())
        m = Matrix(LOCAL, 1, 2, [[RatFun(1) + t, t]])
        assert local_at_zero(m) == qmat([[1, 0]])


class TestMatrixBasics:
    def test_inverse_roundtrip(self):
        m = qmat([[1, 2], [1, 3]])
        assert m @ inverse(m) == Matrix.identity(QQ, 2)

    def test_inverse_singular(self):
        with pytest.raises(ValueError):
            inverse(qmat([[1, 2], [2, 4]]))

    def test_mixed_domain_rejected(self):
        a = Matrix.identity(QQ, 2)
        b = Matrix.identity(GF(3), 2)
        with pytest.raises(TypeError):
            a @ b

    def test_rref_deterministic_pivots(self):
        m = qmat([[0, 1, 2], [0, 2, 4], [1, 0, 1]])
        _, pivots = rref(m)
        assert pivots == [0, 1]


def naive_product(A, B):
    """The textbook triple loop, with no zero skipping."""
    z = A.domain.zero
    grid = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = z
            for k in range(A.cols):
                acc = acc + A[i, k] * B[k, j]
            row.append(acc)
        grid.append(row)
    return Matrix(A.domain, A.rows, B.cols, grid)


def random_entry(domain, rng):
    if domain == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    if domain == LOCAL:
        num = QPoly([Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))])
        return RatFun(num, QPoly([Fraction(1), Fraction(rng.randint(-1, 1))]))
    return domain.coerce(rng.randint(0, 4))


def random_matrix(domain, rng, rows, cols, density):
    return Matrix(domain, rows, cols,
                  [[random_entry(domain, rng) if rng.random() < density
                    else domain.zero for _ in range(cols)]
                   for _ in range(rows)])


DOMAINS = [QQ, GF(5), LOCAL]


class TestMatmul:
    """Matrix.@, apply and is_zero against naive_product."""

    @pytest.mark.parametrize("domain", DOMAINS, ids=str)
    def test_random_sparse_and_dense(self, domain):
        rng = random.Random(41)
        for density in (0.0, 0.15, 0.5, 1.0):
            for _ in range(12):
                r, k, c = (rng.randint(1, 5) for _ in range(3))
                A = random_matrix(domain, rng, r, k, density)
                B = random_matrix(domain, rng, k, c, density)
                assert A @ B == naive_product(A, B)

    @pytest.mark.parametrize("domain", DOMAINS, ids=str)
    def test_zero_rows_and_columns(self, domain):
        rng = random.Random(43)
        for _ in range(15):
            r, k, c = (rng.randint(1, 5) for _ in range(3))
            A = random_matrix(domain, rng, r, k, 0.8)
            B = random_matrix(domain, rng, k, c, 0.8)
            i, kk, j = rng.randrange(r), rng.randrange(k), rng.randrange(c)
            # zero row i and column kk of A, row kk and column j of B
            A = Matrix(domain, r, k, [
                [domain.zero if (a == i or b == kk) else A[a, b]
                 for b in range(k)] for a in range(r)])
            B = Matrix(domain, k, c, [
                [domain.zero if (a == kk or b == j) else B[a, b]
                 for b in range(c)] for a in range(k)])
            P = A @ B
            assert P == naive_product(A, B)
            assert not any(P.entries[i]) and not any(P.column(j))

    @pytest.mark.parametrize("domain", DOMAINS, ids=str)
    def test_empty_shapes(self, domain):
        rng = random.Random(47)
        for r, k, c in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (0, 2, 0)]:
            A = random_matrix(domain, rng, r, k, 1.0)
            B = random_matrix(domain, rng, k, c, 1.0)
            P = A @ B
            assert (P.rows, P.cols) == (r, c)
            assert P == naive_product(A, B) == Matrix.zeros(domain, r, c)

    @pytest.mark.parametrize("domain", DOMAINS, ids=str)
    def test_apply(self, domain):
        rng = random.Random(53)
        for density in (0.0, 0.3, 1.0):
            for _ in range(10):
                r, c = rng.randint(0, 5), rng.randint(0, 5)
                A = random_matrix(domain, rng, r, c, density)
                v = [random_entry(domain, rng) for _ in range(c)]
                want = naive_product(A, Matrix.from_columns(domain, c, [v]))
                assert A.apply(v) == want.column(0)
        with pytest.raises(ValueError, match="shape mismatch"):
            Matrix.zeros(domain, 2, 3).apply([domain.one] * 2)
        with pytest.raises(ValueError, match="shape mismatch"):
            Matrix.zeros(domain, 2, 3).apply([domain.one] * 4)

    @pytest.mark.parametrize("domain", DOMAINS, ids=str)
    def test_is_zero(self, domain):
        for r, c in [(0, 0), (0, 3), (3, 0), (2, 2)]:
            assert Matrix.zeros(domain, r, c).is_zero()
        for i, j in [(0, 0), (1, 2), (2, 1)]:
            grid = [[domain.zero] * 3 for _ in range(3)]
            grid[i][j] = domain.one
            assert not Matrix(domain, 3, 3, grid).is_zero()

    def test_errors(self):
        with pytest.raises(TypeError, match="domain mismatch"):
            Matrix.identity(QQ, 2) @ Matrix.identity(LOCAL, 2)
        with pytest.raises(TypeError, match="domain mismatch"):
            Matrix.identity(GF(5), 2) @ Matrix.identity(GF(3), 2)
        for domain in DOMAINS:
            with pytest.raises(ValueError, match="shape mismatch 2x3 @ 2x3"):
                Matrix.zeros(domain, 2, 3) @ Matrix.zeros(domain, 2, 3)
            with pytest.raises(ValueError, match="shape mismatch"):
                Matrix.zeros(domain, 0, 1) @ Matrix.zeros(domain, 0, 1)


class TestSympyCrossCheck:
    """rank, kernel_basis, rref and inverse over Q against sympy, an
    implementation that shares no code with this package.  Both kernels
    come from the RREF with free coordinates set to 1 in ascending order,
    so the bases agree vector for vector."""

    @staticmethod
    def cases(sympy, seed, square=False):
        """(Matrix, sympy.Matrix) pairs: sparse, large-entry and low-rank."""
        rng = random.Random(seed)

        def entry(kind):
            if kind == "sparse" and rng.random() < 0.7:
                return Fraction(0)
            if kind == "large":
                return Fraction(rng.randint(-10 ** 9, 10 ** 9),
                                rng.randint(1, 10 ** 12))
            return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))

        for trial in range(150):
            kind = ("sparse", "large", "low_rank")[trial % 3]
            r, c = rng.randint(1, 6), rng.randint(1, 7)
            if square:
                c = r
            if kind == "low_rank":
                inner = rng.randint(0, min(r, c) - 1)
                S = (sympy.Matrix(r, inner, lambda *_: sympy.Rational(
                        rng.randint(-4, 4), rng.randint(1, 3)))
                     * sympy.Matrix(inner, c, lambda *_: sympy.Rational(
                        rng.randint(-4, 4), rng.randint(1, 3))))
                grid = [[Fraction(int(S[i, j].p), int(S[i, j].q))
                         for j in range(c)] for i in range(r)]
            else:
                grid = [[entry(kind) for _ in range(c)] for _ in range(r)]
                S = sympy.Matrix(r, c, lambda i, j: sympy.Rational(
                    grid[i][j].numerator, grid[i][j].denominator))
            yield qmat(grid), S

    @staticmethod
    def to_fractions(S):
        return [[Fraction(int(S[i, j].p), int(S[i, j].q))
                 for j in range(S.cols)] for i in range(S.rows)]

    def test_rank_and_kernel(self):
        sympy = pytest.importorskip("sympy")
        for M, S in self.cases(sympy, 59):
            assert rank(M) == S.rank()
            want = [[Fraction(int(x.p), int(x.q)) for x in v]
                    for v in S.nullspace()]
            assert kernel_basis(M).columns() == want

    def test_rref_and_inverse(self):
        sympy = pytest.importorskip("sympy")
        for M, S in self.cases(sympy, 61):
            R, pivots = rref(M)
            SR, spivots = S.rref()
            assert pivots == list(spivots)
            assert [list(row) for row in R.entries] == self.to_fractions(SR)
        invertible = 0
        for M, S in self.cases(sympy, 67, square=True):
            if S.rank() < S.rows:
                with pytest.raises(ValueError, match="singular"):
                    inverse(M)
            else:
                invertible += 1
                assert ([list(row) for row in inverse(M).entries]
                        == self.to_fractions(S.inv()))
        assert invertible > 50


class TestIntegerKernelOracle:
    """The Fraction Gauss-Jordan ``_rref`` (no longer used over Q) as the
    oracle for every Q elimination, which runs on integer rows."""

    @staticmethod
    def ref_rref(M):
        grid = [list(row) for row in M.entries]
        pivots = _rref(grid, M.rows, M.cols)
        return grid, pivots

    @classmethod
    def ref_kernel(cls, M):
        R, pivots = cls.ref_rref(M)
        cols = []
        for f in (j for j in range(M.cols) if j not in pivots):
            v = [Fraction(0)] * M.cols
            v[f] = Fraction(1)
            for k, p in enumerate(pivots):
                v[p] = -R[k][f]
            cols.append(v)
        return cols

    @classmethod
    def ref_inverse(cls, M):
        n = M.rows
        aug = M.hstack(Matrix.identity(QQ, n))
        R, pivots = cls.ref_rref(aug)
        return None if pivots != list(range(n)) else [row[n:] for row in R]

    @staticmethod
    def matrix(rng, rows, cols):
        """Random Q matrix of one of several kinds: small fractions, all-zero
        rows, entries above 2^64, and rank-deficient products."""
        kind = rng.choice(["small", "zero_rows", "huge", "product"])
        if kind == "product" and rows and cols:
            inner = rng.randint(0, min(rows, cols) - 1)
            return (random_matrix(QQ, rng, rows, inner, 0.8)
                    @ random_matrix(QQ, rng, inner, cols, 0.8))

        def entry():
            if rng.random() < 0.3:
                return Fraction(0)
            if kind == "huge":
                big = rng.randint(2 ** 64, 2 ** 100) * rng.choice([1, -1])
                return rng.choice([Fraction(big), Fraction(big, rng.randint(1, 2 ** 70)),
                                   Fraction(rng.randint(-9, 9), 2 ** 65 + 1)])
            return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 10]))

        grid = [[entry() for _ in range(cols)] for _ in range(rows)]
        if kind == "zero_rows":
            for i in range(rows):
                if rng.random() < 0.4:
                    grid[i] = [Fraction(0)] * cols
        return Matrix(QQ, rows, cols, grid)

    def test_against_fraction_kernel(self):
        rng = random.Random(71)
        for trial in range(400):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            if trial % 3 == 0:
                c = r
            M = self.matrix(rng, r, c)
            R_want, piv_want = self.ref_rref(M)
            R, pivots = rref(M)
            assert pivots == piv_want
            assert [list(row) for row in R.entries] == R_want
            assert rank(M) == len(piv_want)
            assert kernel_basis(M).columns() == self.ref_kernel(M)
            if r == c:
                want = self.ref_inverse(M)
                if want is None:
                    with pytest.raises(ValueError, match="singular"):
                        inverse(M)
                else:
                    assert [list(row) for row in inverse(M).entries] == want
            # columns of M as a base, the columns of a second matrix and
            # then the standard vectors as candidates; the base must be
            # independent, so keep only its pivot columns
            base = [M.column(j) for j in piv_want]
            cands = (self.matrix(rng, r, rng.randint(0, 6)).columns()
                     + Matrix.identity(QQ, r).columns())
            grid = [[col[i] for col in base + cands] for i in range(r)]
            piv_all = _rref(grid, r, len(base) + len(cands))
            sub = Matrix.from_columns(QQ, r, base)
            B, Binv = complete_basis(sub, Matrix.from_columns(QQ, r, cands))
            assert B.columns() == [(base + cands)[j] for j in piv_all]
            assert B @ Binv == Matrix.identity(QQ, r)
            assert complement_basis(sub, r).columns() == self.ref_complement(sub)

    @classmethod
    def ref_complement(cls, sub):
        """The standard vectors among the pivot columns of [sub | I]."""
        aug = sub.hstack(Matrix.identity(QQ, sub.rows))
        _, pivots = cls.ref_rref(aug)
        return [aug.column(j) for j in pivots if j >= sub.cols]

    def test_fraction_kernel_unused_over_q(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("Fraction _rref reached over Q")

        monkeypatch.setattr(linalg, "_rref", fail)
        M = qmat([[1, Fraction(1, 2), 3], [2, 1, 6], [0, 0, Fraction(1, 7)]])
        rref(M)
        rank(M)
        pivot_columns(M)
        kernel_basis(M)
        inverse(qmat([[1, 2], [3, 4]]))
        complete_basis(M.submatrix(range(3), [0]), Matrix.identity(QQ, 3))
        _kernel_and_pivots(M)
        with pytest.raises(AssertionError, match="Fraction _rref"):
            rank(Matrix.identity(GF(5), 2))

    def test_rows_stay_primitive(self):
        rng = random.Random(73)
        for _ in range(100):
            M = self.matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            g = _int_rows(M.entries)
            assert all(math.gcd(*row) == 1 for row in g)
            pivots = _int_rref(g, M.cols)
            assert all(math.gcd(*row) == 1 for row in g)
            assert len(g) == len(pivots)
