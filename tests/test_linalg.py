import random
from fractions import Fraction

import pytest

from varcom.linalg import (Matrix, complement_basis, extend_columns, inverse,
                           kernel_basis, local_at_zero, local_eval,
                           local_pivot_elimination, local_rank, rank, rref,
                           solve_matrix)
from varcom.rings import GF, LOCAL, QQ, QPoly, RatFun
from varcom.suites import _random_local_invertible


def qmat(rows):
    return Matrix(QQ, len(rows), len(rows[0]) if rows else 0, rows)


def solve(M, b):
    """One-column solve_matrix: a solution of Mx = b as a list, or None."""
    x = solve_matrix(M, Matrix.from_columns(M.domain, M.rows, [b]))
    return None if x is None else x.column(0)


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


class TestSolve:
    def test_identity(self):
        b = [Fraction(3), Fraction(-1)]
        assert solve(Matrix.identity(QQ, 2), b) == b

    def test_inconsistent(self):
        assert solve(Matrix.zeros(QQ, 2, 2), [Fraction(1), Fraction(0)]) is None

    def test_scalar(self):
        assert solve(qmat([[2]]), [Fraction(3)]) == [Fraction(3, 2)]

    def test_solve_then_multiply_random(self):
        rng = random.Random(11)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = qmat([[Fraction(rng.randint(-3, 3)) for _ in range(c)]
                      for _ in range(r)])
            x0 = [Fraction(rng.randint(-2, 2)) for _ in range(c)]
            b = m.apply(x0)
            x = solve(m, b)
            assert x is not None
            assert m.apply(x) == b

    def test_solve_matrix(self):
        m = qmat([[1, 1], [0, 1]])
        b = qmat([[2, 0], [1, 1]])
        x = solve_matrix(m, b)
        assert m @ x == b


class TestComplement:
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
        """extend_columns and complement_basis against a brute-force greedy
        loop that accepts a candidate iff the rank grows."""
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

        for _ in range(60):
            dim = rng.randint(0, 5)
            base = greedy(dim, [], [vec(dim) for _ in range(rng.randint(0, 3))])
            cands = [vec(dim) for _ in range(rng.randint(0, 6))]
            assert extend_columns(domain, dim, base, cands) == greedy(dim, base, cands)
            std = [[domain.one if i == j else domain.zero for i in range(dim)]
                   for j in range(dim)]
            sub = Matrix.from_columns(domain, dim, base)
            assert complement_basis(sub, dim).columns() == greedy(dim, base, std)
            dependent = [x + y for x, y in zip(base[0], base[-1])] if base else None
            if dependent is not None:
                with pytest.raises(ValueError, match="dependent base"):
                    extend_columns(domain, dim, base + [dependent], cands)


class TestLocalElimination:
    def test_local_rank_diag(self):
        t = RatFun(QPoly.t())
        m = Matrix(LOCAL, 2, 2, [[RatFun(1), RatFun(0)], [RatFun(0), t]])
        assert local_rank(m) == 2

    def test_local_rank_vs_evaluation(self):
        # Rank over the function field equals rank of the cleared-denominator
        # matrix at a rational point outside the computed bad set.
        rng = random.Random(5)
        for _ in range(40):
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
            generic = local_rank(m)
            pivots, _ = local_pivot_elimination(m)
            point = None
            for cand in range(1, 50):
                q = Fraction(cand)
                if any(x.den(q) == 0 for row in grid for x in row):
                    continue
                if any(p.num(q) == 0 or p.den(q) == 0 for p in pivots):
                    continue
                point = q
                break
            assert point is not None
            assert rank(local_eval(m, point)) == generic

    def test_local_inverse(self):
        t = RatFun(QPoly.t())
        m = Matrix(LOCAL, 2, 2, [[RatFun(1), t], [t, RatFun(1)]])
        inv = inverse(m)
        assert m @ inv == Matrix.identity(LOCAL, 2)
        assert inv @ m == Matrix.identity(LOCAL, 2)

    def test_local_inverse_rejects_singular_at_zero(self):
        t = RatFun(QPoly.t())
        m = Matrix(LOCAL, 2, 2, [[t, RatFun(0)], [RatFun(0), RatFun(1)]])
        with pytest.raises(ValueError):
            inverse(m)

    def test_local_inverse_random(self):
        rng = random.Random(17)
        t = RatFun(QPoly.t())
        for _ in range(25):
            n = rng.randint(1, 4)
            m = _random_local_invertible(rng, n)
            assert inverse(m) @ m == Matrix.identity(LOCAL, n)
            # Multiplying one row by t makes M(0) singular, while M stays
            # invertible over Q(t).
            k = rng.randrange(n)
            grid = [list(row) for row in m.entries]
            grid[k] = [t * x for x in grid[k]]
            with pytest.raises(ValueError, match="not invertible at t = 0"):
                inverse(Matrix(LOCAL, n, n, grid))

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
