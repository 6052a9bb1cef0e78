import random

import pytest

from varcom.complexes import (Complex, GradedMap, NotAComplexError,
                              assemble_D_delta, canonical_representative,
                              cohomology, morphism_space, nullhomotopic_space,
                              rank_vector, split_canonical, tangent_data,
                              validate)
from varcom import complexes as cx
from varcom.linalg import Matrix, rank
from varcom.rings import GF, QQ
from varcom.strata import GradedDims, RankVector, enumerate_R
from varcom.suites import _random_dims, random_complex

import adapted_reference


class TestValidate:
    def test_valid_three_term(self):
        c = validate((1, 1, 1), [[[1]], [[0]]])
        assert isinstance(c, Complex)

    def test_composite_nonzero(self):
        with pytest.raises(NotAComplexError) as err:
            validate((1, 1, 1), [[[1]], [[1]]])
        assert err.value.degree == 0

    def test_middle_dims(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        assert rank_vector(c).r == (1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            validate((1, 2, 1), [[[1]], [[0, 1]]])


class TestRankVector:
    def test_zero(self):
        c = Complex.zero(GradedDims((2, 3)))
        assert rank_vector(c).r == (0,)

    def test_identity(self):
        c = validate((2, 2), [[[1, 0], [0, 1]]])
        assert rank_vector(c).r == (2,)

    def test_middle(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        assert rank_vector(c).r == (1, 1)


class TestCohomology:
    def test_zero_differential(self):
        c = Complex.zero(GradedDims((3,)))
        coh = cohomology(c)
        assert coh.h == (3,)
        assert coh.lifts[0] == Matrix.identity(QQ, 3)

    def test_acyclic(self):
        c = validate((2, 2), [[[1, 0], [0, 1]]])
        assert cohomology(c).h == (0, 0)

    def test_middle(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        assert cohomology(c).h == (0, 0, 0)

    def test_lift_projection_contracts(self):
        c = validate((2, 2), [[[0, 1], [0, 0]]])
        coh = cohomology(c)
        for i in range(2):
            assert coh.projections[i] @ coh.lifts[i] == \
                Matrix.identity(QQ, coh.h[i])
        assert (c.diffs[0] @ coh.lifts[0]).is_zero()


class TestAdaptedBasesOracle:
    """_adapted_bases, cohomology and split_canonical against the
    brute-force construction in adapted_reference, on a random point of
    every stratum: zero and full-rank differentials, and zero dims."""

    DIMS = ((2, 3, 2), (3, 3), (1, 2, 2, 1), (2, 4, 3, 1), (0, 2, 1),
            (2, 0, 2), (0, 0), (3,))

    @staticmethod
    def invertible(rng, domain, n):
        while True:
            g = Matrix(domain, n, n, [[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(n)])
            if rank(g) == n:
                return g

    @pytest.mark.parametrize("domain", [QQ, GF(5)], ids=str)
    def test_against_reference(self, domain):
        rng = random.Random(41)
        for dims in map(GradedDims, self.DIMS):
            for rv in enumerate_R(dims):
                g = GradedMap(dims, 0, [self.invertible(rng, domain, n)
                                        for n in dims])
                c = g.conjugate(canonical_representative(rv, domain))
                full, B, Binv = adapted_reference.adapted_bases(c)
                assert cx._adapted_bases(c) == (full, B, Binv)
                coh = cohomology(c)
                for i, n in enumerate(dims):
                    h_cols = range(full[i] + full[i + 1], n)
                    assert coh.h[i] == len(h_cols)
                    assert coh.lifts[i] == B[i].submatrix(range(n), h_cols)
                    assert coh.projections[i] == Binv[i].submatrix(h_cols, range(n))
                split, r = split_canonical(c)
                assert split.components == Binv
                assert r == rv


class TestSplitCanonical:
    def test_canonical_input_identity(self):
        rv = RankVector(GradedDims((2, 2)), (1,))
        c = canonical_representative(rv)
        g, r = split_canonical(c)
        assert r == rv
        assert all(gi == Matrix.identity(QQ, 2) for gi in g.components)

    def test_conjugates_to_canonical(self):
        c = validate((2, 2), [[[0, 1], [0, 0]]])
        g, r = split_canonical(c)
        assert r.r == (1,)
        assert g.conjugate(c) == canonical_representative(r)

    def test_zero_complex(self):
        c = Complex.zero(GradedDims((2, 1)))
        g, r = split_canonical(c)
        assert r.r == (0,)
        assert g.conjugate(c) == c


class TestHomSpaces:
    def test_two_term_always_four(self):
        for diffs in ([[[0, 0], [0, 0]]], [[[1, 0], [0, 0]]], [[[1, 0], [0, 1]]]):
            c = validate((2, 2), diffs)
            assert len(morphism_space(c)) == 4

    def test_zero_differential_three_term(self):
        c = Complex.zero(GradedDims((1, 1, 1)))
        assert len(morphism_space(c)) == 2

    def test_one_constraint(self):
        c = validate((1, 1, 1), [[[1]], [[0]]])
        assert len(morphism_space(c)) == 1

    def test_morphism_equation_satisfied(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        for f in morphism_space(c):
            lhs = c.diffs[1] @ f.components[0]
            rhs = f.components[1] @ c.diffs[0]
            assert (lhs + rhs).is_zero()

    def test_nullhomotopic_dims(self):
        assert len(nullhomotopic_space(Complex.zero(GradedDims((2, 2))))) == 0
        c1 = validate((2, 2), [[[1, 0], [0, 0]]])
        assert len(nullhomotopic_space(c1)) == 3
        c2 = validate((2, 2), [[[1, 0], [0, 1]]])
        assert len(nullhomotopic_space(c2)) == 4

    def test_stabilizer_examples(self):
        c1 = validate((2, 2), [[[1, 0], [0, 0]]])
        assert tangent_data(c1).stabilizer == 5
        c0 = Complex.zero(GradedDims((2, 2)))
        assert tangent_data(c0).stabilizer == 8
        c2 = validate((1, 1), [[[1]]])
        assert tangent_data(c2).stabilizer == 1

    def test_nullhomotopic_members_are_homotopies(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        for f in nullhomotopic_space(c):
            # each basis vector is sD - Ds for some s, hence a morphism
            lhs = c.diffs[1] @ f.components[0]
            rhs = f.components[1] @ c.diffs[0]
            assert (lhs + rhs).is_zero()


class TestAssemble:
    def test_zero_delta_keeps_ranks(self):
        c = validate((2, 2), [[[1, 0], [0, 0]]])
        h = cohomology(c).h
        delta = [Matrix.zeros(QQ, h[1], h[0])]
        out = assemble_D_delta(c, delta)
        assert isinstance(out, Complex)
        assert rank_vector(out).r == (1,)

    def test_delta_on_full_cohomology(self):
        c = Complex.zero(GradedDims((1, 1, 1)))
        delta = [Matrix(QQ, 1, 1, [[1]]), Matrix(QQ, 1, 1, [[0]])]
        out = assemble_D_delta(c, delta)
        assert isinstance(out, Complex)
        assert rank_vector(out).r == (1, 0)

    def test_non_square_zero_delta_flagged(self):
        c = Complex.zero(GradedDims((1, 1, 1)))
        delta = [Matrix(QQ, 1, 1, [[1]]), Matrix(QQ, 1, 1, [[1]])]
        out = assemble_D_delta(c, delta)
        assert isinstance(out, GradedMap)
        assert out.degree == 1

    def test_rank_additivity_conjugated(self):
        c = validate((2, 3, 2), [[[1, 0], [0, 0], [0, 0]], [[0, 0, 1], [0, 0, 0]]])
        h = cohomology(c).h
        delta_rv = RankVector(GradedDims(h), (1, 0))
        delta = canonical_representative(delta_rv)
        out = assemble_D_delta(c, list(delta.diffs))
        assert isinstance(out, Complex)
        assert rank_vector(out).r == (2, 1)

    def test_shape_mismatch(self):
        c = validate((2, 2), [[[1, 0], [0, 0]]])
        with pytest.raises(ValueError):
            assemble_D_delta(c, [Matrix.zeros(QQ, 2, 2)])


class TestChartRank:
    def test_rank_one_point(self):
        c = validate((2, 2), [[[1, 0], [0, 0]]])
        assert tangent_data(c).chart == 4      # orbit 3 + normal 1

    def test_maximal_stratum_no_normal_directions(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])   # h = 0
        assert tangent_data(c).chart == len(nullhomotopic_space(c))

    def test_zero_complex_full_hom(self):
        dims = GradedDims((2, 3, 1))
        c = Complex.zero(dims)
        expected = sum(dims[i] * dims[i + 1] for i in range(dims.m))
        assert tangent_data(c).chart == expected


def unit(rows, cols, a, b):
    return Matrix(QQ, rows, cols,
                  [[int((i, j) == (a, b)) for j in range(cols)]
                   for i in range(rows)])


def flatten(maps):
    """Entries of the components of a degree-1 map, row-major in degree
    order."""
    return [x for f in maps for row in f.entries for x in row]


def theta_and_eta(c):
    """Columns of the homotopy map s |-> sD - Ds, one per unit matrix s
    in some degree, and of the chart's normal directions, each the change
    of D_delta when delta is one unit matrix on the cohomology: both built
    from matrix products, not from the coordinate layout of tangent_data."""
    dims, m = c.dims, c.dims.m
    theta = []
    for j in range(m + 1):
        for a in range(dims[j]):
            for b in range(dims[j]):
                s = [unit(n, n, a, b) if k == j else Matrix.zeros(QQ, n, n)
                     for k, n in enumerate(dims)]
                theta.append(flatten([s[i + 1] @ c.diffs[i] - c.diffs[i] @ s[i]
                                      for i in range(m)]))
    h = cohomology(c).h
    eta = []
    for i in range(m):
        for a in range(h[i + 1]):
            for b in range(h[i]):
                delta = [unit(h[k + 1], h[k], a, b) if k == i
                         else Matrix.zeros(QQ, h[k + 1], h[k]) for k in range(m)]
                moved = assemble_D_delta(c, delta)
                eta.append(flatten([moved.diffs[k] - c.diffs[k]
                                    for k in range(m)]))
    return theta, eta


class TestTangentData:
    def test_fields_against_separate_computations(self):
        sympy = pytest.importorskip("sympy")

        def sympy_rank(columns, rows):
            flat = [sympy.Rational(x.numerator, x.denominator)
                    for col in columns for x in col]
            return sympy.Matrix(len(columns), rows, flat).rank()

        rng = random.Random(77)
        normals = 0
        for _ in range(120):
            dims = _random_dims(rng, max_m=3, max_n=3)
            c, rv = random_complex(rng, dims)
            td = tangent_data(c)
            h = rv.cohomology_dims()
            theta, eta = theta_and_eta(c)
            f_total = sum(dims[i] * dims[i + 1] for i in range(dims.m))
            assert td.tangent == len(morphism_space(c))
            assert td.orbit == len(nullhomotopic_space(c))
            assert td.stabilizer == len(theta) - sympy_rank(theta, f_total)
            assert td.normal == sum(h[i] * h[i + 1] for i in range(dims.m))
            assert td.chart == sympy_rank(theta + eta, f_total)
            normals += td.normal > 0
        assert normals >= 30

    def test_canonical_and_zero_points(self):
        c = validate((2, 3, 2), [[[1, 0], [0, 0], [0, 0]], [[0, 0, 1], [0, 0, 0]]])
        assert tangent_data(c) == (9, 7, 10, 2, 9)
        assert tangent_data(Complex.zero(GradedDims((3,)))) == (0, 0, 9, 0, 0)


class TestGradedMap:
    def test_conjugate_requires_degree_zero(self):
        dims = GradedDims((1, 1))
        f = GradedMap(dims, 1, [Matrix(QQ, 1, 1, [[1]]), Matrix.zeros(QQ, 0, 1)])
        with pytest.raises(ValueError):
            f.conjugate(Complex.zero(dims))

    def test_identity_conjugation(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        g = GradedMap(c.dims, 0, [Matrix.identity(QQ, n) for n in c.dims])
        assert g.conjugate(c) == c
