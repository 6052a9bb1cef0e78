import pytest

from varcom.complexes import (Complex, GradedMap, NotAComplexError,
                              assemble_D_delta, canonical_representative,
                              chart_jacobian_rank, cohomology, morphism_space,
                              nullhomotopic_space, rank_vector,
                              split_canonical, stabilizer_dim, validate)
from varcom.linalg import Matrix
from varcom.rings import QQ
from varcom.strata import GradedDims, RankVector


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
            lhs = c.diffs[1] @ f.component(0)
            rhs = f.component(1) @ c.diffs[0]
            assert (lhs + rhs).is_zero()

    def test_nullhomotopic_dims(self):
        assert len(nullhomotopic_space(Complex.zero(GradedDims((2, 2))))) == 0
        c1 = validate((2, 2), [[[1, 0], [0, 0]]])
        assert len(nullhomotopic_space(c1)) == 3
        c2 = validate((2, 2), [[[1, 0], [0, 1]]])
        assert len(nullhomotopic_space(c2)) == 4

    def test_stabilizer_examples(self):
        c1 = validate((2, 2), [[[1, 0], [0, 0]]])
        assert stabilizer_dim(c1) == 5
        c0 = Complex.zero(GradedDims((2, 2)))
        assert stabilizer_dim(c0) == 8
        c2 = validate((1, 1), [[[1]]])
        assert stabilizer_dim(c2) == 1

    def test_nullhomotopic_members_are_homotopies(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        for f in nullhomotopic_space(c):
            # each basis vector is sD - Ds for some s, hence a morphism
            lhs = c.diffs[1] @ f.component(0)
            rhs = f.component(1) @ c.diffs[0]
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
        assert chart_jacobian_rank(c) == 4      # orbit 3 + normal 1

    def test_maximal_stratum_no_normal_directions(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])   # h = 0
        assert chart_jacobian_rank(c) == len(nullhomotopic_space(c))

    def test_zero_complex_full_hom(self):
        dims = GradedDims((2, 3, 1))
        c = Complex.zero(dims)
        expected = sum(dims[i] * dims[i + 1] for i in range(dims.m))
        assert chart_jacobian_rank(c) == expected


class TestGradedMap:
    def test_conjugate_requires_degree_zero(self):
        dims = GradedDims((1, 1))
        f = GradedMap(dims, 1, [Matrix(QQ, 1, 1, [[1]]), Matrix.zeros(QQ, 0, 1)])
        with pytest.raises(ValueError):
            f.conjugate(Complex.zero(dims))

    def test_identity_conjugation(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        g = GradedMap.identity(c.dims)
        assert g.conjugate(c) == c
