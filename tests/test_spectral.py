import pytest

from varcom.complexes import Complex, rank_vector, validate
from varcom.spectral import (SpectralSequence,
                             canonical_ss_from_chain, normalize,
                             stratum_label, validate_reduced)
from varcom.strata import Chain, GradedDims, RankVector, enumerate_chains


def two_page_22():
    """Pages on (2,2): D^0 of rank 1, D^1 of rank 1 on h = (1,1),
    final page (0,0)."""
    e0 = validate((2, 2), [[[1, 0], [0, 0]]])
    e1 = validate((1, 1), [[[1]]])
    e2 = Complex.zero(GradedDims((0, 0)))
    return SpectralSequence([e0, e1, e2])


class TestStructure:
    def test_dims_chain_enforced(self):
        e0 = validate((2, 2), [[[1, 0], [0, 0]]])
        bad = Complex.zero(GradedDims((2, 2)))
        with pytest.raises(ValueError):
            SpectralSequence([e0, bad])

    def test_final_page_must_be_zero(self):
        e0 = validate((2, 2), [[[1, 0], [0, 0]]])
        e1 = validate((1, 1), [[[1]]])
        with pytest.raises(ValueError):
            SpectralSequence([e0, e1])


class TestValidateReduced:
    def test_single_sparse_page(self):
        ss = SpectralSequence([Complex.zero(GradedDims((2, 0, 3)))])
        assert validate_reduced(ss).ok

    def test_interior_zero_differential(self):
        e0 = Complex.zero(GradedDims((1, 1)))
        e1 = Complex.zero(GradedDims((1, 1)))
        e2 = validate((1, 1), [[[1]]])
        e3 = Complex.zero(GradedDims((0, 0)))
        check = validate_reduced(SpectralSequence([e0, e1, e2, e3]))
        assert not check.ok
        assert any("interior differential D^1" in p for p in check.problems)

    def test_two_differentials_reduced_and_strong(self):
        ss = two_page_22()
        assert validate_reduced(ss).ok
        assert validate_reduced(ss, strongly=True).ok

    def test_nonsparse_final_page(self):
        ss = SpectralSequence([Complex.zero(GradedDims((1, 1)))])
        check = validate_reduced(ss)
        assert not check.ok
        assert any("not sparse" in p for p in check.problems)

    def test_strong_needs_nonzero_d0(self):
        e0 = Complex.zero(GradedDims((1, 2, 1)))
        e1 = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        e2 = Complex.zero(GradedDims((0, 0, 0)))
        ss = SpectralSequence([e0, e1, e2])
        assert validate_reduced(ss).ok
        assert not validate_reduced(ss, strongly=True).ok


class TestStratumLabel:
    def test_one_page_maximal(self):
        e0 = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        e1 = Complex.zero(GradedDims((0, 0, 0)))
        label = stratum_label(SpectralSequence([e0, e1]))
        assert label.elements == ()
        assert label.terminal.r == (1, 1)

    def test_cumulative(self):
        label = stratum_label(two_page_22())
        assert [e.r for e in label.elements] == [(1,)]
        assert label.terminal.r == (2,)

    def test_zero_first_differential(self):
        e0 = Complex.zero(GradedDims((1, 2, 1)))
        e1 = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        e2 = Complex.zero(GradedDims((0, 0, 0)))
        label = stratum_label(SpectralSequence([e0, e1, e2]))
        assert [e.r for e in label.elements] == [(0, 0)]
        assert label.terminal.r == (1, 1)

    def test_rejects_non_reduced(self):
        ss = SpectralSequence([Complex.zero(GradedDims((1, 1)))])
        with pytest.raises(ValueError):
            stratum_label(ss)


class TestCanonicalFromChain:
    def test_terminal_only(self):
        dims = GradedDims((1, 2, 1))
        chain = Chain(dims, (), RankVector(dims, (1, 1)))
        cc = canonical_ss_from_chain(chain)
        assert len(cc.pages) == 2
        assert cc.pages[0] == validate((1, 2, 1), [[[1], [0]], [[0, 1]]])

    def test_two_step(self):
        dims = GradedDims((2, 2))
        chain = Chain(dims, (RankVector(dims, (1,)),), RankVector(dims, (2,)))
        cc = canonical_ss_from_chain(chain)
        assert [[int(x) for x in row] for row in cc.pages[0].diffs[0].entries] \
            == [[1, 0], [0, 0]]
        assert cc.pages[1].dims.n == (1, 1)
        assert [[int(x) for x in row] for row in cc.pages[1].diffs[0].entries] \
            == [[1]]

    def test_delta_zero_divisor(self):
        dims = GradedDims((1, 1, 1))
        chain = Chain(dims, (RankVector(dims, (0, 0)),), RankVector(dims, (1, 0)))
        cc = canonical_ss_from_chain(chain)
        assert all(d.is_zero() for d in cc.pages[0].diffs)
        assert rank_vector(cc.pages[1]).r == (1, 0)

    def test_round_trip_small_dims(self):
        for dims in ((1, 1, 1), (1, 2, 1), (2, 2), (2, 1, 2)):
            gd = GradedDims(dims)
            for chain in enumerate_chains(gd):
                cc = canonical_ss_from_chain(chain)
                assert stratum_label(cc.ss) == chain

    def test_incomplete_chain_rejected(self):
        dims = GradedDims((1, 1, 1))
        chain = Chain(dims, (RankVector(dims, (0, 0)),), None)
        with pytest.raises(ValueError):
            canonical_ss_from_chain(chain)


class TestNormalizeEquals:
    def test_idempotent(self):
        cc = normalize(two_page_22())
        again = normalize(cc.ss)
        assert cc == again

    def test_scaling_invariance(self):
        e0 = validate((2, 2), [[[1, 0], [0, 0]]])
        e1 = validate((1, 1), [[[7]]])
        e2 = Complex.zero(GradedDims((0, 0)))
        scaled = SpectralSequence([e0, e1, e2])
        assert normalize(scaled) == normalize(two_page_22())

    def test_affine_keeps_d0(self):
        e0 = validate((2, 2), [[[3, 0], [0, 0]]])
        e1 = validate((1, 1), [[[1]]])
        e2 = Complex.zero(GradedDims((0, 0)))
        cc = normalize(SpectralSequence([e0, e1, e2]), "affine")
        assert cc.pages[0].diffs[0].entries[0][0] == 3
        pcc = normalize(SpectralSequence([e0, e1, e2]), "projective")
        assert pcc.pages[0].diffs[0].entries[0][0] == 1

    def test_projective_rejects_zero_d0(self):
        e0 = Complex.zero(GradedDims((1, 2, 1)))
        e1 = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        e2 = Complex.zero(GradedDims((0, 0, 0)))
        with pytest.raises(ValueError):
            normalize(SpectralSequence([e0, e1, e2]), "projective")

    def test_self_equality(self):
        cc = normalize(two_page_22())
        assert cc == cc

    def test_distinct_chains_differ(self):
        dims = GradedDims((1, 1, 1))
        chains = enumerate_chains(dims)
        built = [canonical_ss_from_chain(c) for c in chains]
        for i in range(len(built)):
            for j in range(len(built)):
                assert (built[i] == built[j]) == (i == j)

    def test_single_page_expansion(self):
        ss = SpectralSequence([Complex.zero(GradedDims((2, 0)))])
        cc = normalize(ss)
        assert len(cc.pages) == 2
        assert cc == normalize(cc.ss)

    def test_variant_mismatch(self):
        cc = normalize(two_page_22(), "affine")
        with pytest.raises(ValueError):
            normalize(cc, "projective")


class TestLabelDecomposition:
    def test_sample_labels_land_in_enumerated_chains(self):
        # labels of reduced spectral sequences decompose the space: every
        # label produced lies in the enumerated chain set, and distinct
        # labels give unequal complete complexes
        import random
        from varcom.degeneration import limit_complete_complex
        from varcom.suites import plant_block_family

        rng = random.Random(17)
        for _ in range(40):
            dims = GradedDims([rng.randint(0, 2) for _ in range(rng.randint(2, 4))])
            if dims.total() == 0:
                continue
            pc, _, _ = plant_block_family(rng, dims, 2)
            limit = limit_complete_complex(pc)
            if not limit.reduced:
                continue
            assert limit.label in enumerate_chains(dims)


class TestPageInvariants:
    def test_euler_and_shrinking(self):
        for dims in ((1, 2, 1), (2, 2), (2, 1, 2)):
            gd = GradedDims(dims)
            for chain in enumerate_chains(gd):
                cc = canonical_ss_from_chain(chain)
                pages = cc.pages
                for nu in range(len(pages) - 1):
                    e_now = sum((-1) ** i * pages[nu].dims[i]
                                for i in range(len(pages[nu].dims)))
                    e_next = sum((-1) ** i * pages[nu + 1].dims[i]
                                 for i in range(len(pages[nu + 1].dims)))
                    assert e_now == e_next
                    if not all(d.is_zero() for d in pages[nu].diffs):
                        assert pages[nu + 1].dims.total() < pages[nu].dims.total()
                assert len(pages) <= pages[0].dims.total() + 2
