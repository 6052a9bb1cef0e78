import ast
import pathlib
import re
from itertools import product

import pytest

from varcom.complexes import (Complex, canonical_representative, rank_vector,
                              tangent_data)
from varcom.strata import (Chain, GradedDims, RankVector, covering_relations,
                           enumerate_R, enumerate_chains, hasse_dot,
                           is_maximal, maximal_elements, stratum_dim)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "varcom"


def brute_maximal(rv):
    """Poset-theoretic maximality by a scan over all of R."""
    return not any(rv < s for s in enumerate_R(rv.dims))


def dense_stratum_dim(rv):
    """dim GL minus the stabilizer rank of the canonical representative."""
    return (sum(n * n for n in rv.dims)
            - tangent_data(canonical_representative(rv)).stabilizer)


class TestEnumerateR:
    def test_three_ones(self):
        R = enumerate_R(GradedDims((1, 1, 1)))
        assert {rv.r for rv in R} == {(0, 0), (1, 0), (0, 1)}
        assert [rv.r for rv in R] == sorted(rv.r for rv in R)

    def test_single_degree(self):
        R = enumerate_R(GradedDims((1,)))
        assert [rv.r for rv in R] == [()]

    def test_middle_two(self):
        R = enumerate_R(GradedDims((1, 2, 1)))
        assert {rv.r for rv in R} == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_zero_always_present(self):
        for dims in ((2, 2), (3, 1, 2), (1, 0, 1)):
            R = enumerate_R(GradedDims(dims))
            assert any(rv.is_zero() for rv in R)

    def test_invalid_vector_rejected(self):
        with pytest.raises(ValueError):
            RankVector(GradedDims((1, 1, 1)), (1, 1))


class TestOrderAndMeet:
    def test_leq(self):
        dims = GradedDims((1, 2, 1))
        assert RankVector(dims, (0, 1)).leq(RankVector(dims, (1, 1)))

    def test_context_mismatch(self):
        a = RankVector(GradedDims((1, 1)), (1,))
        b = RankVector(GradedDims((2, 2)), (1,))
        with pytest.raises(ValueError):
            a.leq(b)


class TestMaximalSparse:
    def test_examples(self):
        dims = GradedDims((1, 1, 1))
        r10 = RankVector(dims, (1, 0))
        assert r10.cohomology_dims() == (0, 0, 1)
        assert is_maximal(r10) and brute_maximal(r10)
        r00 = RankVector(dims, (0, 0))
        assert not is_maximal(r00) and not brute_maximal(r00)
        r11 = RankVector(GradedDims((1, 2, 1)), (1, 1))
        assert r11.cohomology_dims() == (0, 0, 0)
        assert is_maximal(r11) and brute_maximal(r11)

    def test_maximal_elements(self):
        for dims in ((1, 2, 1), (2, 2, 2), (3, 2, 3), (1, 0, 1)):
            R = enumerate_R(GradedDims(dims))
            assert (maximal_elements(GradedDims(dims))
                    == [rv for rv in R if brute_maximal(rv)])

    def test_cohomology_dims_more(self):
        assert RankVector(GradedDims((2, 2)), (1,)).cohomology_dims() == (1, 1)
        assert RankVector(GradedDims((2, 2)), (2,)).cohomology_dims() == (0, 0)
        assert RankVector(GradedDims((3,)), ()).cohomology_dims() == (3,)


class TestCanonicalRepresentative:
    def test_zero(self):
        rv = RankVector(GradedDims((2, 2)), (0,))
        assert canonical_representative(rv) == Complex.zero(rv.dims)

    def test_single_block(self):
        rv = RankVector(GradedDims((2, 2)), (1,))
        c = canonical_representative(rv)
        assert [[int(x) for x in row] for row in c.diffs[0].entries] == \
            [[1, 0], [0, 0]]

    def test_offset_blocks(self):
        rv = RankVector(GradedDims((1, 2, 1)), (1, 1))
        c = canonical_representative(rv)
        assert [[int(x) for x in row] for row in c.diffs[0].entries] == [[1], [0]]
        assert [[int(x) for x in row] for row in c.diffs[1].entries] == [[0, 1]]

    def test_rank_vector_roundtrip_exhaustive_small(self):
        for dims in ((2, 2), (1, 2, 1), (2, 1, 2), (1, 1, 1, 1)):
            gd = GradedDims(dims)
            for rv in enumerate_R(gd):
                assert rank_vector(canonical_representative(rv)) == rv


class TestStratumDim:
    def test_origin(self):
        assert stratum_dim(RankVector(GradedDims((2, 2)), (0,))) == 0

    def test_rank_one_matrices(self):
        assert stratum_dim(RankVector(GradedDims((2, 2)), (1,))) == 3

    def test_open_orbit(self):
        assert stratum_dim(RankVector(GradedDims((2, 2)), (2,))) == 4

    def test_positive_off_origin(self):
        for dims in ((2, 2), (1, 2, 1)):
            gd = GradedDims(dims)
            for rv in enumerate_R(gd):
                if rv.is_zero():
                    assert stratum_dim(rv) == 0
                else:
                    assert stratum_dim(rv) >= 1

    def test_matches_stabilizer_exhaustive(self):
        # every rank vector with sum(n) <= 7 and m <= 4
        count = 0
        for length in range(1, 6):
            for n in product(range(8), repeat=length):
                if not 1 <= sum(n) <= 7:
                    continue
                for rv in enumerate_R(GradedDims(n)):
                    assert stratum_dim(rv) == dense_stratum_dim(rv), rv
                    count += 1
        assert count == 3829


class TestChains:
    def test_affine_chains_111(self):
        chains = enumerate_chains(GradedDims((1, 1, 1)))
        got = {(tuple(e.r for e in c.elements), c.terminal.r) for c in chains}
        assert got == {
            ((), (1, 0)), ((), (0, 1)),
            (((0, 0),), (1, 0)), (((0, 0),), (0, 1)),
        }

    def test_single_degree_only_empty_chain(self):
        chains = enumerate_chains(GradedDims((1,)))
        assert len(chains) == 1
        assert chains[0].elements == ()
        assert chains[0].terminal.r == ()

    def test_projective_excludes_zero_start(self):
        chains = enumerate_chains(GradedDims((1, 1, 1)), projective=True)
        got = {(tuple(e.r for e in c.elements), c.terminal.r) for c in chains}
        assert got == {((), (1, 0)), ((), (0, 1))}

    def test_chain_validation(self):
        dims = GradedDims((1, 1, 1))
        zero = RankVector(dims, (0, 0))
        top = RankVector(dims, (1, 0))
        with pytest.raises(ValueError):
            Chain(dims, (top,), None)          # maximal element not terminal
        with pytest.raises(ValueError):
            Chain(dims, (zero,), zero)         # terminal must be maximal
        Chain(dims, (zero,), top)              # fine

    def test_chain_difference_is_valid_rank_vector(self):
        # strict increase in R <=> difference valid on the cohomology dims
        for dims in ((1, 2, 1), (2, 2, 2), (1, 1, 1, 1)):
            gd = GradedDims(dims)
            R = enumerate_R(gd)
            for a in R:
                h = GradedDims(a.cohomology_dims())
                for b in R:
                    if a < b:
                        diff = tuple(y - x for x, y in zip(a.r, b.r))
                        RankVector(h, diff)     # must not raise
                for diff_rv in enumerate_R(h):
                    if not diff_rv.is_zero():
                        summed = tuple(x + y for x, y in zip(a.r, diff_rv.r))
                        back = RankVector(gd, summed)
                        assert a < back


class TestCoveringsAndDot:
    def test_ranked_small(self):
        for dims in ((1, 1, 1), (1, 2, 1), (2, 2, 2)):
            for low, high in covering_relations(GradedDims(dims)):
                assert high.length() == low.length() + 1

    def test_dot_counts(self):
        d = hasse_dot(GradedDims((1, 1, 1)))
        assert len(re.findall(r"label=", d)) == 3
        assert len(re.findall(r"->", d)) == 2
        d1 = hasse_dot(GradedDims((1,)))
        assert len(re.findall(r"label=", d1)) == 1
        assert "->" not in d1.replace("rankdir", "")
        d2 = hasse_dot(GradedDims((1, 2, 1)))
        assert len(re.findall(r"label=", d2)) == 4
        assert len(re.findall(r"->", d2)) == 4

    def test_maximal_marked_as_boxes(self):
        d = hasse_dot(GradedDims((1, 2, 1)))
        assert d.count("shape=box") == len(maximal_elements(GradedDims((1, 2, 1))))


class TestLayering:
    @staticmethod
    def tree(name):
        return ast.parse((SRC / name).read_text(encoding="utf-8"))

    def test_strata_imports_nothing_from_the_package(self):
        for node in ast.walk(self.tree("strata.py")):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module != "varcom", \
                    f"line {node.lineno}"
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "varcom"
                           for a in node.names), f"line {node.lineno}"

    def test_linalg_works_over_fields_only(self):
        # The local ring's one elimination is degeneration.dvr_decompose.
        from_rings = set()
        for node in ast.walk(self.tree("linalg.py")):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                assert not names & {"LOCAL", "RatFun", "rings"}, \
                    f"line {node.lineno}"
                if (node.module or "").split(".")[-1] == "rings":
                    from_rings |= names
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[-1] != "rings"
                           for a in node.names), f"line {node.lineno}"
        assert from_rings == {"QQ", "Domain"}

    @pytest.mark.parametrize("name", ["strata.py", "spectral.py"])
    def test_no_function_local_imports(self, name):
        for fn in ast.walk(self.tree(name)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.Import, ast.ImportFrom)), \
                        f"{name}:{node.lineno} imports inside {fn.name}"
