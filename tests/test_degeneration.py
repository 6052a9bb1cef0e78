import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from varcom import degeneration as dg
from varcom import formats
from varcom.complexes import NotAComplexError, rank_vector, validate
from varcom.degeneration import (Block, DVRDecomposition, InvariantError,
                                 PolyComplex, dvr_decompose,
                                 exponent_rank_table, filtered_oracle,
                                 limit_complete_complex, local_at_zero,
                                 page_table_from_multiplicities,
                                 validate_family)
from varcom.linalg import Matrix, inverse, rank
from varcom.rings import LOCAL, QQ, QPoly, RatFun
from varcom.spectral import normalize
from varcom.strata import GradedDims
from varcom.suites import plant_block_family

import limit_reference

ROOT = pathlib.Path(__file__).resolve().parents[1]
FAMILIES = sorted((ROOT / "demos" / "families").glob("*.json"))

T = RatFun(QPoly.t())
ONE = RatFun(1)
ZERO = RatFun(0)


def tpow(k):
    return RatFun(QPoly((Fraction(0),) * k + (Fraction(1),)))


def lmat(rows, cols, grid):
    return Matrix(LOCAL, rows, cols, grid)


def diag_family(*powers):
    n = len(powers)
    grid = [[tpow(powers[i]) if i == j else ZERO for j in range(n)]
            for i in range(n)]
    return PolyComplex(GradedDims((n, n)), [lmat(n, n, grid)])


def assert_conjugates_to_blocks(pc, dec):
    """g_{i+1} D_i = B_i g_i with every g_j invertible at t = 0, which says
    g D g^-1 = B without inverting g over the local ring."""
    block = dec.block_form()
    for j, gj in enumerate(dec.g):
        assert rank(local_at_zero(gj)) == pc.dims[j]
    for i in range(pc.dims.m):
        assert dec.g[i + 1] @ pc.diffs[i] == block[i] @ dec.g[i]


def middle_family():
    """(t, 0)^T then (0, t) on dims (1, 2, 1)."""
    return PolyComplex(GradedDims((1, 2, 1)),
                       [lmat(2, 1, [[T], [ZERO]]), lmat(1, 2, [[ZERO, T]])])


class TestValidateFamily:
    def test_constant_family(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        pc = PolyComplex.constant(c)
        assert pc.at_zero() == c

    def test_nonzero_composite(self):
        with pytest.raises(NotAComplexError) as err:
            validate_family((1, 1, 1), [[[T]], [[ONE]]])
        assert err.value.degree == 0

    def test_middle_valid(self):
        pc = validate_family((1, 2, 1), [[[T], [ZERO]], [[ZERO, T]]])
        assert pc == middle_family()

    def test_bad_entry_named(self):
        with pytest.raises(ValueError, match=r"entry \(0,0\) of D_0"):
            validate_family((1, 1), [[["not a scalar"]]])

    def test_pole_at_zero_rejected(self):
        with pytest.raises(ValueError, match="pole"):
            RatFun(QPoly((1,)), QPoly.t())


class TestDecompose:
    def test_diag_1_t(self):
        dec = dvr_decompose(diag_family(0, 1))
        assert dec.block_multiset() == ((0, 0), (0, 1))
        assert dec.free == ((), ())

    def test_collineation_chain(self):
        dec = dvr_decompose(diag_family(0, 1, 2, 3))
        assert dec.block_multiset() == ((0, 0), (0, 1), (0, 2), (0, 3))

    def test_disjoint_pivots(self):
        dec = dvr_decompose(middle_family())
        assert dec.block_multiset() == ((0, 1), (1, 1))
        assert dec.free == ((), (), ())

    def test_zero_family_all_free(self):
        pc = PolyComplex(GradedDims((1, 1, 1)),
                         [lmat(1, 1, [[ZERO]]), lmat(1, 1, [[ZERO]])])
        dec = dvr_decompose(pc)
        assert dec.blocks == ()
        assert dec.free == ((0,), (0,), (0,))

    def test_conjugation_identity(self):
        pc = middle_family()
        assert_conjugates_to_blocks(pc, dvr_decompose(pc))

    def test_off_diagonal_mixing(self):
        # a full 2x2 with mixed valuations: pivot order and clearing matter
        pc = PolyComplex(GradedDims((2, 2)),
                         [lmat(2, 2, [[ONE + T, T], [T, T]])])
        dec = dvr_decompose(pc)
        assert sorted(a for (_, a) in dec.block_multiset()) == [0, 1]
        assert_conjugates_to_blocks(pc, dec)

    def test_undetached_block_is_invariant_error(self):
        # D_1 D_0 = 1, built past validation: the first block cannot detach.
        pc = PolyComplex.__new__(PolyComplex)
        pc.dims = GradedDims((1, 1, 1))
        pc.diffs = (lmat(1, 1, [[ONE]]), lmat(1, 1, [[ONE]]))
        with pytest.raises(InvariantError, match="did not detach"):
            dvr_decompose(pc)

    def test_undetached_block_is_invariant_error_under_O(self):
        script = (
            "from varcom.degeneration import InvariantError, PolyComplex, dvr_decompose\n"
            "from varcom.linalg import Matrix\n"
            "from varcom.rings import LOCAL\n"
            "from varcom.strata import GradedDims\n"
            "pc = PolyComplex.__new__(PolyComplex)\n"
            "pc.dims = GradedDims((1, 1, 1))\n"
            "pc.diffs = (Matrix(LOCAL, 1, 1, [[1]]), Matrix(LOCAL, 1, 1, [[1]]))\n"
            "try:\n"
            "    dvr_decompose(pc)\n"
            "except InvariantError:\n"
            "    print('raised')\n")
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert out.returncode == 0, out.stderr
        assert out.stdout == "raised\n"


class TestGenericRank:
    def test_diag(self):
        assert dvr_decompose(diag_family(0, 1)).rank_vector().r == (2,)

    def test_middle(self):
        assert dvr_decompose(middle_family()).rank_vector().r == (1, 1)

    def test_zero(self):
        pc = PolyComplex(GradedDims((2, 2)), [lmat(2, 2, [[ZERO] * 2] * 2)])
        assert dvr_decompose(pc).rank_vector().r == (0,)


class TestLimit:
    def test_diag_1_t(self):
        limit = limit_complete_complex(diag_family(0, 1))
        assert [p.dims.n for p in limit.ss.pages] == [(2, 2), (1, 1), (0, 0)]
        assert [rank_vector(p).r for p in limit.ss.pages] == [(1,), (1,), (0,)]
        assert limit.reduced
        assert [e.r for e in limit.label.elements] == [(1,)]
        assert limit.label.terminal.r == (2,)

    def test_constant_maximal(self):
        c = validate((1, 2, 1), [[[1], [0]], [[0, 1]]])
        limit = limit_complete_complex(PolyComplex.constant(c))
        assert limit.reduced
        assert limit.label.elements == ()
        assert limit.label.terminal.r == (1, 1)
        assert len(limit.ss.pages) == 2

    def test_zero_family_not_reduced(self):
        pc = PolyComplex(GradedDims((1, 1, 1)),
                         [lmat(1, 1, [[ZERO]]), lmat(1, 1, [[ZERO]])])
        limit = limit_complete_complex(pc)
        assert not limit.reduced
        assert limit.label is None

    def test_exponent_gap_compression(self):
        limit = limit_complete_complex(diag_family(1, 3))
        assert [rank_vector(p).r for p in limit.ss.pages] == \
            [(0,), (1,), (1,), (0,)]
        assert limit.reduced
        assert [e.r for e in limit.label.elements] == [(0,), (1,)]
        assert limit.label.terminal.r == (2,)
        normalize(limit.ss)   # compressed limit is genuinely reduced

    def test_limit_is_intrinsic_under_reparametrization(self):
        pc = diag_family(0, 2)
        u = QPoly((Fraction(0), Fraction(1), Fraction(1)))   # t(1+t)
        limit1 = limit_complete_complex(pc)
        limit2 = limit_complete_complex(pc.substitute(u))
        assert limit1.ss == limit2.ss
        assert limit1.label == limit2.label


class TestLimitReference:
    """The limit in block coordinates against the ambient construction of
    limit_reference, page for page, on each family and on its
    reparametrization t -> t + t^2."""

    DIMS = ((2, 2), (3, 3), (1, 2, 1), (2, 3, 2), (2, 2, 2), (1, 2, 2, 1),
            (2, 3, 3, 2))

    @staticmethod
    def check(pc):
        for family in (pc, pc.substitute(QPoly((0, 1, 1)))):
            pages = limit_complete_complex(family).ss.pages
            assert list(pages[:-1]) == limit_reference.limit_pages(family)

    @pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.stem)
    def test_demo_families(self, path):
        self.check(formats.parse_family(formats.load_json(str(path))))

    def test_planted_families(self):
        rng = random.Random(18)
        for k in range(210):
            dims = GradedDims(self.DIMS[k % len(self.DIMS)])
            pc, _, _ = plant_block_family(rng, dims, 4)
            self.check(pc)


def doctored(dec, blocks=None, g=None):
    return DVRDecomposition(dec.dims, dec.g if g is None else g,
                            dec.blocks if blocks is None else blocks, dec.free)


class TestLimitInvariants:
    """Each check of the limit, triggered by a decomposition of diag(1, t)
    doctored through dvr_decompose; each message names its check, so a
    fault caught by a later check does not pass."""

    FAULTS = {
        # the spent block's source moved onto the page basis
        "spent_source": ("basis is nonzero on the source", lambda dec: doctored(
            dec, blocks=(Block(0, 0, 1, 0), Block(0, 1, 0, 1)))),
        # the exponent-0 block dropped: nothing is spent
        "live_count": ("live coordinates number", lambda dec: doctored(
            dec, blocks=dec.blocks[1:])),
        # g scaled by t: the page basis in block coordinates is zero
        "singular": ("basis is singular on its live coordinates", lambda dec: doctored(
            dec, g=[gj.scale(T) for gj in dec.g])),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_raises(self, monkeypatch, fault):
        message, doctor = self.FAULTS[fault]
        decompose = dg.dvr_decompose
        pc = diag_family(0, 1)
        assert decompose(pc).blocks == (Block(0, 0, 0, 0), Block(0, 1, 1, 1))
        monkeypatch.setattr(dg, "dvr_decompose", lambda pc: doctor(decompose(pc)))
        with pytest.raises(InvariantError, match=message):
            limit_complete_complex(pc)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    def test_cli_exit_1(self, flags):
        script = (
            "import sys\n"
            "from varcom import cli, degeneration as dg\n"
            "from varcom.rings import QPoly, RatFun\n"
            "decompose = dg.dvr_decompose\n"
            "def at_t(pc):\n"
            "    dec = decompose(pc)\n"
            "    t = RatFun(QPoly.t())\n"
            "    return dg.DVRDecomposition(\n"
            "        dec.dims, [gj.scale(t) for gj in dec.g], dec.blocks, dec.free)\n"
            "dg.dvr_decompose = at_t\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script, "limit",
             str(ROOT / "demos/families/pencil_1_t.json")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("invariant violated: page 1 basis is singular "
                               "on its live coordinates\n")


class TestOracle:
    def test_diag_1_t(self):
        pc = diag_family(0, 1)
        table = filtered_oracle(pc, 6)
        assert table[0] == ((2, 2), (1,))
        assert table[1] == ((1, 1), (1,))
        dec = dvr_decompose(pc)
        want = page_table_from_multiplicities(pc.dims, dec.multiplicities(),
                                              len(table) - 2)
        assert list(table) == list(want)

    def test_constant_invertible_dies_on_page_zero(self):
        c = validate((2, 2), [[[1, 0], [0, 1]]])
        table = filtered_oracle(PolyComplex.constant(c), 6)
        assert table[0] == ((2, 2), (2,))
        assert all(row == ((0, 0), (0,)) for row in table[1:])

    def test_middle_family(self):
        pc = middle_family()
        table = filtered_oracle(pc, 6)
        assert table[0] == ((1, 2, 1), (0, 0))
        assert table[1] == ((1, 2, 1), (1, 1))
        assert table[2] == ((0, 0, 0), (0, 0))

    def test_gap_table_uncompressed(self):
        pc = diag_family(1, 3)
        table = filtered_oracle(pc, 10)
        ranks = [row[1] for row in table]
        assert ranks[:5] == [(0,), (1,), (0,), (1,), (0,)]
        assert list(table) == list(exponent_rank_table(pc))

    def test_too_small_N_rejected(self):
        with pytest.raises(ValueError):
            filtered_oracle(diag_family(0, 1), 3)


class TestInvariances:
    def test_reparametrization_multiplicities(self):
        pc = middle_family()
        u = QPoly((Fraction(0), Fraction(1), Fraction(1)))
        assert dvr_decompose(pc.substitute(u)).block_multiset() == \
            dvr_decompose(pc).block_multiset()

    def test_constant_conjugation(self):
        pc = diag_family(0, 1)
        g1 = lmat(2, 2, [[ONE, ONE], [ZERO, ONE]])
        g0 = Matrix(QQ, 2, 2, [[1, 0], [2, 1]])
        conj = [g1 @ pc.diffs[0] @ inverse(g0).map_entries(RatFun, LOCAL)]
        pc2 = PolyComplex(pc.dims, conj)
        l1 = limit_complete_complex(pc)
        l2 = limit_complete_complex(pc2)
        assert [p.dims for p in l1.ss.pages] == [p.dims for p in l2.ss.pages]
        assert l1.label == l2.label
        assert l1.reduced == l2.reduced

    def test_planted_random_roundtrip(self):
        rng = random.Random(99)
        for _ in range(25):
            dims = GradedDims([rng.randint(0, 2) for _ in range(rng.randint(2, 4))])
            if dims.total() == 0:
                continue
            pc, planted, rho = plant_block_family(rng, dims, 3)
            dec = dvr_decompose(pc)
            assert dec.block_multiset() == planted
            assert dec.rank_vector() == rho
