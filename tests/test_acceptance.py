"""Acceptance battery: every release criterion, each as one test printing
one pass/fail line.  All assertions are exact (zero tolerance); the few
runtime bounds are generous wall-clock ceilings for commodity hardware.
"""

import json
import pathlib
import time
from fractions import Fraction
from itertools import product

from varcom import cli, formats
from varcom.complexes import rank_vector
from varcom.degeneration import PolyComplex, dvr_decompose, limit_complete_complex
from varcom.linalg import Matrix
from varcom.rings import LOCAL, QPoly, RatFun
from varcom.spectral import canonical_ss_from_chain, stratum_label
from varcom.strata import (GradedDims, covering_relations, enumerate_chains,
                           enumerate_R, is_maximal, RankVector, stratum_dim)
from varcom.suites import exhaustive_field_census

ROOT = pathlib.Path(__file__).resolve().parents[1]


def all_dims(max_total, max_m):
    for length in range(1, max_m + 2):
        for n in product(range(max_total + 1), repeat=length):
            if 1 <= sum(n) <= max_total:
                yield GradedDims(n)


def test_criterion_01_homotopy_identity(stratum_sample, announce):
    points, seconds = stratum_sample
    ok = (len(points) >= 200 and seconds < 60.0
          and all(p.tangent - p.orbit == p.normal for p in points))
    announce(1, "homotopy identity dim T_D C - dim T_D[D] = sum h_i h_{i+1}", ok)


def test_criterion_02_orbit_identity(stratum_sample, announce):
    # orbit = dim GL - stabilizer holds by construction of tangent_data; the
    # closed-form stratum dimension is an independent value.
    points, _ = stratum_sample
    ok = all(p.orbit == sum(n * n for n in p.c.dims) - p.stab
             and p.orbit == stratum_dim(p.rv) for p in points)
    announce(2, "orbit identity dim T_D[D] = dim GL - dim stabilizer", ok)


def test_criterion_03_maximal_iff_sparse(announce):
    t0 = time.monotonic()
    ok = True
    for dims in all_dims(10, 4):
        R = enumerate_R(dims)
        for rv in R:
            # brute force: no s in R with rv < s
            if is_maximal(rv) == any(rv < s for s in R):
                ok = False
    elapsed = time.monotonic() - t0
    announce(3, f"maximal <=> sparse, exhaustive sum(n)<=10 ({elapsed:.1f}s)",
             ok and elapsed < 60.0)


def test_criterion_04_ranked_poset_and_chain_validity(announce):
    ok = True
    for dims in all_dims(10, 4):
        R = enumerate_R(dims)
        rs = [rv.r for rv in R]
        rset = set(rs)
        lengths = {r: sum(r) for r in rs}
        # covering relations found by brute force must raise length by 1
        for a in rs:
            for b in rs:
                if a == b or not all(x <= y for x, y in zip(a, b)):
                    continue
                has_middle = any(
                    s != a and s != b
                    and all(x <= y for x, y in zip(a, s))
                    and all(x <= y for x, y in zip(s, b))
                    for s in rs)
                if not has_middle and lengths[b] - lengths[a] != 1:
                    ok = False
        # the +e_i description of covers agrees with brute force
        for low, high in covering_relations(dims):
            if high.length() - low.length() != 1 or not (low < high):
                ok = False
        # chain validity: strict increase <=> valid residual rank vector
        for a in R:
            h = GradedDims(a.cohomology_dims())
            for b in R:
                if a < b:
                    try:
                        RankVector(h, tuple(y - x for x, y in zip(a.r, b.r)))
                    except ValueError:
                        ok = False
            for d in enumerate_R(h):
                if d.is_zero():
                    continue
                summed = tuple(x + y for x, y in zip(a.r, d.r))
                if summed not in rset or not (a < RankVector(dims, summed)):
                    ok = False
    announce(4, "ranked poset and chain validity, exhaustive sum(n)<=10", ok)


def test_criterion_05_oracle_agreement(degeneration_report, announce):
    report, seconds = degeneration_report
    oracle_failures = [f for f in report.failures if "oracle" in f["check"]]
    ok = (report.cases >= 100 and report.params["oracle"]
          and not oracle_failures and report.passed and seconds < 300.0)
    announce(5, f"degeneration oracle agreement on {report.cases} families "
                f"({seconds:.1f}s)", ok)


def test_criterion_06_plant_recover_and_invariance(degeneration_report, announce):
    report, _ = degeneration_report
    bad = [f for f in report.failures
           if "recovered" in f["check"] or "invariant" in f["check"]]
    ok = report.cases == 100 and not bad and report.passed
    announce(6, "plant-and-recover + reparametrization/conjugation invariance", ok)


def test_criterion_07_complete_collineation_chain(announce):
    def tpow(k):
        return RatFun(QPoly((Fraction(0),) * k + (Fraction(1),)))

    grid = [[tpow(i) if i == j else RatFun(0) for j in range(4)]
            for i in range(4)]
    pc = PolyComplex(GradedDims((4, 4)), [Matrix(LOCAL, 4, 4, grid)])
    dec = dvr_decompose(pc)
    limit = limit_complete_complex(pc, dec)
    pages = limit.ss.pages
    ok = (dec.block_multiset() == ((0, 0), (0, 1), (0, 2), (0, 3))
          and len(pages) == 5
          and all(rank_vector(pages[nu]).r == (1,) for nu in range(4))
          and pages[-1].dims.n == (0, 0)
          and limit.reduced
          and [e.r for e in limit.label.elements] == [(1,), (2,), (3,)]
          and limit.label.terminal.r == (4,))
    announce(7, "complete-collineation chain diag(1,t,t^2,t^3)", ok)


def test_criterion_08_label_round_trip(announce):
    ok = True
    count = 0
    for dims in all_dims(8, 4):
        for chain in enumerate_chains(dims):
            cc = canonical_ss_from_chain(chain)
            if stratum_label(cc.ss) != chain:
                ok = False
            count += 1
    announce(8, f"label round trip, exhaustive sum(n)<=8 ({count} chains)", ok)


def test_criterion_09_chart_rank(stratum_sample, announce):
    points, _ = stratum_sample
    ok = (len(points) >= 100
          and all(p.chart == p.orbit + p.normal for p in points))
    announce(9, "chart jacobian rank = orbit dim + normal dim", ok)


def test_criterion_10_finite_field_census(announce):
    t0 = time.monotonic()
    ok = True
    for dims in [(1, 1), (1, 1, 1), (1, 2, 1), (2, 2)]:
        for p in (2, 3):
            report = exhaustive_field_census(dims, p)
            if not report.passed:
                ok = False
    elapsed = time.monotonic() - t0
    announce(10, f"finite-field census over F_2 and F_3 ({elapsed:.1f}s)",
             ok and elapsed < 120.0)


def test_criterion_11_cli_contract(tmp_path, capsys, announce):
    ok = True
    families = sorted((ROOT / "demos" / "families").glob("*.json"))
    complexes = sorted((ROOT / "demos" / "complexes").glob("*.json"))
    if not families or not complexes:
        ok = False
    # JSON round trip on every shipped fixture
    for path in complexes:
        c = formats.parse_complex(formats.load_json(str(path)))
        if formats.parse_complex(formats.emit_complex(c)) != c:
            ok = False
    for path in families:
        pc = formats.parse_family(formats.load_json(str(path)))
        if formats.parse_family(formats.emit_family(pc)) != pc:
            ok = False
    # oracle agreement on every shipped family
    for path in families:
        if cli.main(["limit", str(path), "--oracle", "14"]) != 0:
            ok = False
        if "oracle: agree" not in capsys.readouterr().out:
            ok = False
    # exit-code contract: 0 success, 2 input error
    if cli.main(["poset", "--dims", "2,2"]) != 0:
        ok = False
    if cli.main(["poset", "--dims", "nope"]) != 2:
        ok = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [1, 1, 1], "diffs": [[[1]], [[1]]]}))
    if cli.main(["analyze", str(bad)]) != 2:
        ok = False
    capsys.readouterr()
    # the documented codes appear in the README
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    if "exit code" not in readme.lower():
        ok = False
    announce(11, "CLI contract: round trips, exit codes, oracle agreement", ok)
