import random

import pytest

from varcom import degeneration as dg
from varcom.degeneration import dvr_decompose
from varcom.rings import QPoly, RatFun
from varcom.strata import GradedDims
from varcom.suites import (CensusBudgetError, degeneration_suite,
                           exhaustive_field_census, plant_block_family,
                           random_rational_suite)


class TestCensus:
    def test_111_over_f2(self):
        report = exhaustive_field_census((1, 1, 1), 2)
        assert report.passed
        # C(V)(F_2) = {(a, b) : ab = 0}: three points
        assert report.cases == 3

    def test_11_over_f2(self):
        report = exhaustive_field_census((1, 1), 2)
        assert report.passed
        assert report.cases == 2

    def test_121_over_f2(self):
        report = exhaustive_field_census((1, 2, 1), 2)
        assert report.passed

    def test_22_over_f3(self):
        report = exhaustive_field_census((2, 2), 3)
        assert report.passed
        assert report.cases == 3 ** 4

    def test_budget_guard(self):
        with pytest.raises(CensusBudgetError):
            exhaustive_field_census((3, 3, 3), 5)

    def test_deterministic(self):
        a = exhaustive_field_census((1, 2, 1), 2)
        b = exhaustive_field_census((1, 2, 1), 2)
        assert (a.cases, a.failures) == (b.cases, b.failures)


class TestRandomSuite:
    def test_passes(self):
        report = random_rational_suite(seed=1, max_m=3, max_n=3, cases=40)
        assert report.passed, report.failures[:3]

    def test_degenerate_dims_included(self):
        # zero entries in the dims vector are legal and exercised
        report = random_rational_suite(seed=3, max_m=2, max_n=1, cases=30)
        assert report.passed, report.failures[:3]

    def test_replayable(self):
        a = random_rational_suite(seed=5, max_m=3, max_n=3, cases=15)
        b = random_rational_suite(seed=5, max_m=3, max_n=3, cases=15)
        assert a.failures == b.failures and a.cases == b.cases

    def test_report_json(self):
        report = random_rational_suite(seed=5, max_m=2, max_n=2, cases=5)
        assert '"passed": true' in report.to_json()


class TestDegenerationSuite:
    def test_passes(self):
        report = degeneration_suite(seed=1, cases=12)
        assert report.passed, report.failures[:3]

    @staticmethod
    def change_g(monkeypatch, change):
        """The suite's dvr_decompose returns change(g) as its g."""
        decompose = dg.dvr_decompose

        def changed(pc):
            dec = decompose(pc)
            return dg.DVRDecomposition(dec.dims, change(list(dec.g)),
                                       dec.blocks, dec.free)

        monkeypatch.setattr(dg, "dvr_decompose", changed)

    def test_reports_g_singular_at_zero(self, monkeypatch):
        # t g still satisfies (t g) D = B (t g), but vanishes at t = 0.
        t = RatFun(QPoly.t())
        self.change_g(monkeypatch, lambda g: [gj.scale(t) for gj in g])
        report = degeneration_suite(seed=1, cases=12)
        assert len(report.failures) == 12
        assert {f["check"] for f in report.failures} == \
            {"g not invertible at t = 0"}

    def test_reports_conjugation_failure(self, monkeypatch):
        # (1 + t) g_m is still invertible at 0, but (1 + t) g_m D_{m-1} !=
        # B_{m-1} g_{m-1} wherever the last differential has a block.
        unit = RatFun(QPoly((1, 1)))
        self.change_g(monkeypatch, lambda g: g[:-1] + [g[-1].scale(unit)])
        report = degeneration_suite(seed=1, cases=12)
        assert {f["check"] for f in report.failures} == \
            {"conjugation identity fails"}
        assert all(f["degree"] == len(f["dims"]) - 2 for f in report.failures)
        assert any(f["degree"] > 0 for f in report.failures)

    def test_replayable(self):
        a = degeneration_suite(seed=2, cases=6)
        b = degeneration_suite(seed=2, cases=6)
        assert a.failures == b.failures

    def test_planted_specific(self):
        # blocks {(0,0), (0,2)} on dims (2,2) recovered exactly
        rng = random.Random(0)
        dims = GradedDims((2, 2))
        for _ in range(20):
            pc, planted, _ = plant_block_family(rng, dims, 2)
            assert dvr_decompose(pc).block_multiset() == planted
        seen = set()
        for _ in range(200):
            pc, planted, _ = plant_block_family(rng, dims, 2)
            seen.add(planted)
            if planted == ((0, 0), (0, 2)):
                assert dvr_decompose(pc).block_multiset() == planted
                break
        else:
            pytest.fail(f"never sampled the ((0,0),(0,2)) plant; saw {seen}")
