import time

import pytest

import random

from varcom import tangent_data
from varcom.suites import _random_dims, degeneration_suite, random_complex


class SamplePoint:
    def __init__(self, c, rv, tangent, orbit, stab, normal, chart):
        self.c = c
        self.rv = rv
        self.tangent = tangent
        self.orbit = orbit
        self.stab = stab
        self.normal = normal
        self.chart = chart


@pytest.fixture(scope="session")
def stratum_sample():
    """200 random stratum points with m <= 4, n_i <= 5, with their tangent,
    orbit, stabilizer and chart data precomputed; shared by the acceptance
    criteria that run over one common sample."""
    rng = random.Random(20240)
    t0 = time.monotonic()
    points = []
    for _ in range(200):
        dims = _random_dims(rng, max_m=4, max_n=5)
        c, rv = random_complex(rng, dims)
        h = rv.cohomology_dims()
        td = tangent_data(c)
        points.append(SamplePoint(
            c, rv,
            tangent=td.tangent,
            orbit=td.orbit,
            stab=td.stabilizer,
            normal=sum(h[i] * h[i + 1] for i in range(dims.m)),
            chart=td.chart))
    return points, time.monotonic() - t0


@pytest.fixture(scope="session")
def degeneration_report():
    t0 = time.monotonic()
    report = degeneration_suite(seed=20240, cases=100, oracle=True)
    return report, time.monotonic() - t0


@pytest.fixture
def announce(capsys):
    """Print one visible pass/fail line per acceptance criterion, even when
    pytest captures output."""
    def _announce(number, name, ok):
        with capsys.disabled():
            print(f"acceptance {number:>2} {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} ({name}) failed"
    return _announce
