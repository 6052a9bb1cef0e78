"""Brute-force and randomized verification suites.

Three batteries: an exhaustive census of complexes over a small prime
field, a randomized battery over the rationals driving every invariant of
the complexes module, and a randomized battery for degenerations with
plant-and-recover, oracle agreement and invariance checks.  Every suite is
replayable from (seed, parameters) and reports failures with enough data
to reproduce the case.

On the census: the group-orbit description of the strata holds over any
field in the following form.  A bounded complex of finite-dimensional
vector spaces is, by Krull-Schmidt, a direct sum of shifted copies of the
one-term complex k and the two-term complex k --id--> k, so its
isomorphism class is determined by the dimension vector and the ranks of
the differentials.  Hence over F_p the set of differentials with a given
rank vector is exactly one GL-orbit, and the census may legitimately
compare rank classes with orbits of the canonical representatives.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import complexes as cx
from . import degeneration as dg
from . import strata as st
from .linalg import Matrix, inverse, rank
from .rings import GF, LOCAL, QQ, QPoly, RatFun


class SuiteReport(NamedTuple):
    suite: str
    params: dict
    cases: int
    failures: list
    seconds: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
            "seconds": round(self.seconds, 3),
            "passed": self.passed,
        }, indent=2, sort_keys=True)

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)})"
        return (f"[{status}] {self.suite}: {self.cases} cases in "
                f"{self.seconds:.2f}s; params={self.params}")


class CensusBudgetError(ValueError):
    pass


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1


def _gl_generators(n: int, p: int):
    """Transvections plus one primitive scaling generate GL_n(F_p);
    returned as (matrix, inverse) pairs of int grids mod p."""
    gens = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            e = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            einv = [row[:] for row in e]
            e[a][b] = 1
            einv[a][b] = p - 1
            gens.append((e, einv))
    if p > 2 and n > 0:
        g = _primitive_root(p)
        d = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        dinv = [row[:] for row in d]
        d[0][0] = g
        dinv[0][0] = pow(g, p - 2, p)
        gens.append((d, dinv))
    return gens


def _mat_mul_mod(A, B, p):
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    rows, inner, cols = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(inner)) % p
             for j in range(cols)] for i in range(rows)]


def exhaustive_field_census(dims, p: int, budget: int = 10 ** 7) -> SuiteReport:
    """Enumerate every differential over F_p with D^2 = 0 and verify that
    rank vectors land in R, that every element of R is realized, and that
    each rank class is exactly the GL-orbit of the canonical
    representative (orbits grown by closure under group generators)."""
    t0 = time.monotonic()
    dims = dims if isinstance(dims, st.GradedDims) else st.GradedDims(dims)
    m = dims.m
    shapes = [(dims[i + 1], dims[i]) for i in range(m)]
    total_entries = sum(r * c for r, c in shapes)
    if p ** total_entries > budget:
        raise CensusBudgetError(
            f"p^entries = {p}^{total_entries} exceeds the budget {budget}")
    failures = []
    dom = GF(p)

    def to_mats(flat):
        mats = []
        pos = 0
        for r, c in shapes:
            grid = [[flat[pos + i * c + j] for j in range(c)] for i in range(r)]
            mats.append(grid)
            pos += r * c
        return mats

    census = []
    for flat in product(range(p), repeat=total_entries):
        mats = to_mats(flat)
        ok = True
        for i in range(m - 1):
            comp = _mat_mul_mod(mats[i + 1], mats[i], p)
            if any(x % p for row in comp for x in row):
                ok = False
                break
        if ok:
            census.append(tuple(tuple(tuple(r) for r in g) for g in mats))

    R = st.enumerate_R(dims)
    r_set = {rv.r for rv in R}
    by_rank: dict[tuple, set] = {}
    for point in census:
        ranks = []
        for i, (r, c) in enumerate(shapes):
            mat = Matrix(dom, r, c, point[i])
            ranks.append(rank(mat))
        ranks = tuple(ranks)
        if ranks not in r_set:
            failures.append({"check": "rank vector outside R",
                             "point": point, "ranks": ranks})
            continue
        by_rank.setdefault(ranks, set()).add(point)

    for rv in R:
        if rv.r not in by_rank:
            failures.append({"check": "unrealized rank vector", "r": rv.r})

    gens_per_degree = [_gl_generators(dims[i], p) for i in range(m + 1)]

    def act(point, degree, g, ginv):
        mats = [list(list(r) for r in grid) for grid in point]
        if degree <= m - 1:
            mats[degree] = _mat_mul_mod(mats[degree], ginv, p)
        if degree >= 1:
            mats[degree - 1] = _mat_mul_mod(g, mats[degree - 1], p)
        return tuple(tuple(tuple(r) for r in grid) for grid in mats)

    covered = set()
    for rv in R:
        canon = cx.canonical_representative(rv, dom)
        start = tuple(tuple(tuple(x.v for x in row) for row in d.entries)
                      for d in canon.diffs)
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for degree in range(m + 1):
                for g, ginv in gens_per_degree[degree]:
                    nxt = act(cur, degree, g, ginv)
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
        rank_class = by_rank.get(rv.r, set())
        if orbit != rank_class:
            failures.append({
                "check": "orbit differs from rank class", "r": rv.r,
                "orbit_size": len(orbit), "class_size": len(rank_class)})
        if orbit & covered:
            failures.append({"check": "orbits overlap", "r": rv.r})
        covered |= orbit

    if len(covered) != len(census):
        failures.append({"check": "orbits do not cover the census",
                         "covered": len(covered), "census": len(census)})

    return SuiteReport("census", {"dims": dims.n, "p": p},
                       len(census), failures, time.monotonic() - t0)


def _random_dims(rng: random.Random, max_m: int, max_n: int) -> st.GradedDims:
    while True:
        m = rng.randint(1, max_m)
        n = [rng.randint(0, max_n) for _ in range(m + 1)]
        if any(n):
            return st.GradedDims(n)


def _random_unimodular(rng: random.Random, n: int) -> Matrix:
    """Product of unitriangular integer matrices: invertible over Z."""
    low = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    up = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.6:
                low[i][j] = Fraction(rng.randint(-2, 2))
            if i < j and rng.random() < 0.6:
                up[i][j] = Fraction(rng.randint(-2, 2))
    return Matrix(QQ, n, n, low) @ Matrix(QQ, n, n, up)


def random_complex(rng: random.Random, dims: st.GradedDims):
    """A random point of a random stratum: conjugated canonical form."""
    R = st.enumerate_R(dims)
    rv = rng.choice(R)
    canon = cx.canonical_representative(rv)
    g = cx.GradedMap(dims, 0, [_random_unimodular(rng, n) for n in dims])
    return g.conjugate(canon), rv


def random_rational_suite(seed: int, max_m: int = 4, max_n: int = 5,
                          cases: int = 200) -> SuiteReport:
    """Randomized battery over Q for every complexes-module invariant."""
    t0 = time.monotonic()
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        dims = _random_dims(rng, max_m, max_n)
        c, rv = random_complex(rng, dims)

        def fail(check, **extra):
            failures.append({"case": case, "seed": seed, "dims": dims.n,
                             "r": rv.r, "check": check, **extra})

        got_rv = cx.rank_vector(c)
        if got_rv != rv:
            fail("rank vector not conjugation invariant", got=got_rv.r)
            continue
        h = rv.cohomology_dims()
        euler_h = sum((-1) ** i * h[i] for i in range(len(h)))
        euler_n = sum((-1) ** i * dims[i] for i in range(len(h)))
        if euler_h != euler_n:
            fail("euler characteristic mismatch", h=h)

        coh = cx.cohomology(c)
        if tuple(coh.h) != h:
            fail("cohomology dims mismatch", got=coh.h, expected=h)
        for i in range(dims.m + 1):
            proj_lift = coh.projections[i] @ coh.lifts[i]
            if proj_lift != Matrix.identity(QQ, h[i]):
                fail("projection . lift is not the identity", degree=i)
            if i < dims.m and not (c.diffs[i] @ coh.lifts[i]).is_zero():
                fail("cohomology lift not in the kernel", degree=i)

        td = cx.tangent_data(c)
        normal = sum(h[i] * h[i + 1] for i in range(dims.m))
        if td.tangent - td.orbit != normal:
            fail("homotopy identity", tangent=td.tangent, orbit=td.orbit,
                 normal=normal)
        # The first equation holds by construction, the second compares
        # the elimination on a conjugated point with the closed form.
        if (td.orbit != sum(n * n for n in dims) - td.stabilizer
                or td.orbit != st.stratum_dim(rv)):
            fail("orbit identity", orbit=td.orbit, stab=td.stabilizer,
                 stratum_dim=st.stratum_dim(rv))

        g, r2 = cx.split_canonical(c)
        if r2 != rv:
            fail("split rank vector mismatch", got=r2.r)
        if g.conjugate(c) != cx.canonical_representative(rv):
            fail("split conjugation does not reach the canonical form")

        hd = st.GradedDims(h)
        delta_rv = rng.choice(st.enumerate_R(hd))
        delta = cx.canonical_representative(delta_rv)
        assembled = cx.assemble_D_delta(c, list(delta.diffs))
        if not isinstance(assembled, cx.Complex):
            fail("assembled differential with square-zero delta not a complex")
        else:
            expect = tuple(a + b for a, b in zip(rv.r, delta_rv.r))
            if cx.rank_vector(assembled).r != expect:
                fail("assembled rank vector not additive",
                     got=cx.rank_vector(assembled).r, expected=expect)

        if td.chart != td.orbit + normal:
            fail("chart jacobian rank != orbit dim + normal dim")
    return SuiteReport("random", {"seed": seed, "max_m": max_m,
                                  "max_n": max_n},
                       cases, failures, time.monotonic() - t0)


def _random_unit(rng: random.Random) -> RatFun:
    c0 = rng.choice([1, 1, 1, -1, 2])
    c1 = rng.randint(-1, 1)
    return RatFun(QPoly((c0, c1)))


def _random_local_invertible(rng: random.Random, n: int):
    """(M, M^-1) for a product M of unit scalings and polynomial
    transvections, a local-ring matrix invertible at t = 0: M^-1 is the
    product of the inverse factors in reverse order."""
    one, zero = RatFun(1), RatFun(0)
    M = Minv = Matrix.identity(LOCAL, n)
    for _ in range(2 * n):
        a = rng.randrange(n)
        b = rng.randrange(n)
        e = [[one if i == j else zero for j in range(n)] for i in range(n)]
        einv = [row[:] for row in e]
        if a == b:
            u = _random_unit(rng)
            e[a][a], einv[a][a] = u, one / u
        else:
            c = RatFun(QPoly([rng.randint(-2, 2) for _ in range(3)]))
            e[a][b], einv[a][b] = c, -c
        M = M @ Matrix(LOCAL, n, n, e)
        Minv = Matrix(LOCAL, n, n, einv) @ Minv
    return M, Minv


def plant_block_family(rng: random.Random, dims: st.GradedDims,
                       max_exp: int):
    """A canonical block family (t^a entries along the canonical layout)
    conjugated by a random local-ring change of basis.  Returns the family
    and the planted (degree, exponent) multiset."""
    R = st.enumerate_R(dims)
    rho = rng.choice(R)
    full = (0,) + rho.r + (0,)
    planted = []
    diffs = []
    for i in range(dims.m):
        rows, cols = dims[i + 1], dims[i]
        grid = [[RatFun(0)] * cols for _ in range(rows)]
        for k in range(full[i + 1]):
            a = rng.choice([0, 0, 1, 1, 2] if max_exp <= 2
                           else list(range(max_exp + 1)))
            planted.append((i, a))
            grid[k][full[i] + k] = RatFun(QPoly((0,) * a + (1,)))
        diffs.append(Matrix(LOCAL, rows, cols, grid))
    base = dg.PolyComplex(dims, diffs)
    g, ginv = zip(*[_random_local_invertible(rng, n) for n in dims])
    conj = [g[i + 1] @ base.diffs[i] @ ginv[i] for i in range(dims.m)]
    return dg.PolyComplex(dims, conj), tuple(sorted(planted)), rho


def degeneration_suite(seed: int, cases: int = 100, max_m: int = 3,
                       max_n: int = 3, max_exp: int = 4,
                       oracle: bool = True) -> SuiteReport:
    """Randomized battery for the degeneration module: plant-and-recover,
    exact conjugation identity, the limit's label against the planted
    ranks, oracle agreement, and invariance under reparametrization and
    constant conjugation."""
    t0 = time.monotonic()
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        # Large exponents only on small spaces: keeps the truncation
        # oracle's unrolled dimension at desk scale.
        if case % 10 == 5:
            exp_cap, total_cap = max_exp, 4
        else:
            exp_cap, total_cap = 2, 8
        while True:
            dims = _random_dims(rng, max_m, max_n)
            if dims.total() <= total_cap:
                break
        pc, planted, rho = plant_block_family(rng, dims, exp_cap)

        def fail(check, **extra):
            failures.append({"case": case, "seed": seed, "dims": dims.n,
                             "planted": planted, "check": check, **extra})

        dec = dg.dvr_decompose(pc)
        if dec.block_multiset() != planted:
            fail("planted blocks not recovered", got=dec.block_multiset())
            continue

        # g_{i+1} D_i = B_i g_i with every g_j invertible at t = 0 says
        # g D g^-1 = B without inverting g over the local ring.
        singular = [j for j, gj in enumerate(dec.g)
                    if rank(dg.local_at_zero(gj)) != dims[j]]
        if singular:
            fail("g not invertible at t = 0", degree=singular[0])
            continue
        block = dec.block_form()
        for i in range(dims.m):
            if dec.g[i + 1] @ pc.diffs[i] != block[i] @ dec.g[i]:
                fail("conjugation identity fails", degree=i)
                break

        mult = dec.multiplicities()
        limit = dg.limit_complete_complex(pc, dec)
        if limit.ss.ranks[0].r != \
                tuple(mult.get((i, 0), 0) for i in range(dims.m)):
            fail("page-0 ranks differ from exponent-0 multiplicities")
        if limit.reduced != st.is_maximal(dec.rank_vector()):
            fail("reduced flag differs from maximality of the generic ranks")
        if limit.reduced and limit.label.terminal != rho:
            fail("terminal label differs from the planted rank vector")

        if oracle:
            exps = dec.exponents()
            top = exps[-1] if exps else 0
            N = 2 * top + 4
            got = dg.filtered_oracle(pc, N)
            want = dg.page_table_from_multiplicities(dims, mult, len(got) - 2)
            if list(got) != list(want):
                fail("filtered-complex oracle disagrees", N=N)

        reparam = pc.substitute(QPoly((0, 1, 1)))
        dec2 = dg.dvr_decompose(reparam)
        if dec2.block_multiset() != planted:
            fail("multiplicities not reparametrization invariant")
        limit2 = dg.limit_complete_complex(reparam, dec2)
        if limit2.ss != limit.ss or limit2.label != limit.label:
            fail("limit not reparametrization invariant")

        g0 = [_random_unimodular(rng, n) for n in dims]
        g0inv = [inverse(gi) for gi in g0]
        conj_diffs = []
        for i in range(dims.m):
            gl = g0[i + 1].map_entries(RatFun, LOCAL)
            gr = g0inv[i].map_entries(RatFun, LOCAL)
            conj_diffs.append(gl @ pc.diffs[i] @ gr)
        conj_pc = dg.PolyComplex(dims, conj_diffs)
        dec3 = dg.dvr_decompose(conj_pc)
        limit3 = dg.limit_complete_complex(conj_pc, dec3)
        if dec3.block_multiset() != planted:
            fail("multiplicities not invariant under constant conjugation")
        if [p.dims for p in limit3.ss.pages] != [p.dims for p in limit.ss.pages]:
            fail("page dims not invariant under constant conjugation")
        if limit3.label != limit.label or limit3.reduced != limit.reduced:
            fail("label not invariant under constant conjugation")
    return SuiteReport("degeneration",
                       {"seed": seed, "cases": cases, "max_m": max_m,
                        "max_n": max_n, "max_exp": max_exp, "oracle": oracle},
                       cases, failures, time.monotonic() - t0)
