"""Seeded inputs for the varcom benchmark, with their answers known by
construction.

Nothing here imports varcom: every input is built from a planted normal
form with plain Fractions, so the expected answers do not depend on the
code under test.

* Families (``oracle``, ``decompose``): the block form t^a on the canonical
  layout of a planted rank vector, conjugated by a product g of elementary
  matrices over Q[t] (transvections I + c(t) e_ab and one constant
  scaling).  Each factor has a closed-form inverse, so D = g B g^-1 is
  computed exactly and stays polynomial.
* Complexes (``analyze``): the canonical representative of a planted rank
  vector, conjugated by unimodular integer matrices (products of
  unitriangular ones, inverted in closed form).
* Dimension vectors (``strata``): one fixed size class, in seeded order.

Regenerate the documents of one run with

    python3 benchmarks/gen.py --workload decompose --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from itertools import product

# --------------------------------------------------------------------------
# Workload make-up.  Every operation of a workload has the same kind and
# size class.  The planted structure of case k is fixed, so that every
# seed gives a batch of the same cost; the seed draws the conjugations.

ORACLE_N = 8
ORACLE_DIMS = (2, 2, 2)
ORACLE_RANKS = (1, 1)
ORACLE_TOP = (ORACLE_N - 4) // 2        # the oracle needs N >= 2 * top + 4
ORACLE_STEPS = 3
ORACLE_BATCH = 12

DECOMPOSE_DIMS = (4, 6, 4)
DECOMPOSE_TOP = 4
DECOMPOSE_STEPS = 4
DECOMPOSE_BATCH = 48

# Every dims vector with four entries between 1 and 3 that sum to 8; each
# run covers the whole list, in an order drawn from the seed.
STRATA_CLASS = tuple(n for n in product(range(1, 4), repeat=4) if sum(n) == 8)

ANALYZE_DIMS = ((3, 5, 4, 3), (4, 5, 5, 2), (2, 4, 5, 4), (5, 4, 4, 3))
ANALYZE_RANK_SUM = 4
ANALYZE_BATCH = 64

WORKLOADS = ("oracle", "decompose", "strata", "analyze")


# --------------------------------------------------------------------------
# Polynomials over Q: lists of Fractions, lowest degree first, no trailing
# zeros (the zero polynomial is []).

def _strip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def tpow(a):
    return [Fraction(0)] * a + [Fraction(1)]


def identity(n):
    return [[[Fraction(1)] if i == j else [] for j in range(n)]
            for i in range(n)]


def matmul(A, B):
    """Product of matrices of polynomials (rows of entries)."""
    inner = len(B)
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        out_row = []
        for j in range(cols):
            acc = []
            for k in range(inner):
                if row[k] and B[k][j]:
                    acc = padd(acc, pmul(row[k], B[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def local_conjugator(rng, n, steps):
    """g = E_1 ... E_steps S and g^-1 = S^-1 E_steps^-1 ... E_1^-1.

    E_s = I + c_s(t) e_ab with (a, b) = (s mod n, s + 1 mod n) and c_s of
    degree 1 with both coefficients nonzero, and S scales one coordinate by a nonzero
    constant.  The positions are fixed, so every seed builds a conjugator
    of the same shape and degree; only the coefficients differ.
    """
    g, ginv = identity(n), identity(n)
    if n < 2:
        return g, ginv
    for s in range(steps):
        a, b = s % n, (s + 1) % n
        c = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(2)]
        E, Einv = identity(n), identity(n)
        E[a][b], Einv[a][b] = c, [-x for x in c]
        g = matmul(g, E)
        ginv = matmul(Einv, ginv)
    k = rng.randrange(n)
    scale = Fraction(rng.choice((-1, 2, -2, 3)))
    S, Sinv = identity(n), identity(n)
    S[k][k], Sinv[k][k] = [scale], [1 / scale]
    return matmul(g, S), matmul(Sinv, ginv)


def block_form(dims, r, exponents):
    """The planted blocks: D_i has t^a at (k, r_i + k) for k < r_{i+1}.
    exponents[i] lists the exponent of each block of D_i."""
    full = (0,) + tuple(r) + (0,)
    mats = []
    for i in range(len(dims) - 1):
        grid = [[[] for _ in range(dims[i])] for _ in range(dims[i + 1])]
        for k, a in enumerate(exponents[i]):
            grid[k][full[i] + k] = tpow(a)
        mats.append(grid)
    return mats


def rank_poset(dims):
    """All rank vectors for dims, by brute force over the box."""
    m = len(dims) - 1
    box = [range(min(dims[i], dims[i + 1]) + 1) for i in range(m)]
    out = []
    for r in product(*box):
        full = (0,) + r + (0,)
        if all(full[i] + full[i + 1] <= dims[i] for i in range(m + 1)):
            out.append(r)
    return out


def below(r, s):
    """r < s in the coordinatewise order."""
    return r != s and all(x <= y for x, y in zip(r, s))


def maximal_set(dims):
    R = rank_poset(dims)
    return [r for r in R if not any(below(r, s) for s in R)]


def cohomology_dims(dims, r):
    full = (0,) + tuple(r) + (0,)
    return [dims[i] - full[i] - full[i + 1] for i in range(len(dims))]


def stabilizer_dim(dims, r):
    """dim End(C) for a complex C with rank vector r, by Krull-Schmidt.

    C is a sum of h_i copies of k[-i] and p_j = r_{j+1} copies of the
    two-term complex P_j = (k -> k) in degrees j, j+1.  The nonzero Hom
    spaces between indecomposables are one-dimensional: k[-i] to itself,
    P_j to itself, P_j onto k[-j], k[-j-1] into P_j, and P_{j+1} to P_j.
    """
    h = cohomology_dims(dims, r)
    p = list(r)
    total = sum(x * x for x in h) + sum(x * x for x in p)
    total += sum(p[j] * (h[j] + h[j + 1]) for j in range(len(p)))
    total += sum(p[j] * p[j + 1] for j in range(len(p) - 1))
    return total


def chain_count(dims):
    """Number of complete chains: strictly increasing non-maximal elements
    closed off by a dominating maximal element, counted by recursion over
    the brute-force poset."""
    R = rank_poset(dims)
    maximal = maximal_set(dims)
    proper = [r for r in R if r not in maximal]
    memo = {}

    def completions(last):
        if last not in memo:
            ok = (lambda s: True) if last is None else (lambda s: below(last, s))
            memo[last] = (sum(1 for s in maximal if ok(s))
                          + sum(completions(s) for s in proper if ok(s)))
        return memo[last]

    return completions(None)


def _emit_q(x):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _emit_poly_entry(p):
    if len(p) <= 1:
        return _emit_q(p[0]) if p else 0
    return {"num": [_emit_q(c) for c in p]}


def planted_family(rng, dims, r, exponents, steps):
    """Family document g B g^-1 with its planted answer."""
    B = block_form(dims, r, exponents)
    conj = [local_conjugator(rng, n, steps) for n in dims]
    diffs = []
    for i, Bi in enumerate(B):
        Di = matmul(matmul(conj[i + 1][0], Bi), conj[i][1])
        diffs.append([[_emit_poly_entry(x) for x in row] for row in Di])
    blocks = sorted([i, a] for i, exps in enumerate(exponents) for a in exps)
    return ({"dims": list(dims), "diffs": diffs},
            {"dims": list(dims), "r": list(r), "blocks": blocks})


def _split(flat, r):
    out, pos = [], 0
    for ri in r:
        out.append(flat[pos:pos + ri])
        pos += ri
    return out


def oracle_cases(rng):
    # One block at the top exponent, so that every family needs the same
    # truncation order.  The batch runs through every placement of the top
    # block and every exponent of the other one; the seed draws the
    # conjugations.
    cases = []
    for k in range(ORACLE_BATCH):
        flat = [ORACLE_TOP, (k // 2) % (ORACLE_TOP + 1)]
        if k % 2:
            flat.reverse()
        doc, expect = planted_family(rng, ORACLE_DIMS, ORACLE_RANKS,
                                     _split(flat, ORACLE_RANKS), ORACLE_STEPS)
        expect["N"] = ORACLE_N
        cases.append({"doc": doc, "expect": expect})
    return cases


def decompose_cases(rng):
    # Maximal planted ranks, so every limit is reduced and labelled.  Case
    # k has six blocks with exponents k, k+1, ..., k+5 mod 5, so every
    # exponent 0..4 is present; the seed draws the conjugations.
    maximal = maximal_set(DECOMPOSE_DIMS)
    cases = []
    for k in range(DECOMPOSE_BATCH):
        r = maximal[k % len(maximal)]
        flat = [(k // len(maximal) + j) % (DECOMPOSE_TOP + 1) for j in range(sum(r))]
        doc, expect = planted_family(rng, DECOMPOSE_DIMS, r, _split(flat, r),
                                     DECOMPOSE_STEPS)
        cases.append({"doc": doc, "expect": expect})
    return cases


def strata_cases(rng):
    order = list(STRATA_CLASS)
    rng.shuffle(order)
    cases = []
    for n in order:
        R = rank_poset(n)
        cases.append({"dims": list(n), "expect": {
            "dims": list(n),
            "R": [list(r) for r in R],
            "maximal": [list(r) for r in maximal_set(n)],
            "stratum_dim": [sum(x * x for x in n) - stabilizer_dim(n, r)
                            for r in R],
            "chains": chain_count(n)}})
    return cases


def _unimodular(rng, n):
    """U = L Up with unitriangular integer factors, and U^-1 = Up^-1 L^-1."""
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Up = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j and rng.random() < 0.6:
                L[i][j] = Fraction(rng.randint(-2, 2))
            if i < j and rng.random() < 0.6:
                Up[i][j] = Fraction(rng.randint(-2, 2))
    return _qmul(L, Up), _qmul(_unitri_inverse(Up), _unitri_inverse(L))


def _unitri_inverse(T):
    """Inverse of a unitriangular matrix: T = I + N with N nilpotent, so
    T^-1 = I - N + N^2 - ... (at most n terms)."""
    n = len(T)
    N = [[T[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = inv
    for k in range(1, n):
        power = _qmul(power, N)
        sign = -1 if k % 2 else 1
        inv = [[a + sign * b for a, b in zip(ra, rb)] for ra, rb in zip(inv, power)]
    return inv


def _qmul(A, B):
    cols = len(B[0]) if B else 0
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), Fraction(0))
             for j in range(cols)] for i in range(len(A))]


def analyze_cases(rng):
    # Case k takes the next dims vector of the class and, for it, the next
    # rank vector with ANALYZE_RANK_SUM in all; the seed draws the
    # conjugations.
    cases = []
    for k in range(ANALYZE_BATCH):
        dims = ANALYZE_DIMS[k % len(ANALYZE_DIMS)]
        ranks = [r for r in rank_poset(dims) if sum(r) == ANALYZE_RANK_SUM]
        r = ranks[(k // len(ANALYZE_DIMS)) % len(ranks)]
        full = (0,) + r + (0,)
        U = [_unimodular(rng, n) for n in dims]
        diffs = []
        for i in range(len(dims) - 1):
            canon = [[Fraction(0)] * dims[i] for _ in range(dims[i + 1])]
            for kk in range(full[i + 1]):
                canon[kk][full[i] + kk] = Fraction(1)
            Di = _qmul(_qmul(U[i + 1][0], canon), U[i][1])
            diffs.append([[_emit_q(x) for x in row] for row in Di])
        cases.append({"doc": {"dims": list(dims), "diffs": diffs},
                      "expect": {"dims": list(dims), "r": list(r)}})
    return cases


_MAKERS = {"oracle": oracle_cases, "decompose": decompose_cases,
           "strata": strata_cases, "analyze": analyze_cases}


def make_cases(workload: str, seed: int):
    """The run's batch of cases; the same seed gives the same cases."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def main():
    ap = argparse.ArgumentParser(
        description="Write the documents and expected answers of one run.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for k, case in enumerate(make_cases(args.workload, args.seed)):
        stem = os.path.join(args.out, f"{args.workload}-{k:03d}")
        if "doc" in case:
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                json.dump(case["doc"], fh)
        with open(stem + ".expect.json", "w", encoding="utf-8") as fh:
            json.dump(case["expect"], fh)


if __name__ == "__main__":
    main()
