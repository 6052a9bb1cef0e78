"""Output checks for the varcom benchmark, written apart from the program.

Each check compares what one operation returned with the answer the
generator planted (``gen.py``) or computed by brute force, and returns the
list of problems it found; an empty list means the output is correct.
The arithmetic here is plain Fractions and lists of coefficients, so a
fault in varcom's own rings or linear algebra cannot hide itself.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from gen import below, cohomology_dims, padd, pmul, stabilizer_dim, tpow


def _counts(blocks):
    return Counter((int(i), int(a)) for i, a in blocks)


def predicted_page_table(dims, blocks, r_max):
    """Rows r = 0..r_max+1 of (page dims, page ranks) implied by the planted
    blocks: a block t^a from degree i survives to page a, where it is one
    rank of d_a, and both of its coordinates are gone from page a+1 on."""
    table = []
    for r in range(r_max + 2):
        ds = list(dims)
        ranks = [0] * (len(dims) - 1)
        for i, a in blocks:
            if a < r:
                ds[i] -= 1
                ds[i + 1] -= 1
            elif a == r:
                ranks[i] += 1
        table.append((tuple(ds), tuple(ranks)))
    return table


def _payload_blocks(payload):
    return Counter({(e["degree"], e["exponent"]): e["count"]
                    for e in payload["multiplicities"]})


def check_oracle(expect, obs):
    problems = []
    if obs["rc"] != 0 or "oracle: agree" not in obs["stdout"]:
        problems.append(f"exit {obs['rc']}, oracle did not agree")
    if _payload_blocks(obs["payload"]) != _counts(expect["blocks"]):
        problems.append("reported multiplicities differ from the planted ones")
    N = expect["N"]
    want = predicted_page_table(expect["dims"], expect["blocks"], N // 2 - 2)
    got = [(tuple(d), tuple(r)) for d, r in obs["oracle_table"]]
    if got != want:
        problems.append(f"oracle table {got} != planted table {want}")
    return problems


def _poly(entry):
    """A family-document entry as a coefficient list."""
    if isinstance(entry, dict):
        return [Fraction(c) for c in entry["num"]]
    return [Fraction(entry)] if Fraction(entry) else []


def _ratfun(x):
    return list(x.num.coeffs), list(x.den.coeffs)


def _radd(p, q):
    (a, b), (c, d) = p, q
    if b == d:
        return padd(a, c), b
    return padd(pmul(a, d), pmul(c, b)), pmul(b, d)


def _req(p, q):
    (a, b), (c, d) = p, q
    return pmul(a, d) == pmul(c, b)


def _rank_q(rows):
    grid = [list(r) for r in rows]
    rank = 0
    for j in range(len(grid[0]) if grid else 0):
        piv = next((i for i in range(rank, len(grid)) if grid[i][j]), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        for i in range(rank + 1, len(grid)):
            c = grid[i][j] / grid[rank][j]
            grid[i] = [x - c * y for x, y in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def check_conjugation(doc, dec):
    """g_{i+1} D_i = B_i g_i entry by entry as rational functions, with B
    the block form of the reported blocks, and every g_i invertible at
    t = 0; together these say g D g^-1 is exactly the block form."""
    dims = doc["dims"]
    g = [[[_ratfun(x) for x in row] for row in gi.entries] for gi in dec.g]
    for j, gj in enumerate(g):
        at0 = [[num[0] / den[0] if num else Fraction(0) for num, den in row]
               for row in gj]
        if _rank_q(at0) != dims[j]:
            return [f"g_{j} is not invertible at t = 0"]
    for i, Di in enumerate(doc["diffs"]):
        D = [[_poly(x) for x in row] for row in Di]
        block_of_target = {}
        sources = set()
        for b in dec.blocks:
            if b.degree == i:
                if b.target in block_of_target or b.source in sources:
                    return [f"blocks of D_{i} overlap"]
                block_of_target[b.target] = b
                sources.add(b.source)
        for u in range(dims[i + 1]):
            for v in range(dims[i]):
                lhs = ([], [Fraction(1)])
                for k in range(dims[i + 1]):
                    num, den = g[i + 1][u][k]
                    if num and D[k][v]:
                        lhs = _radd(lhs, (pmul(num, D[k][v]), den))
                b = block_of_target.get(u)
                if b is None:
                    rhs = ([], [Fraction(1)])
                else:
                    num, den = g[i][b.source][v]
                    rhs = (pmul(tpow(b.exponent), num), den)
                if not _req(lhs, rhs):
                    return [f"g D g^-1 differs from the block form at D_{i}[{u}][{v}]"]
    return []


def check_decompose(expect, obs):
    problems = []
    payload = obs["payload"]
    if obs["rc"] != 0:
        problems.append(f"exit {obs['rc']}")
    if _payload_blocks(payload) != _counts(expect["blocks"]):
        problems.append("planted block multiset not recovered")
    if Counter((b.degree, b.exponent) for b in obs["dec"].blocks) != \
            _counts(expect["blocks"]):
        problems.append("decomposition blocks differ from the planted ones")
    label = payload["label"]
    if not payload["reduced"] or label is None \
            or label["terminal"] != expect["r"]:
        problems.append(f"label {label} does not end at the planted {expect['r']}")
    if not problems:
        problems += check_conjugation(obs["doc"], obs["dec"])
    return problems


def _sparse(h):
    return all(x * y == 0 for x, y in zip(h, h[1:]))


def check_strata(expect, obs):
    problems = []
    dims = expect["dims"]
    R = [tuple(r) for r in expect["R"]]
    maximal = {tuple(r) for r in expect["maximal"]}
    sparse = {r for r in R if _sparse(cohomology_dims(dims, r))}
    if maximal != sparse:
        problems.append("brute-force maximal set differs from the sparse set")
    rows = obs["poset"]["poset"]
    if obs["rc"] != 0 or [tuple(row["r"]) for row in rows] != R:
        problems.append(f"poset of {dims} is not the brute-force R")
        return problems
    want_dim = dict(zip(R, expect["stratum_dim"]))
    for row in rows:
        r = tuple(row["r"])
        if row["maximal"] != (r in maximal):
            problems.append(f"maximal flag of {r}")
        if row["h"] != cohomology_dims(dims, r):
            problems.append(f"cohomology dims of {r}")
        if row["stratum_dim"] != want_dim[r]:
            problems.append(f"stratum_dim of {r}: {row['stratum_dim']} != "
                            f"{want_dim[r]}")
    chains = obs["chains"]
    if len(chains) != expect["chains"]:
        problems.append(f"{len(chains)} chains, brute force counts "
                        f"{expect['chains']}")
    seen = set()
    for c in chains:
        seq = [e.r for e in c.elements] + [c.terminal.r]
        key = tuple(seq)
        ok = (key not in seen and seq[-1] in maximal
              and all(e not in maximal for e in seq[:-1])
              and all(below(x, y) for x, y in zip(seq, seq[1:])))
        seen.add(key)
        if not ok:
            problems.append(f"invalid or repeated chain {key}")
            break
    if any(label != c for label, c in zip(obs["labels"], chains)):
        problems.append("a label round trip did not return its chain")
    return problems


def check_analyze(expect, obs):
    out = obs["payload"]
    dims, r = expect["dims"], expect["r"]
    h = cohomology_dims(dims, r)
    normal = sum(h[i] * h[i + 1] for i in range(len(h) - 1))
    problems = []
    if obs["rc"] != 0:
        problems.append(f"exit {obs['rc']}")
    if out["r"] != r or out["h"] != h:
        problems.append(f"rank vector {out['r']} != planted {r}")
    if out["tangent_dim"] - out["orbit_dim"] != normal:
        problems.append("tangent - orbit != sum h_i h_i+1")
    if out["orbit_dim"] != sum(n * n for n in dims) - out["stabilizer_dim"]:
        problems.append("orbit != sum n^2 - stabilizer")
    if out["stabilizer_dim"] != stabilizer_dim(dims, r):
        problems.append("stabilizer differs from the Krull-Schmidt count")
    if out["chart_jacobian_rank"] != out["orbit_dim"] + normal:
        problems.append("chart != orbit + normal")
    return problems


CHECKS = {"oracle": check_oracle, "decompose": check_decompose,
          "strata": check_strata, "analyze": check_analyze}
