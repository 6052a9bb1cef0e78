"""Limits of one-parameter families of complexes.

A family D(t) with entries regular at t = 0 and D(t)^2 = 0 identically is
a complex of free modules over the local ring at 0.  Every such complex
splits into shifted copies of the ring and two-term blocks R --t^a--> R;
``dvr_decompose`` finds this splitting by valuation-minimal pivoting, with
the relations D^2 = 0 guaranteeing that each extracted block detaches
cleanly from its neighbours.  It is the only elimination over the local
ring: ``linalg`` eliminates over fields only.  The limit of the family as
t -> 0 is a reduced spectral sequence with one page per active exponent,
read off g(0) alone: in the block coordinates y = g(0) x every block is
one pair of coordinates.  An independent brute-force oracle recomputes
page dimensions and differential ranks from the classical filtered-complex
subquotients over a truncation ring, and cross-checks the pivoting path.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .complexes import Complex, NotAComplexError, cohomology
from .linalg import Matrix, inverse, kernel_basis, rank
from .rings import LOCAL, QQ, QPoly, RatFun
from .spectral import SpectralSequence, StratumLabel, stratum_label
from .strata import GradedDims, RankVector


class InvariantError(RuntimeError):
    """An exact invariant that the mathematics guarantees failed to hold: a
    defect in the input's validation or in the program, never bad input."""


def local_at_zero(M: Matrix) -> Matrix:
    """Evaluate a local-ring matrix at t = 0 (always defined)."""
    if M.domain != LOCAL:
        raise TypeError("expected a local-ring matrix")
    return M.map_entries(lambda x: x.at_zero(), QQ)


class PolyComplex:
    """One-parameter family of differentials, exact rational functions in
    t regular at 0, squaring to zero identically."""

    __slots__ = ("dims", "diffs")

    def __init__(self, dims: GradedDims, diffs):
        diffs = tuple(diffs)
        if len(diffs) != dims.m:
            raise ValueError(f"expected {dims.m} differentials, got {len(diffs)}")
        for i, d in enumerate(diffs):
            if d.domain != LOCAL:
                raise TypeError("family entries must be local-ring scalars")
            if d.rows != dims[i + 1] or d.cols != dims[i]:
                raise ValueError(
                    f"D_{i}(t) has shape {d.rows}x{d.cols}, expected "
                    f"{dims[i + 1]}x{dims[i]}")
        for i in range(len(diffs) - 1):
            if not (diffs[i + 1] @ diffs[i]).is_zero():
                raise NotAComplexError(
                    i, f"not a complex at t: D_{i + 1}(t) D_{i}(t) != 0")
        self.dims = dims
        self.diffs = diffs

    @classmethod
    def constant(cls, c: Complex) -> "PolyComplex":
        if c.domain != QQ:
            raise TypeError("constant families come from rational complexes")
        return cls(c.dims, [d.map_entries(RatFun, LOCAL) for d in c.diffs])

    def at_zero(self) -> Complex:
        return Complex(self.dims, [local_at_zero(d) for d in self.diffs])

    def substitute(self, u: QPoly) -> "PolyComplex":
        """Reparametrize t -> u(t) with u(0) = 0."""
        return PolyComplex(self.dims,
                           [d.map_entries(lambda x: x.substitute(u))
                            for d in self.diffs])

    def __eq__(self, other):
        return (isinstance(other, PolyComplex) and self.dims == other.dims
                and self.diffs == other.diffs)

    def __repr__(self):
        return f"PolyComplex(dims={self.dims.n})"


def validate_family(dims, raw_diffs) -> PolyComplex:
    """Build a PolyComplex from raw entry grids.  Entries may be RatFun,
    QPoly, Fraction or int; a pole at t = 0 is rejected entry by entry."""
    dims = dims if isinstance(dims, GradedDims) else GradedDims(dims)
    diffs = []
    for i, raw in enumerate(raw_diffs):
        grid = []
        for r_idx, row in enumerate(raw):
            out_row = []
            for c_idx, x in enumerate(row):
                try:
                    out_row.append(LOCAL.coerce(x))
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"entry ({r_idx},{c_idx}) of D_{i}: {exc}") from exc
            grid.append(out_row)
        diffs.append(Matrix(LOCAL, dims[i + 1], dims[i], grid))
    return PolyComplex(dims, diffs)


class Block(NamedTuple):
    degree: int      # the block maps V^degree -> V^{degree+1}
    exponent: int    # the differential is multiplication by t^exponent
    source: int      # coordinate index in V^degree (after the basis change)
    target: int      # coordinate index in V^{degree+1}


class DVRDecomposition:
    """Result of the block decomposition: a graded basis change g(t),
    invertible at t = 0, with g_{i+1} D_i = B_i g_i for the block form B,
    the direct sum of elementary blocks t^exponent plus zero rows/columns
    (free summands)."""

    __slots__ = ("dims", "g", "blocks", "free")

    def __init__(self, dims: GradedDims, g, blocks, free):
        self.dims = dims
        self.g = tuple(g)                  # local-ring matrices, one per degree
        self.blocks = tuple(blocks)
        self.free = tuple(tuple(f) for f in free)

    def multiplicities(self) -> dict[tuple[int, int], int]:
        """m[(degree, exponent)] = number of elementary blocks."""
        out: dict[tuple[int, int], int] = {}
        for b in self.blocks:
            key = (b.degree, b.exponent)
            out[key] = out.get(key, 0) + 1
        return out

    def rank_vector(self) -> RankVector:
        """Ranks of the differentials over Q(t): g D g^{-1} is a sum of
        blocks t^a, so each degree's rank is its number of blocks."""
        counts = [0] * self.dims.m
        for b in self.blocks:
            counts[b.degree] += 1
        return RankVector(self.dims, tuple(counts))

    def block_multiset(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((b.degree, b.exponent) for b in self.blocks))

    def exponents(self) -> list[int]:
        return sorted({b.exponent for b in self.blocks})

    def block_form(self) -> list[Matrix]:
        """The canonical matrices of g D g^{-1}: t^a at each block position,
        zero elsewhere."""
        out = []
        for i in range(self.dims.m):
            grid = [[RatFun(0)] * self.dims[i] for _ in range(self.dims[i + 1])]
            for b in self.blocks:
                if b.degree == i:
                    grid[b.target][b.source] = _tpow(b.exponent)
            out.append(Matrix(LOCAL, self.dims[i + 1], self.dims[i], grid))
        return out


def _tpow(a: int) -> RatFun:
    return RatFun(QPoly((0,) * a + (1,)))


def min_valuation_entry(grid, rows, cols):
    """(valuation, i, j) of the first nonzero entry of least t-adic
    valuation among grid[i][j], i in rows, j in cols, in row-major order;
    None if all of them are zero.  A unit ends the scan: nothing in the
    local ring has lower valuation."""
    best = None
    for i in rows:
        row = grid[i]
        for j in cols:
            x = row[j]
            if x:
                v = x.valuation()
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == 0:
                        return best
    return best


def dvr_decompose(pc: PolyComplex) -> DVRDecomposition:
    """Split the family into elementary blocks by valuation-minimal
    pivoting.

    Repeatedly pick the live entry of globally minimal t-adic valuation
    (ties: lowest degree, then row-major), normalize its unit factor away,
    and clear its row and column; minimality keeps every elimination
    quotient regular at 0, and D^2 = 0 forces the matching column of the
    next differential and row of the previous one to vanish, so the block
    splits off and both coordinates retire.  Every operation is an
    elementary basis change accumulated into g.
    """
    dims = pc.dims
    m = dims.m
    A = [[list(row) for row in d.entries] for d in pc.diffs]
    g = [[[RatFun(1) if i == j else RatFun(0) for j in range(n)]
          for i in range(n)] for n in dims]
    live = [set(range(n)) for n in dims]

    def row_scale(j: int, p: int, u: RatFun):
        # coordinate p of V^j scaled by 1/u
        inv = RatFun(1) / u
        g[j][p] = [x * inv for x in g[j][p]]
        if j >= 1:
            A[j - 1][p] = [x * inv for x in A[j - 1][p]]
        if j <= m - 1:
            for r_ in range(dims[j + 1]):
                A[j][r_][p] = A[j][r_][p] * u

    def row_combine(j: int, dst: int, src: int, c: RatFun):
        # coordinate dst of V^j gets + c * coordinate src (so as a row
        # operation on maps INTO V^j, and the inverse op on maps out)
        g[j][dst] = [x + c * y for x, y in zip(g[j][dst], g[j][src])]
        if j >= 1:
            A[j - 1][dst] = [x + c * y
                             for x, y in zip(A[j - 1][dst], A[j - 1][src])]
        if j <= m - 1:
            for r_ in range(dims[j + 1]):
                A[j][r_][src] = A[j][r_][src] - c * A[j][r_][dst]

    blocks = []
    while True:
        best = None
        for i in range(m):
            found = min_valuation_entry(A[i], sorted(live[i + 1]),
                                        sorted(live[i]))
            if found is not None and (best is None or found[0] < best[0]):
                best = (*found, i)
        if best is None:
            break
        a, p, q, i = best
        piv = A[i][p][q]
        unit = piv / _tpow(a)
        # make the pivot exactly t^a
        row_scale(i + 1, p, unit)
        tpa = A[i][p][q]
        # clear the pivot column (operations on V^{i+1})
        for p2 in sorted(live[i + 1]):
            if p2 == p or A[i][p2][q].is_zero():
                continue
            c = A[i][p2][q] / tpa        # valuation >= 0 by minimality
            row_combine(i + 1, p2, p, -c)
        # clear the pivot row (operations on V^i)
        for q2 in sorted(live[i]):
            if q2 == q or A[i][p][q2].is_zero():
                continue
            c = A[i][p][q2] / tpa
            row_combine(i, q, q2, c)
        blocks.append(Block(i, a, q, p))
        live[i].discard(q)
        live[i + 1].discard(p)
        # D^2 = 0 detaches the block from the neighbouring differentials
        next_col = i + 1 < m and any(A[i + 1][r_][p] for r_ in range(dims[i + 2]))
        prev_row = i >= 1 and any(A[i - 1][q])
        if next_col or prev_row:
            raise InvariantError(
                f"block (degree {i}, exponent {a}) did not detach from a "
                "neighbouring differential; D(t)^2 != 0")

    free = [sorted(live[i]) for i in range(m + 1)]
    g_mats = [Matrix(LOCAL, dims[j], dims[j], g[j]) for j in range(m + 1)]
    return DVRDecomposition(dims, g_mats, blocks, free)


def page_table_from_multiplicities(dims: GradedDims, mult, r_max: int):
    """Exponent-indexed table of page dimensions and differential ranks:
    row r has dim E_r^i = n_i - sum_{a<r}(m[i,a] + m[i-1,a]) and
    rank(d_r in degree i) = m[i,r]."""
    m = dims.m
    table = []
    for r in range(r_max + 2):
        ds = []
        for i in range(m + 1):
            drop = 0
            for a in range(r):
                drop += mult.get((i, a), 0) + mult.get((i - 1, a), 0)
            ds.append(dims[i] - drop)
        ranks = [mult.get((i, r), 0) for i in range(m)]
        table.append((tuple(ds), tuple(ranks)))
    return table


class LimitResult(NamedTuple):
    ss: SpectralSequence
    label: StratumLabel | None
    reduced: bool


def limit_complete_complex(pc: PolyComplex,
                           decomposition: DVRDecomposition | None = None) -> LimitResult:
    """The limit of the family as t -> 0.

    Page 0 carries D(0).  Each active exponent a >= 1, in increasing order,
    gives the next page differential; the identity pages of the exponents
    between are skipped, so the limit is reduced exactly when the generic
    rank vector is maximal.  A non-reduced limit (final page not sparse)
    comes with reduced=False and no label.

    The pages are read in block coordinates y = g(0) x, where a block is a
    source coordinate in V^i and a target in V^{i+1}, and D(0) is the 0/1
    matrix of the exponent-0 blocks.  The columns of L_j are the page basis
    in y: g(0) on page 0, then times cohomology(page).lifts.  For exponent
    a, a block is spent if its exponent is below a, and a coordinate is
    live if it is in no spent block.  By induction over the pages, cycles
    vanish on spent sources and the accumulated boundaries span exactly
    the spent targets, so the live rows L_j' of L_j are invertible: the
    page is isomorphic to the live coordinates.  The exponent-a map E_a
    moves a row from the source of each (i, a) block to its target, both
    live, so the page differential is d = L_{i+1}'^{-1} (E_a L_i)'.  Its
    cycles L z vanish on the a-sources, and as L_i' is invertible, E_a L z
    fills the a-targets: the induction goes on.  The ambient solve of
    [L | B] X = E_a L in x, with B the lifted boundaries, has the same
    unique answer: G [L | B | E_a L] and [L | B | E_a L] have the same
    reduced row echelon form, and B vanishes on the live rows.  A basis row
    nonzero on a spent source, a live count other than the page's
    dimension, or a singular L_j' is an InvariantError.
    """
    dec = decomposition or dvr_decompose(pc)
    lifts = [local_at_zero(gj) for gj in dec.g]
    pages = [pc.at_zero()]
    for a in [a for a in dec.exponents() if a >= 1]:
        coh = cohomology(pages[-1])
        lifts = [lift @ h_lift for lift, h_lift in zip(lifts, coh.lifts)]
        live = [set(range(n)) for n in pc.dims]
        for b in dec.blocks:
            if b.exponent < a:
                if any(lifts[b.degree].entries[b.source]):
                    raise InvariantError(
                        f"page {len(pages)} basis is nonzero on the source "
                        f"of block (degree {b.degree}, exponent {b.exponent})")
                live[b.degree].discard(b.source)
                live[b.degree + 1].discard(b.target)
        live = [sorted(coords) for coords in live]
        if tuple(map(len, live)) != coh.h:
            raise InvariantError(
                f"page {len(pages)} has dims {coh.h}, but the live "
                f"coordinates number {tuple(map(len, live))}")
        try:
            inv = [inverse(lift.submatrix(rows, range(lift.cols)))
                   for lift, rows in zip(lifts, live)]
        except ValueError:
            raise InvariantError(f"page {len(pages)} basis is singular on "
                                 "its live coordinates") from None
        diffs = []
        for i in range(pc.dims.m):
            moved = {b.target: lifts[i].entries[b.source] for b in dec.blocks
                     if b.degree == i and b.exponent == a}
            value = [moved.get(q, [QQ.zero] * coh.h[i]) for q in live[i + 1]]
            diffs.append(inv[i + 1] @ Matrix(QQ, len(value), coh.h[i], value))
        pages.append(Complex(GradedDims(coh.h), diffs))

    # The free summands are the abutment; SpectralSequence checks them
    # against the ranks of the last page.
    final_dims = GradedDims(map(len, dec.free))
    pages.append(Complex.zero(final_dims))
    ss = SpectralSequence(pages)
    reduced = final_dims.is_sparse()
    label = stratum_label(ss) if reduced else None
    return LimitResult(ss, label, reduced)


def exponent_rank_table(pc: PolyComplex,
                        decomposition: DVRDecomposition | None = None):
    """Uncompressed page table indexed by exponent, from the block
    multiplicities; this is what the filtered-complex oracle reproduces."""
    dec = decomposition or dvr_decompose(pc)
    exps = dec.exponents()
    r_max = exps[-1] if exps else 0
    return page_table_from_multiplicities(pc.dims, dec.multiplicities(), r_max)


def filtered_oracle(pc: PolyComplex, N: int):
    """Independent page dimension/rank table from the t-adic filtration.

    The family is unrolled over the truncation ring Q[t]/t^N into one big
    rational complex, filtered by F^p = t^p; for page r the classical
    subquotients Z_r^p / (Z_{r-1}^{p+1} + D Z_{r-1}^{p-r+1}), with
    Z_r^p = {x in F^p : D x in F^{p+r}}, are computed by exact
    kernel/sum/rank arithmetic at the interior filtration level p = N//2,
    for every page r <= N//2 - 1, and once more at p - 1.

    The two tables agree, so a mismatch is an InvariantError.  By the
    block decomposition (which ``dvr_decompose`` finds; the oracle does
    not use it), a basis change g(t), invertible at 0, carries D(t) to a
    sum of free summands R and blocks R --t^a--> R.  Modulo t^N, g is an
    automorphism of R/t^N-modules, so it keeps every F^p = t^p V, and the
    subquotients split block by block.  Both levels p used here have
    1 <= p - r + 1 and p + r < N for every r <= N//2 - 1, and at such a
    level:
    - the class t^p of a free summand survives;
    - the class t^p of a block's target survives iff r <= a, since the
      images t^{a+k}, k >= p - r + 1, reach t^p iff a < r;
    - the class t^p of its source survives iff t^{a+p} lies in F^{p+r},
      that is a >= r, or a + p >= N, which with a < r would give p + r > N;
    - d_r has rank 1 on exactly the blocks with a = r, as t^{p+r} != 0.
    So both tables are the exponent table, whatever p.
    """
    if N < 4:
        raise ValueError("truncation order too small to have interior levels")
    dims = pc.dims
    m = dims.m
    series = [[[x.series(N) for x in row] for row in d.entries]
              for d in pc.diffs]

    def big_matrix(i: int) -> Matrix:
        """D_i on V^i (x) Q[t]/t^N, coordinates (j, e) -> j*n + e."""
        rows, cols = dims[i + 1] * N, dims[i] * N
        grid = [[QQ.zero] * cols for _ in range(rows)]
        for u in range(dims[i + 1]):
            for v in range(dims[i]):
                poly = series[i][u][v]
                for k, ck in enumerate(poly.coeffs):
                    if ck == 0:
                        continue
                    for j in range(N - k):
                        grid[(j + k) * dims[i + 1] + u][j * dims[i] + v] = ck
        return Matrix(QQ, rows, cols, grid)

    bigD = [big_matrix(i) for i in range(m)]

    # table_at(p) and table_at(p - 1) ask for the same few subspaces and
    # images many times over; both caches die with this call.  Every level
    # they ask for lies in 1..N.
    @functools.cache
    def z_space(r: int, p: int, i: int) -> Matrix:
        """Basis (columns) of Z_r^{p, i} = {x in F^p : D x in F^{p+r}}.  F^p
        is the coordinate range p*n_i .. N*n_i, so a basis vector is a
        kernel vector padded with zeros."""
        n = dims[i]
        free = range(p * n, N * n)
        if not free:
            return Matrix.zeros(QQ, N * n, 0)
        if i == m:
            ker = Matrix.identity(QQ, len(free))
        else:
            cutoff = min(p + r, N) * dims[i + 1]
            ker = kernel_basis(bigD[i].submatrix(range(cutoff), free))
        return Matrix._of(QQ, N * n, ker.cols,
                          [[QQ.zero] * ker.cols] * (p * n) + list(ker.entries))

    @functools.cache
    def d_image(r: int, p: int, i: int) -> Matrix:
        """Columns D z for the basis z of Z_r^{p, i}."""
        return bigD[i] @ z_space(r, p, i)

    def span_dim(*mats: Matrix) -> int:
        return rank(functools.reduce(Matrix.hstack, mats))

    def table_at(p: int, r_max: int):
        rows = []
        for r in range(r_max + 2):
            ds = []
            rks = []
            for i in range(m + 1):
                B = [z_space(r - 1, p + 1, i)]
                if i >= 1:
                    B.append(d_image(r - 1, p - r + 1, i - 1))
                ds.append(span_dim(z_space(r, p, i)) - span_dim(*B))
            for i in range(m):
                T1 = z_space(r - 1, p + r + 1, i + 1)
                T2 = d_image(r - 1, p + 1, i)
                rks.append(span_dim(d_image(r, p, i), T1, T2)
                           - span_dim(T1, T2))
            rows.append((tuple(ds), tuple(rks)))
        return rows

    # The oracle never looks at the pivoting path.  It reports the pages
    # r <= r_max = N//2 - 2 and the row after them; for both p and p - 1
    # the subquotients of row r touch levels p - r + 1 through p + r + 1,
    # all within 1..N.
    p = N // 2
    r_max = max(p - 2, 0)
    t1 = table_at(p, r_max)
    t2 = table_at(p - 1, r_max)
    if t1 != t2:
        raise InvariantError(
            f"filtered tables disagree at p = {p} and {p - 1}")
    return t1
