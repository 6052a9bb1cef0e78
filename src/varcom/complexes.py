"""Complexes of finite-dimensional graded vector spaces.

A complex is a graded dimension vector together with differential
components D_i: V^i -> V^{i+1} composing to zero.  This module provides
the linear algebra attached to one complex: rank vector, cohomology with
canonical bases, the splitting into an acyclic part plus cohomology, hom
and homotopy spaces of degree-1 morphisms, and the tangent, orbit,
stabilizer and chart dimensions at a stratum point.

Sign conventions.  The shift (V[1], D') has D'_i = -D_{i+1}, so a degree-1
morphism of complexes f: (V, D) -> (V, D)[1] is a graded map whose
components satisfy D_{i+1} f_i + f_{i+1} D_i = 0.  These f form the
tangent space at D to the variety of complexes; those of the form
f = sD - Ds for a degree-0 graded map s form the tangent space to the
orbit of D.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import (Matrix, _kernel_and_pivots, complete_basis, inverse,
                     kernel_basis, pivot_columns, rank)
from .rings import QQ, Domain
from .strata import GradedDims, RankVector


class NotAComplexError(ValueError):
    """Raised when differentials fail D_{i+1} D_i = 0; carries the first
    offending degree."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"not a complex: D_{degree + 1} D_{degree} != 0")


class Complex:
    """Validated complex of graded vector spaces over a field."""

    __slots__ = ("dims", "diffs", "domain", "_adapted")

    def __init__(self, dims: GradedDims, diffs):
        diffs = tuple(diffs)
        if len(diffs) != dims.m:
            raise ValueError(f"expected {dims.m} differentials, got {len(diffs)}")
        domain = diffs[0].domain if diffs else QQ
        for i, d in enumerate(diffs):
            if d.domain != domain:
                raise TypeError("differentials over mixed domains")
            if d.rows != dims[i + 1] or d.cols != dims[i]:
                raise ValueError(
                    f"D_{i} has shape {d.rows}x{d.cols}, expected "
                    f"{dims[i + 1]}x{dims[i]}")
        for i in range(len(diffs) - 1):
            if not (diffs[i + 1] @ diffs[i]).is_zero():
                raise NotAComplexError(i)
        self.dims = dims
        self.diffs = diffs
        self.domain = domain
        self._adapted = None

    @classmethod
    def zero(cls, dims: GradedDims, domain: Domain = QQ) -> "Complex":
        return cls(dims, [Matrix.zeros(domain, dims[i + 1], dims[i])
                          for i in range(dims.m)])

    def __eq__(self, other):
        return (isinstance(other, Complex) and self.dims == other.dims
                and self.diffs == other.diffs)

    def __hash__(self):
        return hash((self.dims, self.diffs))

    def __repr__(self):
        return f"Complex(dims={self.dims.n}, ranks={rank_vector(self).r})"


def canonical_representative(rv: RankVector, domain: Domain = QQ) -> Complex:
    """The block complex with rank vector rv: component i has an identity
    of size r_{i+1} whose columns start at offset r_i, so consecutive
    components compose to zero."""
    dims = rv.dims
    full = (0,) + rv.r + (0,)
    diffs = []
    for i in range(dims.m):
        rows, cols = dims[i + 1], dims[i]
        grid = [[domain.zero] * cols for _ in range(rows)]
        for k in range(full[i + 1]):
            grid[k][full[i] + k] = domain.one
        diffs.append(Matrix(domain, rows, cols, grid))
    return Complex(dims, diffs)


def validate(dims, raw_diffs, domain: Domain = QQ) -> Complex:
    """Build a Complex from raw entry grids, rejecting non-complexes."""
    dims = dims if isinstance(dims, GradedDims) else GradedDims(dims)
    diffs = [Matrix(domain, dims[i + 1], dims[i], raw)
             for i, raw in enumerate(raw_diffs)]
    return Complex(dims, diffs)


class GradedMap:
    """Graded map of pure degree d between graded spaces of the same
    dimension vector: components f_i: V^i -> V^{i+d}, with V^j = 0 outside
    0..m."""

    __slots__ = ("dims", "degree", "components")

    def __init__(self, dims: GradedDims, degree: int, components):
        components = tuple(components)
        if len(components) != dims.m + 1:
            raise ValueError("one component per degree expected")
        for i, f in enumerate(components):
            tgt = dims[i + degree] if 0 <= i + degree <= dims.m else 0
            if f.rows != tgt or f.cols != dims[i]:
                raise ValueError(
                    f"component {i} has shape {f.rows}x{f.cols}, expected {tgt}x{dims[i]}")
        self.dims = dims
        self.degree = degree
        self.components = components

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def conjugate(self, c: Complex) -> Complex:
        """Transport a differential through this degree-0 isomorphism:
        D -> (g D g^{-1})_i = g_{i+1} D_i g_i^{-1}."""
        if self.degree != 0:
            raise ValueError("conjugation needs a degree-0 map")
        if self.dims != c.dims:
            raise ValueError("graded space mismatch")
        inv = [inverse(f) for f in self.components]
        diffs = [self.components[i + 1] @ c.diffs[i] @ inv[i]
                 for i in range(c.dims.m)]
        return Complex(c.dims, diffs)

    def __eq__(self, other):
        return (isinstance(other, GradedMap) and self.dims == other.dims
                and self.degree == other.degree
                and self.components == other.components)

    def __repr__(self):
        return f"GradedMap(degree={self.degree}, dims={self.dims.n})"


def rank_vector(c: Complex) -> RankVector:
    """Ranks of the differential components; coordinate i+1 is the rank of
    D_i, and the inequalities defining R hold automatically.  Read off the
    adapted bases when they exist."""
    if c._adapted is not None:
        return RankVector(c.dims, c._adapted[0][1:c.dims.m + 1])
    return RankVector(c.dims, tuple(rank(d) for d in c.diffs))


class CohomologyData:
    """Cohomology dimensions with canonical lifts and projections.

    lifts[i] has h_i columns: representatives in V^i of the canonical
    basis of H^i, lying in Ker(D_i).  projections[i] is an h_i x n_i
    matrix killing Im(D_{i-1}) with projections[i] @ lifts[i] = identity.
    """

    __slots__ = ("h", "lifts", "projections")

    def __init__(self, h, lifts, projections):
        self.h = tuple(h)
        self.lifts = tuple(lifts)
        self.projections = tuple(projections)


def _adapted_bases(c: Complex):
    """Per-degree basis adapted to Im(D_{i-1}) | W^i | H^i, where W^i is
    the greedy complement of Ker(D_i) among standard vectors and H^i
    greedily extends the image inside the kernel.  In these bases the
    differential becomes the canonical block form of its rank vector.

    One rref of D_i gives Ker(D_i) and the pivot columns J of D_i: e_j is
    independent modulo Ker(D_i) and the e_k chosen before it iff column j
    of D_i is independent of the columns before it, so W^i = {e_j : j in
    J}, and its image D_i W^i, the first block of degree i+1, is the
    columns J of D_i.  A second rref, of [im | W | Ker(D_i) | 1], gives B
    and its inverse (``complete_basis``).  Its pivot columns outside the
    last block are B = [im | W | H], with H the greedy extension of im
    inside the kernel: W meets the kernel only in 0, so placing W before
    the kernel columns changes no pivot.  (If a kernel column is k = a + w
    + b, with a in the span of im, w in that of W and b in that of the
    kernel columns before k, then w = k - a - b lies in the kernel, so
    w = 0.)  The rref sends B's columns to e_0, e_1, ..., so its row
    operations E have E B = 1, and its last block, E 1, is B^{-1}.

    Returns (full_ranks, B, Binv) with B[i] the basis-column matrix.
    """
    if c._adapted is not None:
        return c._adapted
    dims, dom = c.dims, c.domain
    m = dims.m
    z, o = dom.zero, dom.one
    full = [0] * (m + 2)
    bases = []
    im_cols: list = []
    for i in range(m + 1):
        n = dims[i]
        if i < m:
            ker, pivots = _kernel_and_pivots(c.diffs[i])
        else:
            ker, pivots = Matrix.identity(dom, n), []
        w_cols = [[o if k == j else z for k in range(n)] for j in pivots]
        full[i] = len(im_cols)
        bases.append(complete_basis(
            Matrix.from_columns(dom, n, im_cols + w_cols), ker))
        if i < m:
            im_cols = [c.diffs[i].column(j) for j in pivots]
    c._adapted = (tuple(full), *zip(*bases))
    return c._adapted


def cohomology(c: Complex) -> CohomologyData:
    """Canonical cohomology data; h_i = n_i - r_i - r_{i+1}."""
    full, B, Binv = _adapted_bases(c)
    m = c.dims.m
    h, lifts, projections = [], [], []
    for i in range(m + 1):
        r_in, r_out = full[i], full[i + 1]
        n = c.dims[i]
        h.append(n - r_in - r_out)
        h_cols = range(r_in + r_out, n)
        lifts.append(B[i].submatrix(range(n), h_cols))
        projections.append(Binv[i].submatrix(h_cols, range(n)))
    return CohomologyData(h, lifts, projections)


def split_canonical(c: Complex):
    """Degree-0 isomorphism g with g . D . g^{-1} equal to the canonical
    block representative of the rank vector of D.  Constructive splitting
    of the complex into an acyclic part plus its cohomology.

    Returns (g, rank_vector).
    """
    full, B, Binv = _adapted_bases(c)
    g = GradedMap(c.dims, 0, list(Binv))
    return g, RankVector(c.dims, tuple(full[1:c.dims.m + 1]))


def _f_offsets(dims: GradedDims):
    """Coordinate layout for degree-1 graded maps f = (f_i: V^i -> V^{i+1}),
    i = 0..m-1."""
    offsets = []
    pos = 0
    for i in range(dims.m):
        offsets.append(pos)
        pos += dims[i + 1] * dims[i]
    return offsets, pos


def _s_offsets(dims: GradedDims):
    offsets = []
    pos = 0
    for i in range(dims.m + 1):
        offsets.append(pos)
        pos += dims[i] * dims[i]
    return offsets, pos


def _unpack_degree1(dims: GradedDims, domain: Domain, vec) -> GradedMap:
    offsets, _ = _f_offsets(dims)
    comps = []
    for i in range(dims.m):
        rows, cols = dims[i + 1], dims[i]
        base = offsets[i]
        comps.append(Matrix._of(domain, rows, cols,
                                [vec[base + a * cols:base + (a + 1) * cols]
                                 for a in range(rows)]))
    comps.append(Matrix.zeros(domain, 0, dims[dims.m]))
    return GradedMap(dims, 1, comps)


def _morphism_equation_matrix(c: Complex) -> Matrix:
    """Linear system on degree-1 maps expressing D_{i+1} f_i + f_{i+1} D_i = 0
    for i = 0..m-2."""
    dims, dom = c.dims, c.domain
    m = dims.m
    f_off, f_total = _f_offsets(dims)
    rows = []
    for i in range(m - 1):
        Dnext = c.diffs[i + 1]
        Dcur = c.diffs[i]
        n_i, n_i2 = dims[i], dims[i + 2]
        cols_fi = dims[i]
        cols_fi1 = dims[i + 1]
        for u in range(n_i2):
            for v in range(n_i):
                row = [dom.zero] * f_total
                # Each k fills its own entry, in the f_i and f_{i+1} blocks.
                for k in range(dims[i + 1]):
                    coeff = Dnext.entries[u][k]
                    if coeff:
                        row[f_off[i] + k * cols_fi + v] = coeff
                for k in range(dims[i + 1]):
                    coeff = Dcur.entries[k][v]
                    if coeff:
                        row[f_off[i + 1] + u * cols_fi1 + k] = coeff
                rows.append(row)
    return Matrix._of(dom, len(rows), f_total, rows)


def morphism_space(c: Complex) -> list[GradedMap]:
    """Deterministic basis of the degree-1 morphisms of complexes
    (V, D) -> (V, D)[1]; this is the tangent space to the variety of
    complexes at D."""
    eq = _morphism_equation_matrix(c)
    ker = kernel_basis(eq)
    return [_unpack_degree1(c.dims, c.domain, ker.column(j))
            for j in range(ker.cols)]


def _homotopy_matrix(c: Complex) -> Matrix:
    """Matrix of s |-> (s_{i+1} D_i - D_i s_i) from degree-0 graded maps to
    degree-1 graded maps."""
    dims, dom = c.dims, c.domain
    m = dims.m
    f_off, f_total = _f_offsets(dims)
    s_off, s_total = _s_offsets(dims)
    grid = [[dom.zero] * s_total for _ in range(f_total)]
    for i in range(m):
        D = c.diffs[i]
        n_i, n_i1 = dims[i], dims[i + 1]
        for u in range(n_i1):
            for v in range(n_i):
                # Each k fills its own entry, in the s_{i+1} and s_i blocks.
                row = grid[f_off[i] + u * n_i + v]
                # (s_{i+1} D_i)[u][v] = sum_k s_{i+1}[u][k] D[k][v]
                for k in range(n_i1):
                    coeff = D.entries[k][v]
                    if coeff:
                        row[s_off[i + 1] + u * n_i1 + k] = coeff
                # -(D_i s_i)[u][v] = -sum_k D[u][k] s_i[k][v]
                for k in range(n_i):
                    coeff = D.entries[u][k]
                    if coeff:
                        row[s_off[i] + k * n_i + v] = -coeff
    return Matrix._of(dom, f_total, s_total, grid)


def nullhomotopic_space(c: Complex) -> list[GradedMap]:
    """Deterministic basis of {sD - Ds}: the tangent space to the orbit of
    D.  Basis vectors are the pivot columns of the homotopy map."""
    theta = _homotopy_matrix(c)
    return [_unpack_degree1(c.dims, c.domain, theta.column(j))
            for j in pivot_columns(theta)]


def assemble_D_delta(c: Complex, delta):
    """Extend a degree-1 graded map delta on the cohomology of c to a
    differential-shaped map on the whole space: in the splitting basis the
    acyclic block of D is kept and delta is written on the cohomology
    block, then everything is conjugated back.

    delta may be a GradedMap of degree 1 on the cohomology dims, or a list
    of h_{i+1} x h_i matrices.  Returns a Complex when delta squares to
    zero, otherwise the assembled GradedMap of degree 1.
    """
    dims, dom = c.dims, c.domain
    m = dims.m
    full, B, Binv = _adapted_bases(c)
    h = [dims[i] - full[i] - full[i + 1] for i in range(m + 1)]
    if isinstance(delta, GradedMap):
        dcomps = list(delta.components[:m])
    else:
        dcomps = list(delta)
    if len(dcomps) < m:
        raise ValueError(f"expected {m} delta components, got {len(dcomps)}")
    for i in range(m):
        d = dcomps[i]
        if d.rows != h[i + 1] or d.cols != h[i]:
            raise ValueError(
                f"delta component {i} has shape {d.rows}x{d.cols}, "
                f"expected {h[i + 1]}x{h[i]}")

    assembled = []
    for i in range(m):
        rows, cols = dims[i + 1], dims[i]
        grid = [[dom.zero] * cols for _ in range(rows)]
        for k in range(full[i + 1]):           # canonical acyclic block
            grid[k][full[i] + k] = dom.one
        roff = full[i + 1] + full[i + 2]
        coff = full[i] + full[i + 1]
        for a in range(h[i + 1]):
            for b in range(h[i]):
                grid[roff + a][coff + b] = dcomps[i].entries[a][b]
        block = Matrix(dom, rows, cols, grid)
        assembled.append(B[i + 1] @ block @ Binv[i])

    square_ok = all((dcomps[i + 1] @ dcomps[i]).is_zero() for i in range(m - 1))
    if square_ok:
        return Complex(dims, assembled)
    comps = assembled + [Matrix.zeros(dom, 0, dims[m])]
    return GradedMap(dims, 1, comps)


def _eta_matrix(c: Complex) -> Matrix:
    """Matrix of eta, which embeds degree-1 maps delta on the cohomology
    through the splitting basis: the differential of delta |-> D_delta,
    one column per entry (a, b) of each delta_i, in degree order."""
    dims, dom = c.dims, c.domain
    m = dims.m
    full, B, Binv = _adapted_bases(c)
    h = [dims[i] - full[i] - full[i + 1] for i in range(m + 1)]
    f_off, f_total = _f_offsets(dims)
    width = sum(h[i] * h[i + 1] for i in range(m))
    grid = [[dom.zero] * width for _ in range(f_total)]
    col = 0
    for i in range(m):
        roff = full[i + 1] + full[i + 2]
        coff = full[i] + full[i + 1]
        for a in range(h[i + 1]):
            for b in range(h[i]):
                # eta(E_ab) = B_{i+1} E_ab Binv_i: an outer product of the
                # (roff+a)-th basis column with the (coff+b)-th inverse row.
                for u in range(dims[i + 1]):
                    cu = B[i + 1].entries[u][roff + a]
                    if not cu:
                        continue
                    for v in range(dims[i]):
                        cv = Binv[i].entries[coff + b][v]
                        if cv:
                            grid[f_off[i] + u * dims[i] + v][col] = cu * cv
                col += 1
    return Matrix._of(dom, f_total, width, grid)


class TangentData(NamedTuple):
    """Dimensions at a point D of the variety of complexes."""
    tangent: int      # degree-1 maps f with D_{i+1} f_i + f_{i+1} D_i = 0
    orbit: int        # the null-homotopic ones, f = sD - Ds
    stabilizer: int   # degree-0 maps s with sD = Ds
    normal: int       # sum_i h_i h_{i+1}: degree-1 maps on the cohomology
    chart: int        # rank at (1, 0) of (g, delta) |-> g . D_delta


def tangent_data(c: Complex) -> TangentData:
    """Tangent, orbit, stabilizer, normal and chart dimensions at D.

    theta is the homotopy map s |-> sD - Ds, and eta has one column per
    normal direction, so [theta | eta] is the differential at (1, 0) of
    the chart (g, delta) |-> g . D_delta.  One elimination of it gives the
    rest: greedy left-to-right pivots of a column prefix are the pivots of
    that prefix alone, so the pivots among theta's columns count the
    orbit, its other columns the stabilizer, and all pivots the chart
    rank.  The chart statement asks for tangent = orbit + normal = chart.
    """
    _, f_total = _f_offsets(c.dims)
    _, s_total = _s_offsets(c.dims)
    eta = _eta_matrix(c)
    pivots = pivot_columns(_homotopy_matrix(c).hstack(eta))
    orbit = sum(1 for j in pivots if j < s_total)
    return TangentData(
        tangent=f_total - rank(_morphism_equation_matrix(c)),
        orbit=orbit,
        stabilizer=s_total - orbit,
        normal=eta.cols,
        chart=len(pivots))
