"""The combinatorics of the rank stratification.

A graded dimension vector n = (n_0, ..., n_m) determines the poset R of
rank vectors r = (r_1, ..., r_m) subject to r_i + r_{i+1} <= n_i for
i = 0..m (with r_0 = r_{m+1} = 0), ordered coordinatewise.  Index
convention used throughout the package: r_{i+1} is the rank of the
differential component V^i -> V^{i+1}.

Elements of R label the isomorphism classes (group orbits) of complexes on
the graded space; maximal elements label irreducible components; strictly
increasing sequences in R label boundary strata of the compactification by
spectral sequences.

Everything here is arithmetic on (n, r): the module imports nothing from
the package and does no linear algebra.
"""

from __future__ import annotations

from itertools import product


class GradedDims:
    """Dimension vector of a graded vector space concentrated in degrees
    0..m.  Zero entries are legal everywhere (spectral-sequence pages can
    collapse to the zero graded space)."""

    __slots__ = ("n",)

    def __init__(self, n):
        n = tuple(int(x) for x in n)
        if not n:
            raise ValueError("empty dimension vector")
        if any(x < 0 for x in n):
            raise ValueError("negative dimension")
        self.n = n

    @property
    def m(self) -> int:
        """Top degree."""
        return len(self.n) - 1

    def __getitem__(self, i) -> int:
        return self.n[i]

    def __len__(self) -> int:
        return len(self.n)

    def __iter__(self):
        return iter(self.n)

    def total(self) -> int:
        return sum(self.n)

    def is_sparse(self) -> bool:
        """No two consecutive degrees both nonzero; equivalently the only
        differential on this graded space is zero."""
        return all(self.n[i] * self.n[i + 1] == 0 for i in range(self.m))

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"GradedDims{self.n}"


class RankVector:
    """Element of the poset R attached to a fixed GradedDims."""

    __slots__ = ("dims", "r")

    def __init__(self, dims: GradedDims, r):
        r = tuple(int(x) for x in r)
        if len(r) != dims.m:
            raise ValueError(f"rank vector length {len(r)} != m = {dims.m}")
        full = (0,) + r + (0,)
        for i in range(dims.m + 1):
            if full[i] < 0 or full[i] + full[i + 1] > dims[i]:
                raise ValueError(
                    f"r = {r} violates r_{i} + r_{i + 1} <= n_{i} for n = {dims.n}")
        self.dims = dims
        self.r = r

    @classmethod
    def zero(cls, dims: GradedDims) -> "RankVector":
        return cls(dims, (0,) * dims.m)

    def length(self) -> int:
        return sum(self.r)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.r)

    def _same_context(self, other: "RankVector"):
        if self.dims != other.dims:
            raise ValueError("rank vectors from different graded spaces")

    def leq(self, other: "RankVector") -> bool:
        self._same_context(other)
        return all(a <= b for a, b in zip(self.r, other.r))

    def __lt__(self, other):
        return self.leq(other) and self.r != other.r

    def cohomology_dims(self) -> tuple[int, ...]:
        """h_i = n_i - r_i - r_{i+1}, the dimensions of the cohomology of
        any complex in this stratum."""
        full = (0,) + self.r + (0,)
        return tuple(self.dims[i] - full[i] - full[i + 1]
                     for i in range(self.dims.m + 1))

    def __eq__(self, other):
        return (isinstance(other, RankVector) and self.dims == other.dims
                and self.r == other.r)

    def __hash__(self):
        return hash((self.dims, self.r))

    def __repr__(self):
        return f"RankVector{self.r}"


def enumerate_R(dims: GradedDims) -> list[RankVector]:
    """All rank vectors for dims, in lexicographic order (product's order)."""
    m = dims.m
    if m == 0:
        return [RankVector(dims, ())]
    ranges = [range(0, min(dims[i - 1], dims[i]) + 1) for i in range(1, m + 1)]
    out = []
    for r in product(*ranges):
        full = (0,) + r + (0,)
        if all(full[i] + full[i + 1] <= dims[i] for i in range(m + 1)):
            out.append(RankVector(dims, r))
    return out


def is_maximal(rv: RankVector) -> bool:
    """Whether rv is maximal in R: exactly when its cohomology dimensions
    h are sparse.

    If r < s in R, pick i with s_i > r_i; then r + e_i <= s, and the
    constraints of R are monotone, so r + e_i lies in R.  Hence r is
    maximal iff no +e_i step stays in R.  The step raises exactly
    r_{i-1} + r_i and r_i + r_{i+1}, so it is legal iff h_{i-1} >= 1 and
    h_i >= 1."""
    return GradedDims(rv.cohomology_dims()).is_sparse()


def maximal_elements(dims: GradedDims) -> list[RankVector]:
    return [r for r in enumerate_R(dims) if is_maximal(r)]


def covering_relations(dims: GradedDims) -> list[tuple[RankVector, RankVector]]:
    """Covers in R.  The poset is ranked by total length, so covers are
    exactly the legal +e_i steps."""
    Rset = {rv.r: rv for rv in enumerate_R(dims)}
    out = []
    for r, rv in Rset.items():
        for i in range(dims.m):
            up = r[:i] + (r[i] + 1,) + r[i + 1:]
            if up in Rset:
                out.append((rv, Rset[up]))
    return out


def stratum_dim(rv: RankVector) -> int:
    """Dimension of the group orbit labelled by rv:
    sum_i r_{i+1} (n_i + n_{i+1} - r_i - r_{i+1}), with r_0 = 0.

    A complex in the orbit is the same as, in each degree, a flag
    B^i <= Z^i <= V^i of image and kernel (dimensions r_i and
    n_i - r_{i+1}) with an isomorphism V^i / Z^i -> B^{i+1}.  The flag
    contributes r_i (n_i - r_i) + r_{i+1} (n_i - r_i - r_{i+1}) and the
    isomorphism r_{i+1}^2; moving the first term down one degree and
    summing gives the formula."""
    full = (0,) + rv.r
    n = rv.dims
    return sum(full[i + 1] * (n[i] + n[i + 1] - full[i] - full[i + 1])
               for i in range(n.m))


class Chain:
    """A strictly increasing sequence in R (all proper elements
    non-maximal), optionally closed off by a maximal terminal element.

    The terminal element records which irreducible component's generic
    part a complete complex ends in; together with the proper elements it
    is a complete invariant of the boundary stratum.
    """

    __slots__ = ("dims", "elements", "terminal")

    def __init__(self, dims: GradedDims, elements, terminal: RankVector | None = None):
        elements = tuple(elements)
        prev = None
        for rv in elements:
            if rv.dims != dims:
                raise ValueError("chain element from a different graded space")
            if prev is not None and not (prev < rv):
                raise ValueError("chain elements must strictly increase")
            if is_maximal(rv):
                raise ValueError(f"non-terminal chain element {rv} is maximal")
            prev = rv
        if terminal is not None:
            if terminal.dims != dims:
                raise ValueError("terminal element from a different graded space")
            if not is_maximal(terminal):
                raise ValueError(f"terminal element {terminal} is not maximal")
            if prev is not None and not (prev < terminal):
                raise ValueError("terminal element must dominate the chain")
        self.dims = dims
        self.elements = elements
        self.terminal = terminal

    def cumulative(self) -> tuple[RankVector, ...]:
        out = list(self.elements)
        if self.terminal is not None:
            out.append(self.terminal)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.dims == other.dims
                and self.elements == other.elements
                and self.terminal == other.terminal)

    def __hash__(self):
        return hash((self.dims, tuple(e.r for e in self.elements),
                     None if self.terminal is None else self.terminal.r))

    def __repr__(self):
        body = ", ".join(str(e.r) for e in self.elements)
        term = "" if self.terminal is None else f" -> {self.terminal.r}"
        return f"Chain[{{{body}}}{term}]"


def enumerate_chains(dims: GradedDims, projective: bool = False) -> list[Chain]:
    """All complete chains: strictly increasing sequences of non-maximal
    rank vectors closed off by a dominating maximal element.

    With projective=True, chains whose first element is the zero vector
    are excluded (the projectivized stratification never sees the origin).
    """
    maximal, proper = [], []
    for r in enumerate_R(dims):
        (maximal if is_maximal(r) else proper).append(r)

    chains: list[Chain] = []

    def grow(prefix: list[RankVector]):
        last = prefix[-1] if prefix else None
        for term in maximal:
            if last is None or last < term:
                chains.append(Chain(dims, tuple(prefix), term))
        for nxt in proper:
            if last is None or last < nxt:
                prefix.append(nxt)
                grow(prefix)
                prefix.pop()

    grow([])
    if projective:
        chains = [c for c in chains if not c.cumulative()[0].is_zero()]
    chains.sort(key=lambda c: ([e.r for e in c.elements], c.terminal.r))
    return chains


def hasse_dot(dims: GradedDims) -> str:
    """Graphviz DOT digraph of the covering relations of R; maximal
    elements are drawn as boxes."""
    def node_id(rv):
        return '"' + ",".join(str(x) for x in rv.r) + '"' if rv.r else '"0"'

    lines = ["digraph rank_poset {"]
    lines.append('  rankdir="BT";')
    for rv in enumerate_R(dims):
        shape = "box" if is_maximal(rv) else "ellipse"
        label = "(" + ",".join(str(x) for x in rv.r) + ")" if rv.r else "()"
        lines.append(f"  {node_id(rv)} [label=\"{label}\", shape={shape}];")
    for low, high in covering_relations(dims):
        lines.append(f"  {node_id(low)} -> {node_id(high)};")
    lines.append("}")
    return "\n".join(lines)
