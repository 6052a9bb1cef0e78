"""Spectral sequences and complete complexes as concrete data.

A spectral sequence here is a list of pages E_0..E_L, each a complex on
the same degree range, where the dimension vector of page nu+1 equals the
cohomology dimensions of page nu and the last page carries the zero
differential.  Pages are identified with the cohomology of their
predecessor through the deterministic lift/projection conventions of the
complexes module, so a spectral sequence is fully determined by its page
differentials and equality is decidable.

A complete complex is a reduced spectral sequence with each differential
normalized projectively: the first nonzero entry in a fixed scan order
(ascending degree, then row-major) is scaled to 1.  The affine variant
leaves D^0 alone; the projective variant scales it too and requires it to
be nonzero.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import Complex, canonical_representative, rank_vector
from .strata import Chain, GradedDims, RankVector


class SpectralSequence:
    """Pages E_0..E_L with compatible dimension chains; the final page has
    zero differential.  A single page with zero differential is the
    degenerate case L = 0.  ranks[nu] is the rank vector of page nu, kept
    from the validation."""

    __slots__ = ("pages", "ranks")

    def __init__(self, pages):
        pages = tuple(pages)
        if not pages:
            raise ValueError("a spectral sequence needs at least one page")
        amb = pages[0].dims
        ranks = []
        for nu, page in enumerate(pages[1:], start=1):
            ranks.append(rank_vector(pages[nu - 1]))
            expect = GradedDims(ranks[-1].cohomology_dims())
            if page.dims != expect:
                raise ValueError(
                    f"page {nu} has dims {page.dims.n}, but the cohomology of "
                    f"page {nu - 1} has dims {expect.n}")
            if len(page.dims) != len(amb):
                raise ValueError("pages live on different degree ranges")
        last = pages[-1]
        if any(not d.is_zero() for d in last.diffs):
            raise ValueError("the final page must carry the zero differential")
        self.pages = pages
        self.ranks = tuple(ranks) + (RankVector.zero(last.dims),)

    @property
    def ambient_dims(self) -> GradedDims:
        return self.pages[0].dims

    def __eq__(self, other):
        return isinstance(other, SpectralSequence) and self.pages == other.pages

    def __hash__(self):
        return hash(self.pages)

    def __repr__(self):
        dims = " -> ".join(str(p.dims.n) for p in self.pages)
        return f"SpectralSequence[{dims}]"


class ReducedCheck(NamedTuple):
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self):
        return self.ok


def validate_reduced(ss: SpectralSequence, strongly: bool = False) -> ReducedCheck:
    """Check the reducedness conditions, naming each violation:
    all interior differentials nonzero, final page sparse, and (strongly)
    D^0 nonzero."""
    problems = []
    L = len(ss.pages) - 1
    for nu in range(1, L):
        if all(d.is_zero() for d in ss.pages[nu].diffs):
            problems.append(f"interior differential D^{nu} is zero")
    if not ss.pages[-1].dims.is_sparse():
        problems.append(
            f"final page dims {ss.pages[-1].dims.n} are not sparse")
    if strongly:
        if L < 1 or all(d.is_zero() for d in ss.pages[0].diffs):
            problems.append("strong reduction requires D^0 != 0")
    return ReducedCheck(not problems, tuple(problems))


StratumLabel = Chain


def stratum_label(ss: SpectralSequence) -> StratumLabel:
    """Cumulative rank vectors of the differentials, as a chain in the
    ambient poset R.  A page differential E^i -> E^{i+1} contributes to
    coordinate i+1; the degree index is untouched.  The last cumulative
    vector is the maximal terminal element."""
    check = validate_reduced(ss)
    if not check.ok:
        raise ValueError("stratum label of a non-reduced spectral sequence: "
                         + "; ".join(check.problems))
    amb = ss.ambient_dims
    m = amb.m
    cumulative = []
    acc = [0] * m
    for rv in ss.ranks[:-1]:
        acc = [a + b for a, b in zip(acc, rv.r)]
        cumulative.append(RankVector(amb, tuple(acc)))
    if not cumulative:
        return Chain(amb, (), RankVector.zero(amb))
    return Chain(amb, tuple(cumulative[:-1]), cumulative[-1])


def canonical_ss_from_chain(label: StratumLabel) -> "CompleteComplex":
    """The canonical reduced spectral sequence with the given label: every
    differential is the canonical block representative of the residual
    rank vector, so pages literally live on standard coordinates."""
    if label.terminal is None:
        raise ValueError("a complete label needs a terminal maximal element")
    amb = label.dims
    cumulative = label.cumulative()
    pages = []
    cur_dims = amb
    prev = (0,) * amb.m
    for target in cumulative:
        step = tuple(b - a for a, b in zip(prev, target.r))
        step_rv = RankVector(cur_dims, step)
        pages.append(canonical_representative(step_rv))
        cur_dims = GradedDims(step_rv.cohomology_dims())
        prev = target.r
    pages.append(Complex.zero(cur_dims))
    ss = SpectralSequence(pages)
    return normalize(ss, "affine")


_AFFINE = "affine"
_PROJECTIVE = "projective"


def _first_nonzero(page: Complex):
    z = page.domain.zero
    for d in page.diffs:
        for row in d.entries:
            for x in row:
                if x != z:
                    return x
    return None


def _scale_page(page: Complex, c) -> Complex:
    inv = page.domain.one / c
    return Complex(page.dims, [d.scale(inv) for d in page.diffs])


class CompleteComplex:
    """Equivalence class of reduced spectral sequences, represented by the
    normalized member; variant is 'affine' (D^0 honest) or 'projective'
    (D^0 also modulo scaling, required nonzero)."""

    __slots__ = ("ss", "variant")

    def __init__(self, ss: SpectralSequence, variant: str):
        if variant not in (_AFFINE, _PROJECTIVE):
            raise ValueError(f"unknown variant {variant!r}")
        self.ss = ss
        self.variant = variant

    @property
    def pages(self):
        return self.ss.pages

    def stratum_label(self) -> StratumLabel:
        return stratum_label(self.ss)

    def __eq__(self, other):
        return (isinstance(other, CompleteComplex)
                and self.variant == other.variant and self.ss == other.ss)

    def __hash__(self):
        return hash((self.variant, self.ss))

    def __repr__(self):
        return f"CompleteComplex({self.variant}, {self.ss!r})"


def normalize(ss, variant: str = _AFFINE) -> CompleteComplex:
    """Scale every differential subject to the variant's scaling action so
    that its first nonzero entry in scan order is 1.  Idempotent; the
    result is the canonical member of the equivalence class.  A sequence
    that needs no scaling is kept as it is, ranks included."""
    if isinstance(ss, CompleteComplex):
        if ss.variant != variant:
            raise ValueError(f"variant mismatch: have {ss.variant}, asked {variant}")
        ss = ss.ss
    check = validate_reduced(ss, strongly=(variant == _PROJECTIVE))
    if not check.ok:
        raise ValueError("cannot normalize: " + "; ".join(check.problems))
    pages = list(ss.pages)
    changed = len(pages) == 1
    if changed:
        # Degenerate single page: make the zero differential and its
        # (identical) abutment explicit so equality is structural.
        pages = [pages[0], Complex(pages[0].dims, pages[0].diffs)]
    start = 0 if variant == _PROJECTIVE else 1
    out = []
    for nu, page in enumerate(pages):
        if start <= nu < len(pages) - 1:
            c = _first_nonzero(page)
            if c is not None and c != page.domain.one:
                page = _scale_page(page, c)
                changed = True
        out.append(page)
    return CompleteComplex(SpectralSequence(out) if changed else ss, variant)
