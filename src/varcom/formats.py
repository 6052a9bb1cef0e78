"""JSON document formats for complexes, families and limit results.

Complex document:   {"dims": [n0, ..., nm], "diffs": [matrix, ...]}
    where matrix is an array of rows and each entry is an integer or a
    rational string "p/q".

Family document:    {"dims": [...], "diffs": [matrix, ...]}
    where each entry is either a bare rational (constant shorthand) or an
    object {"num": [c0, c1, ...], "den": [d0, ...]} of polynomial
    coefficient arrays, lowest degree first, rationals as above; "den"
    defaults to [1] and must not vanish at t = 0.

Rationals are serialized as strings (or bare ints when integral) so no
precision is ever lost.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .complexes import Complex, validate
from .degeneration import PolyComplex, validate_family
from .rings import QPoly, RatFun
from .spectral import SpectralSequence
from .strata import Chain, GradedDims


class DocumentError(ValueError):
    """Malformed input document; message carries the JSON path."""


def _parse_rational(x, path: str) -> Fraction:
    if isinstance(x, bool):
        raise DocumentError(f"{path}: expected a rational, got a boolean")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            # Fraction would expand 1e999999999 digit by digit
            raise DocumentError(
                f"{path}: bad rational {x!r}: exponent notation is not accepted")
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{path}: bad rational {x!r}: {exc}") from exc
        # A decimal such as 0.000...1 reads fine, but its denominator 10^k
        # may be longer than Python writes.  Neither part of q has more
        # digits than x has characters.
        limit = sys.get_int_max_str_digits()
        if (limit and len(x) > limit
                and max(abs(q.numerator), q.denominator) >= 10 ** limit):
            raise DocumentError(
                f"{path}: rational with more than {limit} digits in its "
                f"numerator or denominator")
        return q
    raise DocumentError(f"{path}: expected int or 'p/q' string, got {type(x).__name__}")


def _emit_rational(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_dims(doc, path="dims") -> GradedDims:
    if not isinstance(doc, list) or not doc:
        raise DocumentError(f"{path}: expected a nonempty array of counts")
    for k, x in enumerate(doc):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise DocumentError(f"{path}[{k}]: expected a nonnegative integer")
    try:
        return GradedDims(doc)
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from exc


def _check_matrix_shape(mat, rows, cols, path):
    if not isinstance(mat, list) or len(mat) != rows:
        raise DocumentError(f"{path}: expected {rows} rows")
    for i, row in enumerate(mat):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"{path}[{i}]: expected {cols} entries")


def parse_complex(doc, max_squares: int | None = None) -> Complex:
    """The complex of a document; with max_squares, reject dims whose
    sum of squares n_i^2 exceeds it before reading any matrix."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    dims = _parse_dims(doc.get("dims"))
    squares = sum(n * n for n in dims.n)
    if max_squares is not None and squares > max_squares:
        raise DocumentError(
            f"dims: sum(n_i^2) = {squares} is above the limit {max_squares}")
    diffs_doc = doc.get("diffs")
    if not isinstance(diffs_doc, list) or len(diffs_doc) != dims.m:
        raise DocumentError(f"diffs: expected {dims.m} matrices")
    raw = []
    for i, mat in enumerate(diffs_doc):
        _check_matrix_shape(mat, dims[i + 1], dims[i], f"diffs[{i}]")
        raw.append([[_parse_rational(x, f"diffs[{i}][{r}][{c}]")
                     for c, x in enumerate(row)]
                    for r, row in enumerate(mat)])
    return validate(dims, raw)


def emit_complex(c: Complex) -> dict:
    return {"dims": list(c.dims.n),
            "diffs": [[[_emit_rational(x) for x in row] for row in d.entries]
                      for d in c.diffs]}


def _parse_family_entry(x, path: str) -> RatFun:
    if isinstance(x, (int, str)):
        return RatFun(_parse_rational(x, path))
    if isinstance(x, dict):
        num_doc = x.get("num")
        if not isinstance(num_doc, list):
            raise DocumentError(f"{path}.num: expected a coefficient array")
        num = QPoly([_parse_rational(ck, f"{path}.num[{k}]")
                     for k, ck in enumerate(num_doc)])
        den_doc = x.get("den", [1])
        if not isinstance(den_doc, list) or not den_doc:
            raise DocumentError(f"{path}.den: expected a nonempty coefficient array")
        den = QPoly([_parse_rational(dk, f"{path}.den[{k}]")
                     for k, dk in enumerate(den_doc)])
        if den.is_zero() or den(0) == 0:
            raise DocumentError(f"{path}: pole at 0 (den[0] = 0)")
        return RatFun(num, den)
    raise DocumentError(f"{path}: expected rational or num/den object")


def parse_family(doc) -> PolyComplex:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    dims = _parse_dims(doc.get("dims"))
    diffs_doc = doc.get("diffs")
    if not isinstance(diffs_doc, list) or len(diffs_doc) != dims.m:
        raise DocumentError(f"diffs: expected {dims.m} matrices")
    raw = []
    for i, mat in enumerate(diffs_doc):
        _check_matrix_shape(mat, dims[i + 1], dims[i], f"diffs[{i}]")
        raw.append([[_parse_family_entry(x, f"diffs[{i}][{r}][{c}]")
                     for c, x in enumerate(row)]
                    for r, row in enumerate(mat)])
    return validate_family(dims, raw)


def _emit_poly(p: QPoly):
    return [_emit_rational(c) for c in p.coeffs] or [0]


def emit_family(pc: PolyComplex) -> dict:
    diffs = []
    for d in pc.diffs:
        mat = []
        for row in d.entries:
            out_row = []
            for x in row:
                if x.den == QPoly.const(1) and x.num.degree <= 0:
                    out_row.append(_emit_rational(x.num(0)))
                else:
                    out_row.append({"num": _emit_poly(x.num),
                                    "den": _emit_poly(x.den)})
            mat.append(out_row)
        diffs.append(mat)
    return {"dims": list(pc.dims.n), "diffs": diffs}


def emit_label(label: Chain | None):
    if label is None:
        return None
    return {"chain": [list(rv.r) for rv in label.elements],
            "terminal": list(label.terminal.r)}


def emit_spectral_sequence(ss: SpectralSequence) -> dict:
    return {"pages": [emit_complex(page) for page in ss.pages]}


def parse_spectral_sequence(doc) -> SpectralSequence:
    if not isinstance(doc, dict) or not isinstance(doc.get("pages"), list):
        raise DocumentError("expected an object with a 'pages' array")
    pages = [parse_complex(p) for p in doc["pages"]]
    try:
        return SpectralSequence(pages)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer literal
        # longer than Python converts from a string
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
