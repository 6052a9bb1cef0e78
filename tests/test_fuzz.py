"""Fuzzing the input contract of family, complex and spectral-sequence
documents.

``formats.parse_family`` and ``formats.parse_spectral_sequence`` either
return a value that round-trips or raise one of the errors that
``varcom`` reports as bad input, and ``varcom limit`` and
``varcom analyze`` on any document exit 0 with a result or exit 2 with
exactly one line on stderr: never a traceback, never the exit 1 of a
mathematical failure.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varcom import cli, formats, suites
from varcom.complexes import NotAComplexError
from varcom.degeneration import limit_complete_complex
from varcom.spectral import canonical_ss_from_chain
from varcom.strata import GradedDims, enumerate_chains

BAD_INPUT = (formats.DocumentError, NotAComplexError)

junk = st.none() | st.booleans() | st.floats() | st.text(max_size=6)
json_value = st.recursive(
    st.integers() | junk,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dims", "diffs", "num", "den", "x"]),
                      inner, max_size=3),
    max_leaves=12)
rational = (st.integers(-3, 3) | st.integers()
            | st.builds("{}/{}".format, st.integers(), st.integers(-9, 9))
            | st.text("0123456789/-+.eE _x", max_size=8))
coefficients = st.lists(rational | junk, max_size=4)
entry = (st.just(0) | rational | junk
         | st.fixed_dictionaries({"num": coefficients},
                                 optional={"den": coefficients})
         | st.fixed_dictionaries({"num": st.lists(st.integers(-5, 5), max_size=4),
                                  "den": st.lists(st.integers(-5, 5), max_size=3)})
         | json_value)


def damaged(draw, doc):
    """doc, or doc with one entry replaced, its dims replaced, or one of
    its keys dropped."""
    cells = [(i, r, c) for i, mat in enumerate(doc["diffs"])
             for r, row in enumerate(mat) for c in range(len(row))]
    damage = draw(st.sampled_from(["none", "entry", "dims", "drop"]))
    if damage == "entry" and cells:
        i, r, c = draw(st.sampled_from(cells))
        doc["diffs"][i][r][c] = draw(entry)
    elif damage == "dims":
        doc["dims"] = draw(json_value)
    elif damage == "drop":
        del doc[draw(st.sampled_from(["dims", "diffs"]))]
    return doc


@st.composite
def family_documents(draw):
    """Planted families (valid), shaped documents with random entries, and
    arbitrary JSON values, each possibly damaged in one place."""
    kind = draw(st.sampled_from(["planted", "shaped", "any"]))
    if kind == "any":
        return draw(json_value)
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    if kind == "planted":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        pc, _, _ = suites.plant_block_family(rng, GradedDims(dims), 3)
        doc = formats.emit_family(pc)
    else:
        doc = {"dims": dims, "diffs": [
            [[draw(entry) for _ in range(dims[i])] for _ in range(dims[i + 1])]
            for i in range(len(dims) - 1)]}
    return damaged(draw, doc)


@st.composite
def complex_documents(draw):
    """Random points of random strata and zero complexes (both valid),
    shaped documents with random entries, and arbitrary JSON values, each
    possibly damaged in one place."""
    kind = draw(st.sampled_from(["planted", "zero", "shaped", "any"]))
    if kind == "any":
        return draw(json_value)
    dims = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    if kind == "planted":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        c, _ = suites.random_complex(rng, GradedDims(dims))
        doc = formats.emit_complex(c)
    else:
        fill = (lambda: 0) if kind == "zero" else (lambda: draw(entry))
        doc = {"dims": dims, "diffs": [
            [[fill() for _ in range(dims[i])] for _ in range(dims[i + 1])]
            for i in range(len(dims) - 1)]}
    return damaged(draw, doc)


@st.composite
def spectral_sequence_documents(draw):
    """(document, spectral sequence it was emitted from, or None if
    damaged): canonical spectral sequences of random chains and limits of
    planted families, as emitted or with one page damaged, dropped or
    duplicated, and arbitrary JSON values."""
    kind = draw(st.sampled_from(["canonical", "limit", "any"]))
    if kind == "any":
        return draw(json_value), None
    dims = GradedDims(draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)))
    if kind == "canonical":
        ss = canonical_ss_from_chain(
            draw(st.sampled_from(enumerate_chains(dims)))).ss
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        ss = limit_complete_complex(suites.plant_block_family(rng, dims, 3)[0]).ss
    doc = formats.emit_spectral_sequence(ss)
    pages = doc["pages"]
    damage = draw(st.sampled_from(["none", "page", "drop", "repeat", "pages"]))
    k = draw(st.integers(0, len(pages) - 1))
    if damage == "page":
        pages[k] = damaged(draw, pages[k])
    elif damage == "drop":
        del pages[k]
    elif damage == "repeat":
        pages.insert(k, pages[k])
    elif damage == "pages":
        doc["pages"] = draw(json_value)
    return doc, ss if damage == "none" else None


# derandomize: the suite tests the same documents on every run
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(family_documents())
def test_parse_family_accepts_or_reports_bad_input(doc):
    try:
        pc = formats.parse_family(doc)
    except BAD_INPUT:
        return
    assert formats.parse_family(formats.emit_family(pc)) == pc


@FUZZ
@given(spectral_sequence_documents())
def test_parse_spectral_sequence_accepts_or_reports_bad_input(case):
    doc, emitted = case
    try:
        ss = formats.parse_spectral_sequence(doc)
    except BAD_INPUT:
        assert emitted is None
        return
    assert emitted is None or ss == emitted
    assert formats.parse_spectral_sequence(
        formats.emit_spectral_sequence(ss)) == ss


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(FUZZ, max_examples=80)
@given(doc=family_documents())
def test_limit_exit_contract(workdir, doc):
    src, out_path = workdir / "family.json", workdir / "limit.json"
    src.write_text(json.dumps(doc))
    out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["limit", str(src), "--json", str(out_path)])
    if rc == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().strip()
        assert not out_path.exists()
        return
    assert rc == 0, err.getvalue()
    assert err.getvalue() == ""
    payload = json.loads(out_path.read_text())
    assert payload["dims"] == doc["dims"]
    assert payload["reduced"] == (payload["label"] is not None)


@settings(FUZZ, max_examples=80)
@given(doc=complex_documents())
def test_analyze_exit_contract(workdir, doc):
    src = workdir / "complex.json"
    src.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["analyze", str(src), "--json"])
    if rc == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().strip()
        assert out.getvalue() == ""
        return
    assert rc == 0, err.getvalue()
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())
    assert payload["dims"] == doc["dims"]
    assert payload["homotopy_identity"] and payload["chart_identity"]


# A decimal with 4,300 digits after the point reads as a Fraction whose
# denominator 10^4300 has more digits than Python writes.
UNREADABLE = pytest.mark.parametrize("text", [
    b"\x80\x81",                                               # not UTF-8
    b'{"dims": [1, 1], "diffs": [[[' + b"7" * 5000 + b"]]]}",   # too long to read
    b'{"dims": [1, 1], "diffs": [[["1e999999999"]]]}',          # 10^999999999
    b'{"dims": [1, 1], "diffs": [[["1e5000"]]]}',               # too long to write
    b'{"dims": [1, 1], "diffs": [[["0.' + b"0" * 4299 + b'1"]]]}',
], ids=["not-utf8", "long-int", "huge-exponent", "exponent", "long-decimal"])


@UNREADABLE
def test_limit_unreadable_documents_are_bad_input(tmp_path, capsys, text):
    path = tmp_path / "family.json"
    path.write_bytes(text)
    assert cli.main(["limit", str(path), "--json", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("input error: ")


@UNREADABLE
def test_analyze_unreadable_documents_are_bad_input(tmp_path, capsys, text):
    path = tmp_path / "complex.json"
    path.write_bytes(text)
    assert cli.main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("input error: ")


def test_longest_writable_decimal_is_accepted(tmp_path, capsys):
    # 0.000...1 with 4,299 digits after the point: denominator 10^4299
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dims": [1, 1],
                                "diffs": [[["0." + "0" * 4298 + "1"]]]}))
    assert cli.main(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == [1]
    assert cli.main(["limit", str(path), "--json", str(tmp_path / "o.json")]) == 0
    payload = json.loads((tmp_path / "o.json").read_text())
    page0 = payload["spectral_sequence"]["pages"][0]
    assert page0["diffs"] == [[["1/1" + "0" * 4299]]]
