"""One elimination per differential: counted calls on the cohomology,
analyze, limit and stratum-label paths.  Besides one rref per
differential, the adapted bases of a complex cost one rref per degree,
which completes and inverts the basis at once."""

import json
import pathlib
import random

from varcom import cli, formats, linalg
from varcom import complexes as cx
from varcom import degeneration as dg
from varcom.spectral import canonical_ss_from_chain, stratum_label
from varcom.strata import GradedDims, enumerate_chains
from varcom.suites import plant_block_family, random_complex

ROOT = pathlib.Path(__file__).resolve().parents[1]
FAMILIES = sorted((ROOT / "demos" / "families").glob("*.json"))
COMPLEXES = sorted((ROOT / "demos" / "complexes").glob("*.json"))


def counted(monkeypatch, module, name, calls=None):
    """Replace module.name by a wrapper that records its matrix argument
    in calls; every rank goes through linalg.pivot_columns."""
    calls = [] if calls is None else calls
    fn = getattr(module, name)

    def wrapper(M, *args):
        calls.append(M)
        return fn(M, *args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counted_ranks(monkeypatch):
    """Calls of linalg.pivot_columns and of the rank that rank_vector uses."""
    calls = counted(monkeypatch, linalg, "pivot_columns")
    return counted(monkeypatch, cx, "rank", calls)


def adapted_rrefs(rrefs, c):
    """The rref calls of c's adapted bases, in degree order: D_i, then
    the completion of degree i, and last the completion of degree m.
    Each completion is the [basis | candidates | 1] of its degree."""
    m = c.dims.m
    assert len(rrefs) == 2 * m + 1
    assert [id(M) for M in rrefs[:-1:2]] == [id(d) for d in c.diffs]
    for i, M in enumerate(rrefs[1::2]):
        n = c.dims[i]
        assert M.rows == n and M.cols >= 2 * n
        assert M.submatrix(range(n), range(M.cols - n, M.cols)) == (
            linalg.Matrix.identity(c.domain, n))


def test_cohomology_one_rref_per_differential(monkeypatch):
    rng = random.Random(5)
    for dims in ((2, 3, 3, 1), (3, 3), (1, 2, 1), (2, 0, 2)):
        c, _ = random_complex(rng, GradedDims(dims))
        rrefs = counted(monkeypatch, linalg, "rref")
        pivots = counted(monkeypatch, linalg, "pivot_columns")
        cx.cohomology(c)
        cx.cohomology(c)
        adapted_rrefs(rrefs, c)
        assert pivots == []
        monkeypatch.undo()


def test_analyze_one_rref_per_differential(monkeypatch, tmp_path):
    """analyze reads the ranks off the adapted bases that tangent_data
    reuses, and never eliminates a D_i a second time."""
    rng = random.Random(5)
    paths = list(COMPLEXES)
    for k, dims in enumerate(((2, 3, 3, 1), (3, 3), (2, 0, 2))):
        c, _ = random_complex(rng, GradedDims(dims))
        paths.append(tmp_path / f"random{k}.json")
        paths[-1].write_text(json.dumps(formats.emit_complex(c)))
    parsed = []
    parse = formats.parse_complex

    def parse_and_keep(*args, **kwargs):
        parsed.append(parse(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(formats, "parse_complex", parse_and_keep)
    rrefs = counted(monkeypatch, linalg, "rref")
    ranked = counted(monkeypatch, linalg, "pivot_columns")
    counted(monkeypatch, cx, "pivot_columns", ranked)
    counted(monkeypatch, cx, "rank", ranked)
    for path in paths:
        parsed.clear()
        rrefs.clear()
        ranked.clear()
        assert cli.main(["analyze", str(path), "--json"]) == 0
        [c] = parsed
        adapted_rrefs(rrefs, c)
        assert not {id(M) for M in ranked} & {id(d) for d in c.diffs}


def limit_families():
    """The six demo families and twelve planted ones."""
    rng = random.Random(18)
    families = [formats.parse_family(formats.load_json(str(p)))
                for p in FAMILIES]
    for dims in ((2, 3, 2), (1, 2, 2, 1), (2, 3, 3, 2)) * 4:
        families.append(plant_block_family(rng, GradedDims(dims), 4)[0])
    return families


def test_limit_one_rref_per_differential(monkeypatch):
    """For each page whose cohomology it takes, the limit eliminates each
    differential once, completes each degree's adapted basis once and
    inverts each degree's live basis once: a page differential is read
    off the block coordinates with no solve.  The last page with a
    differential and the final zero page are not eliminated."""
    for pc in limit_families():
        rrefs = counted(monkeypatch, linalg, "rref")
        ss = dg.limit_complete_complex(pc).ss
        m = pc.dims.m
        step = 3 * m + 2
        assert len(rrefs) == step * (len(ss.pages) - 2)
        for k, page in enumerate(ss.pages[:-2]):
            adapted_rrefs(rrefs[k * step:k * step + 2 * m + 1], page)
        monkeypatch.undo()


def test_limit_ranks_only_the_last_page(monkeypatch):
    """SpectralSequence reads the ranks of every page whose cohomology the
    limit took off its adapted bases: pivot_columns sees exactly the
    differentials of the last page with a differential."""
    for pc in limit_families():
        ranked = counted(monkeypatch, linalg, "pivot_columns")
        ss = dg.limit_complete_complex(pc).ss
        assert [id(M) for M in ranked] == [id(d) for d in ss.pages[-2].diffs]
        monkeypatch.undo()


def test_limit_report_makes_no_rank_call(monkeypatch, tmp_path, capsys):
    """After limit_complete_complex returns, cmd_limit's page report and
    JSON pages read the kept ranks."""
    ranked, after = [], []
    limit = dg.limit_complete_complex

    def limit_then_count(*args):
        result = limit(*args)
        after.append(True)
        return result

    def ranks(fn):
        def wrapper(M):
            if after:
                ranked.append(M)
            return fn(M)
        return wrapper

    monkeypatch.setattr(linalg, "pivot_columns", ranks(linalg.pivot_columns))
    monkeypatch.setattr(cx, "rank", ranks(cx.rank))
    monkeypatch.setattr(dg, "limit_complete_complex", limit_then_count)
    for path in FAMILIES:
        after.clear()
        assert cli.main(["limit", str(path), "--json",
                         str(tmp_path / "out.json")]) == 0
        assert after == [True]
    assert "page 1:" in capsys.readouterr().out
    assert ranked == []


def test_stratum_label_makes_no_rank_call(monkeypatch):
    chains = enumerate_chains(GradedDims((1, 2, 2, 1)))
    sss = [canonical_ss_from_chain(c).ss for c in chains]
    ranked = counted_ranks(monkeypatch)
    assert [stratum_label(ss) for ss in sss] == chains
    assert ranked == []


def test_canonical_ss_ranks_each_page_once(monkeypatch):
    ranked = counted(monkeypatch, linalg, "pivot_columns")
    for dims in ((2, 2, 2), (1, 2, 2, 1)):
        for chain in enumerate_chains(GradedDims(dims)):
            ranked.clear()
            ss = canonical_ss_from_chain(chain).ss
            # The final page carries the zero differential and needs no rank.
            assert sorted(map(id, ranked)) == sorted(
                id(d) for page in ss.pages[:-1] for d in page.diffs)
