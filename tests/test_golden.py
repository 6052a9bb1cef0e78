"""Golden outputs, compared byte for byte.

Each case renders one canonical output and compares it with its file in
tests/golden/: ``limit --json`` on the demo families, with and without
the oracle; ``analyze --json`` on the demo complexes; ``poset --json``
on a few dims; and the emitted canonical spectral sequence and label of
every chain of two dims classes.  The output path that ``limit`` echoes
is written as OUT.

After an intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest

from varcom import cli, formats
from varcom.spectral import canonical_ss_from_chain, stratum_label
from varcom.strata import GradedDims, enumerate_chains

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FAMILIES = sorted((ROOT / "demos" / "families").glob("*.json"))
COMPLEXES = sorted((ROOT / "demos" / "complexes").glob("*.json"))
POSET_DIMS = ("1,2,1", "2,3,2", "1,2,2,1")
CHAIN_DIMS = ((2, 2, 2), (1, 2, 2, 1))


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"varcom {' '.join(argv)} exited {status}")
    return out.getvalue()


def _limit(family, oracle, workdir):
    def render():
        path = pathlib.Path(workdir) / "limit.json"
        extra = ["--oracle", "14"] if oracle else []
        text = _stdout(["limit", str(family), *extra, "--json", str(path)])
        return text.replace(str(path), "OUT") + path.read_text()
    return render


def _chains(dims):
    def render():
        lines = []
        for chain in enumerate_chains(GradedDims(dims)):
            ss = canonical_ss_from_chain(chain).ss
            lines.append(json.dumps(
                {"label": formats.emit_label(stratum_label(ss)),
                 "ss": formats.emit_spectral_sequence(ss)}) + "\n")
        return "".join(lines)
    return render


def cases(workdir):
    """Golden file name -> function rendering its expected text."""
    out = {}
    for f in FAMILIES:
        out[f"limit_{f.stem}.txt"] = _limit(f, False, workdir)
        out[f"limit_oracle14_{f.stem}.txt"] = _limit(f, True, workdir)
    for f in COMPLEXES:
        out[f"analyze_{f.stem}.json"] = (
            lambda f=f: _stdout(["analyze", str(f), "--json"]))
    for dims in POSET_DIMS:
        out[f"poset_{dims.replace(',', '-')}.json"] = (
            lambda dims=dims: _stdout(["poset", "--json", "--dims", dims]))
    for dims in CHAIN_DIMS:
        out[f"chains_{'-'.join(map(str, dims))}.jsonl"] = _chains(dims)
    return out


NAMES = sorted(cases(None))


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_golden(name, tmp_path):
    got = cases(tmp_path)[name]()
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert got == want


def test_rewrite_under_O_keeps_files(tmp_path):
    """The rewrite command, run under python -O on a copy of the tree,
    leaves every golden file byte for byte as it was."""
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "tests", "demos"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "-O", "tests/test_golden.py"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "src")})
    assert proc.returncode == 0, proc.stderr
    rewritten = tmp_path / "tests" / "golden"
    assert sorted(p.name for p in rewritten.iterdir()) == NAMES
    for name in NAMES:
        assert (rewritten / name).read_bytes() == (GOLDEN / name).read_bytes()


def main():
    """Render every case into a temporary directory, then replace
    tests/golden/ with it: a failing render leaves the old files."""
    with tempfile.TemporaryDirectory() as workdir:
        staged = pathlib.Path(workdir) / "golden"
        staged.mkdir()
        for name, render in cases(workdir).items():
            (staged / name).write_text(render(), encoding="utf-8")
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(staged, GOLDEN)
    print(f"wrote {len(NAMES)} golden files to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
