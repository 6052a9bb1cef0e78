import json
import os
import pathlib
import subprocess
import sys

import pytest

from varcom import cli, formats
from varcom import complexes as cx
from varcom.degeneration import PolyComplex
from varcom.linalg import Matrix
from varcom.rings import LOCAL
from varcom.strata import GradedDims
from varcom.suites import SuiteReport

from dot_grammar import check_dot

ROOT = pathlib.Path(__file__).resolve().parents[1]
FAMILIES = sorted((ROOT / "demos" / "families").glob("*.json"))
COMPLEXES = sorted((ROOT / "demos" / "complexes").glob("*.json"))


def run_cli(args, timeout=30):
    """varcom in a subprocess, so an input that hangs fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "varcom.cli", *args], capture_output=True,
        text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})


class TestDocuments:
    @pytest.mark.parametrize("path", COMPLEXES, ids=lambda p: p.stem)
    def test_complex_round_trip(self, path):
        doc = formats.load_json(str(path))
        c = formats.parse_complex(doc)
        again = formats.parse_complex(formats.emit_complex(c))
        assert again == c

    @pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.stem)
    def test_family_round_trip(self, path):
        doc = formats.load_json(str(path))
        pc = formats.parse_family(doc)
        again = formats.parse_family(formats.emit_family(pc))
        assert again == pc

    def test_rational_strings(self):
        doc = {"dims": [1, 1], "diffs": [[["3/2"]]]}
        c = formats.parse_complex(doc)
        assert str(c.diffs[0].entries[0][0]) == "3/2"
        assert formats.emit_complex(c)["diffs"][0][0][0] == "3/2"

    def test_error_paths_named(self):
        with pytest.raises(formats.DocumentError, match=r"diffs\[0\]\[1\]\[0\]"):
            formats.parse_complex({"dims": [1, 2], "diffs": [[[1], ["x/y/z"]]]})
        with pytest.raises(formats.DocumentError, match="pole"):
            formats.parse_family(
                {"dims": [1, 1], "diffs": [[[{"num": [1], "den": [0, 1]}]]]})
        with pytest.raises(formats.DocumentError):
            formats.parse_complex({"dims": [], "diffs": []})

    def test_family_shorthand_constant(self):
        pc = formats.parse_family({"dims": [1, 1], "diffs": [[["1/3"]]]})
        assert pc.diffs[0].entries[0][0].num(0) == formats.Fraction(1, 3)

    def test_spectral_sequence_round_trip(self):
        from varcom.degeneration import limit_complete_complex
        pc = formats.parse_family(formats.load_json(str(FAMILIES[0])))
        ss = limit_complete_complex(pc).ss
        doc = formats.emit_spectral_sequence(ss)
        assert formats.parse_spectral_sequence(doc) == ss


class TestPoset:
    def test_basic(self, capsys):
        assert cli.main(["poset", "--dims", "1,1,1"]) == 0
        out = capsys.readouterr().out
        assert "3 strata" in out and "2 maximal" in out

    def test_single_degree(self, capsys):
        assert cli.main(["poset", "--dims", "1"]) == 0
        assert "1 strata" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        dot_file = tmp_path / "g.dot"
        assert cli.main(["poset", "--dims", "1,2,1", "--dot", str(dot_file)]) == 0
        nodes, edges = check_dot(dot_file.read_text())
        assert (nodes, edges) == (4, 4)

    def test_unwritable_dot(self, tmp_path, capsys):
        dot_file = tmp_path / "missing" / "x.dot"
        assert cli.main(["poset", "--dims", "1,1", "--dot", str(dot_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--dot" in captured.err and captured.err.count("\n") == 1

    def test_dot_grammar_all_sizes(self, tmp_path):
        from varcom.strata import hasse_dot
        assert check_dot(hasse_dot(GradedDims((1, 1, 1)))) == (3, 2)
        assert check_dot(hasse_dot(GradedDims((1,)))) == (1, 0)
        assert check_dot(hasse_dot(GradedDims((2, 2, 2))))[0] > 4

    def test_malformed_dims(self, capsys):
        assert cli.main(["poset", "--dims", "1,x"]) == 2

    def test_json_mode(self, capsys):
        assert cli.main(["poset", "--dims", "2,2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["r"] for row in data["poset"]] == [[0], [1], [2]]

    def test_size_budget(self):
        # Without the budget this enumerated 77,531 strata.
        proc = run_cli(["poset", "--dims", "60,60,60,60"], timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "--dims" in proc.stderr
        assert str(cli.POSET_MAX_STRATA) in proc.stderr

    def test_size_budget_edge(self, capsys):
        # k + 1 ones bound |R| by 2^k; R itself is far smaller.
        assert cli.POSET_MAX_STRATA == 2 ** 16
        assert cli.main(["poset", "--dims", ",".join(["1"] * 17)]) == 0
        assert "2584 strata" in capsys.readouterr().out
        assert cli.main(["poset", "--dims", ",".join(["1"] * 18)]) == 2
        assert str(cli.POSET_MAX_STRATA) in capsys.readouterr().err


class TestAnalyze:
    @pytest.mark.parametrize("path", COMPLEXES, ids=lambda p: p.stem)
    def test_fixtures(self, path, capsys):
        assert cli.main(["analyze", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_rank_one_values(self, capsys):
        assert cli.main(["analyze", str(ROOT / "demos/complexes/rank_one.json"),
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["r"] == [1] and data["h"] == [1, 1]
        assert data["tangent_dim"] == 4 and data["orbit_dim"] == 3
        assert data["chart_jacobian_rank"] == 4

    def test_invalid_complex(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [1, 1, 1],
                                   "diffs": [[[1]], [[1]]]}))
        assert cli.main(["analyze", str(bad)]) == 2

    def test_missing_file(self):
        assert cli.main(["analyze", "no-such-file.json"]) == 2

    def test_size_budget(self, tmp_path, capsys):
        # Rejected from the dims alone: the diffs are never read.
        assert cli.ANALYZE_MAX_SQUARES == 400
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"dims": [12, 12, 12], "diffs": "unread"}))
        assert cli.main(["analyze", str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "432" in captured.err
        assert str(cli.ANALYZE_MAX_SQUARES) in captured.err

    def test_size_budget_edge(self, tmp_path, capsys):
        doc = tmp_path / "edge.json"
        doc.write_text(json.dumps({"dims": [20], "diffs": []}))
        assert cli.main(["analyze", str(doc), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stabilizer_dim"] == 400
        doc.write_text(json.dumps({"dims": [20, 1], "diffs": [[[0] * 20]]}))
        assert cli.main(["analyze", str(doc)]) == 2
        assert "401" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
    def test_orbit_invariant(self, flags):
        # tangent_data with the tangent, orbit and chart dimensions one too
        # large: the homotopy and chart identities still hold, and only the
        # closed form stratum_dim(r) = 3 tells.
        script = (
            "import sys\n"
            "from varcom import cli, complexes as cx\n"
            "tangent_data = cx.tangent_data\n"
            "def off_by_one(c):\n"
            "    td = tangent_data(c)\n"
            "    return td._replace(tangent=td.tangent + 1,\n"
            "                       orbit=td.orbit + 1, chart=td.chart + 1)\n"
            "cx.tangent_data = off_by_one\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script, "analyze",
             str(ROOT / "demos/complexes/rank_one.json")],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("invariant violated: orbit dimension 4 ")

    def test_one_homotopy_matrix_one_elimination(self, capsys, monkeypatch):
        built, eliminated = [], []
        homotopy = cx._homotopy_matrix

        def counted_homotopy(c):
            theta = homotopy(c)
            built.append(theta.cols)
            return theta

        def counted(fn):
            def wrapper(M):
                eliminated.append(M.cols)
                return fn(M)
            return wrapper

        monkeypatch.setattr(cx, "_homotopy_matrix", counted_homotopy)
        monkeypatch.setattr(cx, "pivot_columns", counted(cx.pivot_columns))
        monkeypatch.setattr(cx, "rank", counted(cx.rank))
        assert cli.main(["analyze", str(ROOT / "demos/complexes/rank_one.json"),
                         "--json"]) == 0
        normal = json.loads(capsys.readouterr().out)["normal_dim"]
        # Dims (2, 2): theta has sum(n_i^2) = 8 columns, and the one
        # elimination that sees them is that of [theta | eta].
        assert built == [8]
        assert [cols for cols in eliminated if cols >= 8] == [8 + normal]


class TestLimit:
    @pytest.mark.parametrize("path", FAMILIES, ids=lambda p: p.stem)
    def test_fixtures_with_oracle(self, path, capsys):
        assert cli.main(["limit", str(path), "--oracle", "14"]) == 0
        out = capsys.readouterr().out
        assert "oracle: agree" in out

    def test_page_report(self, capsys):
        assert cli.main(["limit",
                         str(ROOT / "demos/families/pencil_1_t.json")]) == 0
        out = capsys.readouterr().out
        assert "page 0: dims (2, 2) ranks (1,)" in out
        assert "label: [(1,)] -> (2,)" in out
        assert "reduced: true" in out

    def test_zero_family_not_reduced(self, tmp_path, capsys):
        doc = {"dims": [1, 1, 1], "diffs": [[[0]], [[0]]]}
        f = tmp_path / "zero.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["limit", str(f)]) == 0
        assert "reduced: false" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "limit.json"
        assert cli.main(["limit",
                         str(ROOT / "demos/families/middle_degeneration.json"),
                         "--json", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data["reduced"] is True
        assert data["label"] == {"chain": [[0, 0]], "terminal": [1, 1]}
        assert data["pages"][0] == {"dims": [1, 2, 1], "ranks": [0, 0]}

    def test_oracle_too_small(self, capsys):
        assert cli.main(["limit",
                         str(ROOT / "demos/families/collineation_chain.json"),
                         "--oracle", "6"]) == 2

    def test_not_a_complex(self, tmp_path):
        doc = {"dims": [1, 1, 1],
               "diffs": [[[{"num": [0, 1]}]], [[1]]]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["limit", str(f)]) == 2

    def test_oracle_budget(self):
        proc = run_cli(["limit", str(ROOT / "demos/families/pencil_1_t.json"),
                        "--oracle", "100000"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "--oracle" in proc.stderr
        assert str(cli.ORACLE_MAX_UNROLLED) in proc.stderr

    def test_unwritable_json(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "limit.json"
        assert cli.main(["limit", str(ROOT / "demos/families/pencil_1_t.json"),
                         "--json", str(out_file)]) == 2
        err = capsys.readouterr().err
        assert "--json" in err and err.count("\n") == 1

    def test_internal_error_is_exit_1(self, monkeypatch, capsys):
        def singular(pc):
            raise ValueError("matrix is singular")
        monkeypatch.setattr(cli.dg, "dvr_decompose", singular)
        path = str(ROOT / "demos/families/pencil_1_t.json")
        assert cli.main(["limit", path]) == 1
        err = capsys.readouterr().err
        assert err == "internal error: matrix is singular\n"

    def test_invariant_violation_is_exit_1(self, monkeypatch, capsys):
        # A family that got past validation with D^2 != 0: the block
        # decomposition's detachment check fails, which is not bad input.
        def broken_family(doc):
            pc = PolyComplex.__new__(PolyComplex)
            pc.dims = GradedDims((1, 1, 1))
            pc.diffs = (Matrix(LOCAL, 1, 1, [[1]]), Matrix(LOCAL, 1, 1, [[1]]))
            return pc
        monkeypatch.setattr(cli.formats, "parse_family", broken_family)
        path = str(ROOT / "demos/families/pencil_1_t.json")
        assert cli.main(["limit", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant violated:") and err.count("\n") == 1

    def test_oracle_tables_disagree_is_exit_1(self, monkeypatch, capsys):
        # A kernel that loses a vector at level p = N//2 of degree 0 only:
        # the tables at p and p - 1, which always agree, then disagree.
        kernel_basis = cli.dg.kernel_basis

        def doctored(M):
            ker = kernel_basis(M)
            if M.cols != (8 - 8 // 2) * 2 or not ker.cols:
                return ker
            return ker.submatrix(range(ker.rows), range(ker.cols - 1))
        monkeypatch.setattr(cli.dg, "kernel_basis", doctored)
        path = str(ROOT / "demos/families/pencil_1_t.json")
        assert cli.main(["limit", path, "--oracle", "8"]) == 1
        assert capsys.readouterr().err == (
            "invariant violated: filtered tables disagree at p = 4 and 3\n")


class TestVerify:
    def test_census(self, capsys):
        assert cli.main(["verify", "--suite", "census", "--dims", "1,1,1",
                         "--p", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_random(self, capsys):
        assert cli.main(["verify", "--suite", "random", "--seed", "1",
                         "--cases", "20", "--max-dim", "3", "--max-m", "3"]) == 0

    def test_degeneration(self, capsys):
        assert cli.main(["verify", "--suite", "degeneration", "--seed", "1",
                         "--cases", "5"]) == 0

    def test_json_report(self, capsys):
        assert cli.main(["verify", "--suite", "census", "--dims", "1,1",
                         "--p", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_budget_exceeded_is_input_error(self, capsys):
        assert cli.main(["verify", "--suite", "census", "--dims", "3,3,3",
                         "--p", "5"]) == 2

    def test_failure_exit_code(self, capsys, monkeypatch):
        # a failing suite must map to exit code 1
        def fake_suite(seed, max_m, max_n, cases):
            return SuiteReport("random", {}, 1,
                               [{"check": "synthetic failure"}], 0.0)
        monkeypatch.setattr(cli.suites, "random_rational_suite", fake_suite)
        assert cli.main(["verify", "--suite", "random"]) == 1
        assert "synthetic failure" in capsys.readouterr().out

    def test_bad_flags(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_negative_cases_rejected(self, capsys):
        assert cli.main(["verify", "--suite", "random", "--cases", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cases" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags,named", [
        (["--suite", "random", "--max-dim", "0", "--cases", "2"], "--max-dim"),
        (["--suite", "degeneration", "--max-dim", "0"], "--max-dim"),
        (["--suite", "random", "--max-m", "0"], "--max-m"),
        (["--suite", "census", "--p", "4"], "--p"),
        (["--suite", "census", "--p", "101"], "--p"),
    ])
    def test_flag_ranges(self, flags, named):
        proc = run_cli(["verify", *flags])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and named in proc.stderr

    def test_random_size_budget(self):
        # (max_m + 1) * max_dim^2 = 405 bounds sum(n_i^2) of a drawn dims
        proc = run_cli(["verify", "--suite", "random", "--max-m", "4",
                        "--max-dim", "9"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert "405" in proc.stderr and str(cli.ANALYZE_MAX_SQUARES) in proc.stderr

    def test_random_size_budget_edge(self, capsys):
        assert cli.main(["verify", "--suite", "random", "--max-m", "5",
                         "--max-dim", "8", "--cases", "0"]) == 0   # 384

    def test_degeneration_max_m(self, capsys):
        assert cli.main(["verify", "--suite", "degeneration", "--seed", "1",
                         "--cases", "2", "--max-m", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["max_m"] == 1

    def test_closed_stdout_pipe(self):
        # Over 64 KiB of JSON, so the writer is still writing when the
        # reader closes the pipe after one line.
        src = str(ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "varcom.cli", "poset", "--json",
             "--dims", ",".join(["1"] * 13)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""
