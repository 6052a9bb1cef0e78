"""Command-line front end.

Exit codes: 0 on success, 1 on a mathematical failure (oracle
disagreement, failing verification suite, violated invariant) or an
internal error, 2 on malformed input or flags.  A reader that closes
stdout early (``| head``) is not a failure: exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import complexes as cx
from . import degeneration as dg
from . import formats
from . import strata as st
from . import suites
from .rings import SMALL_PRIMES

# Largest unrolled dimension sum(n) * N that ``limit --oracle N`` accepts.
ORACLE_MAX_UNROLLED = 128
# Largest sum(n_i^2) that ``analyze`` accepts: the column count of the
# homotopy matrix, which with one column per normal direction appended is
# its one large elimination.  A random point on dims (11, 11, 11), at 363,
# takes 0.2 to 0.3 s (Python 3.11, one Xeon core).  ``verify --suite
# random`` is held to the same limit on the largest dims it can draw,
# (max_m + 1) * max_dim^2.
ANALYZE_MAX_SQUARES = 400
# Largest bound prod(min(n_{i-1}, n_i) + 1) on the number of strata |R|
# that ``poset`` accepts.
POSET_MAX_STRATA = 2 ** 16


def _parse_dims_flag(text: str) -> st.GradedDims:
    try:
        parts = [int(x) for x in text.split(",")]
        return st.GradedDims(parts)
    except ValueError as exc:
        raise formats.DocumentError(f"bad --dims {text!r}: {exc}") from exc


def _open_output(path: str, flag: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise formats.DocumentError(
            f"cannot write {flag} {path}: {exc.strerror}") from exc


def cmd_poset(args) -> int:
    dims = _parse_dims_flag(args.dims)
    bound = 1
    for a, b in zip(dims.n, dims.n[1:]):
        bound *= min(a, b) + 1
        if bound > POSET_MAX_STRATA:
            print(f"error: --dims {args.dims}: the bound prod(min(n[i-1], "
                  f"n[i]) + 1) on the number of strata exceeds the limit "
                  f"{POSET_MAX_STRATA}", file=sys.stderr)
            return 2
    rows = []
    for rv in st.enumerate_R(dims):
        rows.append({
            "r": list(rv.r),
            "length": rv.length(),
            "maximal": st.is_maximal(rv),
            "h": list(rv.cohomology_dims()),
            "stratum_dim": st.stratum_dim(rv),
        })
    if args.dot:
        with _open_output(args.dot, "--dot") as fh:
            fh.write(st.hasse_dot(dims) + "\n")
    if args.json:
        print(json.dumps({"dims": list(dims.n), "poset": rows}, indent=2))
    else:
        print(f"rank poset for dims {dims.n}: {len(rows)} strata, "
              f"{sum(row['maximal'] for row in rows)} maximal")
        for row in rows:
            mark = "max" if row["maximal"] else "   "
            print(f"  r={tuple(row['r'])} |r|={row['length']} {mark} "
                  f"h={tuple(row['h'])} dim={row['stratum_dim']}")
    if args.dot:
        print(f"wrote Hasse diagram to {args.dot}")
    return 0


def _page_report(limit: dg.LimitResult) -> list[str]:
    lines = []
    for nu, (page, rv) in enumerate(zip(limit.ss.pages, limit.ss.ranks)):
        lines.append(f"  page {nu}: dims {page.dims.n} ranks {rv.r}")
    if limit.label is not None:
        chain = [e.r for e in limit.label.elements]
        lines.append(f"  label: {chain} -> {limit.label.terminal.r}")
    lines.append(f"  reduced: {str(limit.reduced).lower()}")
    return lines


def cmd_limit(args) -> int:
    doc = formats.load_json(args.family)
    pc = formats.parse_family(doc)
    unrolled = pc.dims.total() * (args.oracle or 0)
    if unrolled > ORACLE_MAX_UNROLLED:
        print(f"error: --oracle {args.oracle} unrolls to sum(n) * N = "
              f"{unrolled}, above the limit {ORACLE_MAX_UNROLLED}",
              file=sys.stderr)
        return 2
    dec = dg.dvr_decompose(pc)
    limit = dg.limit_complete_complex(pc, dec)
    mult = dec.multiplicities()
    table = dg.exponent_rank_table(pc, dec)

    oracle_status = None
    if args.oracle is not None:
        exps = dec.exponents()
        need = 2 * (exps[-1] if exps else 0) + 4
        if args.oracle < need:
            print(f"error: --oracle {args.oracle} is too small for exponents "
                  f"{exps}; need at least {need}", file=sys.stderr)
            return 2
        got = dg.filtered_oracle(pc, args.oracle)
        want = dg.page_table_from_multiplicities(pc.dims, mult, len(got) - 2)
        oracle_status = (list(got) == list(want))

    payload = {
        "dims": list(pc.dims.n),
        "multiplicities": [{"degree": d, "exponent": a, "count": c}
                           for (d, a), c in sorted(mult.items())],
        "pages": [{"dims": list(p.dims.n), "ranks": list(rv.r)}
                  for p, rv in zip(limit.ss.pages, limit.ss.ranks)],
        "exponent_table": [{"dims": list(ds), "ranks": list(rs)}
                           for ds, rs in table],
        "label": formats.emit_label(limit.label),
        "reduced": limit.reduced,
        "spectral_sequence": formats.emit_spectral_sequence(limit.ss),
    }
    if oracle_status is not None:
        payload["oracle"] = "agree" if oracle_status else "disagree"

    if args.json:
        with _open_output(args.json, "--json") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote limit data to {args.json}")
    print(f"limit of family on dims {pc.dims.n}:")
    for line in _page_report(limit):
        print(line)
    if oracle_status is not None:
        print(f"  oracle: {'agree' if oracle_status else 'DISAGREE'}")
        if not oracle_status:
            return 1
    return 0


def cmd_analyze(args) -> int:
    doc = formats.load_json(args.complex)
    c = formats.parse_complex(doc, max_squares=ANALYZE_MAX_SQUARES)
    # The split's adapted bases give the ranks, and tangent_data reuses
    # them: one elimination per differential.
    _, rv = cx.split_canonical(c)
    h = rv.cohomology_dims()
    td = cx.tangent_data(c)
    if td.orbit != st.stratum_dim(rv):
        raise dg.InvariantError(
            f"orbit dimension {td.orbit} differs from stratum_dim(r) = "
            f"{st.stratum_dim(rv)} at r = {rv.r}")
    homotopy_ok = (td.tangent - td.orbit == td.normal)
    chart_ok = (td.chart == td.orbit + td.normal)
    payload = {
        "dims": list(c.dims.n),
        "r": list(rv.r),
        "h": list(h),
        "tangent_dim": td.tangent,
        "orbit_dim": td.orbit,
        "stabilizer_dim": td.stabilizer,
        "normal_dim": td.normal,
        "chart_jacobian_rank": td.chart,
        "homotopy_identity": homotopy_ok,
        "chart_identity": chart_ok,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        status = "OK" if (homotopy_ok and chart_ok) else "VIOLATED"
        print(f"r={rv.r} h={h} tangent={td.tangent} orbit={td.orbit} "
              f"stabilizer={td.stabilizer} normal={td.normal} "
              f"chart={td.chart}: {status}")
    return 0 if (homotopy_ok and chart_ok) else 1


def cmd_verify(args) -> int:
    bad = None
    squares = (args.max_m + 1) * args.max_dim ** 2
    if args.cases < 0:
        bad = f"--cases must be non-negative, got {args.cases}"
    elif args.max_m < 1:
        bad = f"--max-m must be at least 1, got {args.max_m}"
    elif args.max_dim < 1:
        bad = f"--max-dim must be at least 1, got {args.max_dim}"
    elif args.suite == "census" and args.p not in SMALL_PRIMES:
        bad = f"--p must be a prime <= 97, got {args.p}"
    elif args.suite == "random" and squares > ANALYZE_MAX_SQUARES:
        bad = (f"--max-m {args.max_m} --max-dim {args.max_dim} allow dims "
               f"with sum(n_i^2) up to (max_m + 1) * max_dim^2 = {squares}, "
               f"above the limit {ANALYZE_MAX_SQUARES}")
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    if args.suite == "census":
        dims = _parse_dims_flag(args.dims or "1,1,1")
        report = suites.exhaustive_field_census(dims, args.p)
    elif args.suite == "random":
        report = suites.random_rational_suite(
            args.seed, max_m=args.max_m, max_n=args.max_dim, cases=args.cases)
    elif args.suite == "degeneration":
        report = suites.degeneration_suite(
            args.seed, cases=args.cases, max_m=min(args.max_m, 3),
            max_n=min(args.max_dim, 3))
    else:  # argparse choices make this unreachable
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
        for f in report.failures[:20]:
            print(f"  failure: {f}")
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: argparse objects reference
    each other in cycles, so a parser per call would leave garbage that
    only the cyclic collector frees."""
    parser = argparse.ArgumentParser(
        prog="varcom",
        description="Exact computations with varieties of complexes and "
                    "limits of one-parameter families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poset = sub.add_parser("poset", help="enumerate the rank poset R")
    p_poset.add_argument("--dims", required=True,
                         help="comma-separated dimension vector, e.g. 1,2,1")
    p_poset.add_argument("--dot", help="write the Hasse diagram to this DOT file")
    p_poset.add_argument("--json", action="store_true", help="JSON output")
    p_poset.set_defaults(func=cmd_poset)

    p_limit = sub.add_parser("limit", help="limit of a family as t -> 0")
    p_limit.add_argument("family", help="family JSON document")
    p_limit.add_argument("--oracle", type=int, metavar="N",
                         help="cross-check with the filtered-complex oracle "
                              "at truncation order N")
    p_limit.add_argument("--json", metavar="OUT",
                         help="also write full limit data to OUT")
    p_limit.set_defaults(func=cmd_limit)

    p_an = sub.add_parser("analyze", help="tangent/orbit/chart data of a complex")
    p_an.add_argument("complex", help="complex JSON document")
    p_an.add_argument("--json", action="store_true", help="JSON output")
    p_an.set_defaults(func=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True,
                       choices=["census", "random", "degeneration"])
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--cases", type=int, default=100)
    p_ver.add_argument("--dims", help="dims for the census suite")
    p_ver.add_argument("--p", type=int, default=2, help="census prime")
    p_ver.add_argument("--max-dim", dest="max_dim", type=int, default=5)
    p_ver.add_argument("--max-m", dest="max_m", type=int, default=4)
    p_ver.add_argument("--json", action="store_true", help="JSON report")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except dg.InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1
    except (formats.DocumentError, cx.NotAComplexError,
            suites.CensusBudgetError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
