#!/usr/bin/env python3
"""Benchmark of varcom through its public entry points.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-test

Run from the root of a source checkout; varcom is imported from ./src.
Each run is one process and one closed loop with no threads: the next
operation starts when the previous one has finished.  The inputs are made
from the seed (gen.py) before anything is timed, written as the JSON
documents that ``varcom limit`` and ``varcom analyze`` read, and every
output is checked against its planted or brute-force answer (checks.py);
an operation whose output is wrong counts as failed.  The loop repeats the
whole batch until the operations have taken --seconds.

Timing.  On a machine shared with other work the same operation can take
twice as long from one second to the next.  Every timed call is therefore
bracketed by a speed probe (Fraction arithmetic that does not use varcom)
and scaled to the probe's speed on the reference machine, and an
operation's time is the mean of the faster half of its rounds.
ops_per_s is the batch size over the sum of those times, latency_p50_s
their median, and setup_s the median of SETUP_REPEATS corrected set-ups,
each a fresh import of varcom that parses every document of the batch.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are
the end-to-end ones (ops_per_s, latency_p50_s, setup_s, peak_rss_mib).
With --trace 1 the run measures half its time untraced and half with the
layer wrappers of layertrace.py installed, and reports the per-layer
metrics and the tracing overhead.  Results and trace totals are also
written under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import gen
import layertrace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# The speed probe's size, and its time on the machine whose figures are in
# README.md when that machine was not busy with other work.
PROBE_STEPS = 100
PROBES = 4
PROBE_REF_S = 0.00045
FAMILY_WORKLOADS = ("oracle", "decompose")


def _cli(vc, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = vc.cli.main(argv)
    return rc, out.getvalue()


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


# -- one operation per workload: the calls into varcom that are timed

def op_oracle(vc, case, box):
    return _cli(vc, ["limit", case["path"], "--oracle", str(gen.ORACLE_N),
                     "--json", case["out"]])


def op_decompose(vc, case, box):
    return _cli(vc, ["limit", case["path"], "--json", case["out"]])


def op_strata(vc, case, box):
    st, sp = vc.strata, vc.spectral
    rc, stdout = _cli(vc, ["poset", "--json", "--dims", ",".join(map(str, case["dims"]))])
    chains = st.enumerate_chains(st.GradedDims(case["dims"]))
    labels = [sp.stratum_label(sp.canonical_ss_from_chain(c).ss) for c in chains]
    return rc, stdout, chains, labels


def op_analyze(vc, case, box):
    return _cli(vc, ["analyze", case["path"], "--json"])


OPS = {"oracle": op_oracle, "decompose": op_decompose,
       "strata": op_strata, "analyze": op_analyze}


# -- what each operation returned, gathered after the clock stopped

def seen_oracle(case, result, box):
    rc, stdout = result
    return {"rc": rc, "stdout": stdout, "payload": _load(case["out"]),
            "oracle_table": box.pop("filtered_oracle", None)}


def seen_decompose(case, result, box):
    rc, _ = result
    return {"rc": rc, "payload": _load(case["out"]), "doc": case["doc"],
            "dec": box.pop("dvr_decompose", None)}


def seen_strata(case, result, box):
    rc, stdout, chains, labels = result
    return {"rc": rc, "poset": json.loads(stdout), "chains": chains,
            "labels": labels}


def seen_analyze(case, result, box):
    rc, stdout = result
    return {"rc": rc, "payload": json.loads(stdout)}


SEEN = {"oracle": seen_oracle, "decompose": seen_decompose,
        "strata": seen_strata, "analyze": seen_analyze}

# Results the checks need that the CLI does not print: the oracle's own
# table and the decomposition's basis change g.
CAPTURED = {"oracle": "filtered_oracle", "decompose": "dvr_decompose"}


@contextlib.contextmanager
def capturing(module, name, box):
    """Keep the last return value of module.name in box[name]."""
    if name is None:
        yield
        return
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        box[name] = fn(*args, **kwargs)
        return box[name]

    setattr(module, name, recording)
    try:
        yield
    finally:
        setattr(module, name, fn)


def write_inputs(workload, cases, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    for k, case in enumerate(cases):
        if "doc" in case:
            case["path"] = str(workdir / f"{workload}-{k:03d}.json")
            case["out"] = str(workdir / f"{workload}-{k:03d}.limit.json")
            with open(case["path"], "w", encoding="utf-8") as fh:
                json.dump(case["doc"], fh)


def set_up(workload, cases):
    """Import varcom afresh, parse every input of the batch, and return the
    imported modules."""
    for name in [n for n in sys.modules if n == "varcom" or n.startswith("varcom.")]:
        del sys.modules[name]
    import varcom.cli
    vc = SimpleNamespace(cli=varcom.cli, **{layer: getattr(varcom, layer)
                                           for layer in layertrace.LAYERS})
    for case in cases:
        if workload in FAMILY_WORKLOADS:
            vc.formats.parse_family(vc.formats.load_json(case["path"]))
        elif workload == "analyze":
            vc.formats.parse_complex(vc.formats.load_json(case["path"]))
        else:
            vc.strata.GradedDims(case["dims"])
    return vc


def _probe_once():
    x = Fraction(1, 3)
    for i in range(PROBE_STEPS):
        x = (x * Fraction(i % 7 + 1, 5) + 1) / 3
    return x


def machine_time():
    """Mean seconds of PROBES runs of the speed probe, now."""
    t0 = perf_counter()
    for _ in range(PROBES):
        _probe_once()
    return (perf_counter() - t0) / PROBES


def timed(fn, *args):
    """Call fn and return (its seconds corrected for machine speed, its
    result, its raw seconds).  The probe is timed just before and just
    after the call, and the call's time is scaled by PROBE_REF_S over the
    probe's mean."""
    before = machine_time()
    t0 = perf_counter()
    result = fn(*args)
    dt = perf_counter() - t0
    after = machine_time()
    return dt * PROBE_REF_S * 2 / (before + after), result, dt


def faster_half_mean(times):
    """Noise on a shared machine slows an operation far more often than it
    speeds it up, so an operation's time is the mean of its faster half."""
    times = sorted(times)
    return statistics.mean(times[:max(1, len(times) // 2)])


def measure(workload, vc, cases, seconds):
    """Run whole rounds of the batch until the operations took `seconds`;
    an operation's time is faster_half_mean of its corrected times."""
    box = {}
    samples = [[] for _ in cases]
    attempted, failed, rounds, busy, corrected, problems_seen = 0, 0, 0, 0.0, 0.0, []
    check = checks.CHECKS[workload]
    with capturing(vc.degeneration, CAPTURED.get(workload), box):
        while busy < seconds or not rounds:
            rounds += 1
            for k, case in enumerate(cases):
                attempted += 1
                try:
                    dt, result, raw = timed(OPS[workload], vc, case, box)
                    problems = check(case["expect"], SEEN[workload](case, result, box))
                except Exception as exc:  # noqa: BLE001 - a crash fails the operation
                    dt, raw, problems = None, 0.0, [f"{type(exc).__name__}: {exc}"]
                busy += raw
                corrected += dt or 0.0
                if problems:
                    failed += 1
                    problems_seen.append({"case": k, "problems": problems})
                else:
                    samples[k].append(dt)
    per_op = [faster_half_mean(s) for s in samples if s]
    return SimpleNamespace(
        attempted=attempted, failed=failed, rounds=rounds, problems=problems_seen,
        speed=corrected / busy if busy else 1.0,
        ops_per_s=len(per_op) / sum(per_op) if per_op else 0.0,
        latency_p50_s=statistics.median(per_op) if per_op else 0.0)


def run(workload, seed, seconds, trace):
    cases = gen.make_cases(workload, seed)
    workdir = OUT / f"work-{os.getpid()}"
    write_inputs(workload, cases, workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dt, vc, _ = timed(set_up, workload, cases)
            setups.append(dt)
        if not trace:
            m = measure(workload, vc, cases, seconds)
            runs = [m]
            metrics = {
                "ops_per_s": {"value": m.ops_per_s, "unit": "1/s"},
                "latency_p50_s": {"value": m.latency_p50_s, "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mib": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
            }
            summary = None
        else:
            plain = measure(workload, vc, cases, seconds / 2)
            tracer = layertrace.Tracer()
            tracer.install({layer: getattr(vc, layer) for layer in layertrace.LAYERS})
            try:
                traced = measure(workload, vc, cases, seconds / 2)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
            metrics = tracer.metrics(traced.attempted, traced.speed)
            metrics["trace.untraced_ops_per_s"] = {"value": plain.ops_per_s, "unit": "1/s"}
            metrics["trace.traced_ops_per_s"] = {"value": traced.ops_per_s, "unit": "1/s"}
            metrics["trace.overhead_ratio"] = {
                "value": plain.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0,
                "unit": "ratio"}
            summary = tracer.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, batch=len(cases), rounds=[r.rounds for r in runs],
                  setups_s=setups,
                  python=platform.python_version(), cpus=os.cpu_count(),
                  problems=[p for r in runs for p in r.problems][:20])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if summary is not None:
        with open(OUT / f"{workload}-seed{seed}.trace.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return result


def spoil(workload, expect):
    """Make one expected answer of a case wrong."""
    if workload == "oracle":
        block = expect["blocks"][0]
        block[1] = (block[1] + 1) % (gen.ORACLE_TOP + 1)
    elif workload == "decompose":
        expect["r"][0] -= 1
    elif workload == "strata":
        expect["chains"] += 1
    else:
        expect["r"] = [0] * len(expect["r"])


def self_test():
    """Show, per workload, that right answers pass and that the operation
    fed one wrong expected answer is counted as failed."""
    ok = True
    workdir = OUT / f"work-{os.getpid()}"
    try:
        for workload in gen.WORKLOADS:
            cases = gen.make_cases(workload, 0)[:2]
            write_inputs(workload, cases, workdir)
            vc = set_up(workload, cases)
            good = measure(workload, vc, cases, 0)
            bad_cases = copy.deepcopy(cases)
            spoil(workload, bad_cases[0]["expect"])
            bad = measure(workload, vc, bad_cases, 0)
            passed = (good.failed, bad.failed, bad.attempted) == (0, 1, 2)
            ok = ok and passed
            print(f"{workload}: right answers {good.failed}/{good.attempted} failed, "
                  f"one wrong answer {bad.failed}/{bad.attempted} failed: "
                  f"{'PASS' if passed else 'FAIL'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="varcom benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show that a wrong expected answer fails its operation")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # varcom checks invariants with assert; -O would time a program
        # without them.
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "varcom" / "__init__.py").is_file():
        print(f"error: no varcom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
