#!/usr/bin/env python3
"""cadkit benchmark.

    python3 cadbench/run.py --workload {plane,dh,project} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/``.
One process, one thread, a closed loop with one client: problems run back
to back, with ``CADKIT_JOBS=1``.  Each problem has a time limit; a
timeout, an exception or a wrong answer counts as a failed problem.
Correctness checks run between problems, outside the timed region.

``--trace 0`` runs problems until ``S`` seconds of problem time have
passed and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of problems (``S`` times the workload's trace rate) once plain and
once with every public layer function wrapped in a span, prints the
per-layer metrics and the tracing overhead, and writes the spans to
``cadbench/out/``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from tracer import TIMING_SPANS, SpanSummary, Tracer, per_layer  # noqa: E402
from workloads import WORKLOADS, Workload, generate, problem_rng  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TRACE_SLACK = 4          # traced problems get this multiple of the limit
CHECK_LIMIT_S = 60.0
TAIL_BEYOND = 10         # samples required beyond the tail percentile
# One calibration chunk takes this long on the reference host (a 2-core
# x86-64 sandbox VM under CPython 3.11); see calibrate().
CHUNK_REF_S = 0.0015
BRACKET_CHUNKS = 4       # chunks timed before and after each timed call
SAMPLE_EVERY_S = 0.025   # process CPU time between chunks inside the call

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cadkit; "
                "print(time.perf_counter() - t)")


class ProblemTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise ProblemTimeout()


@dataclass
class Outcome:
    status: str                  # "ok", "timeout", "wrong" or an exception name
    seconds: float               # wall time as measured
    result: object = None
    timings: Optional[Dict[str, float]] = None
    scale: float = 1.0           # host speed factor: reference / local

    @property
    def normalized(self) -> float:
        return self.seconds * self.scale


def calibrate() -> float:
    """Wall time of a fixed chunk of pure-Python rational arithmetic and
    dict traffic, the kind of work the library does.  The host's speed
    drifts by tens of percent within seconds (shared CPUs); work timed
    next to these chunks drifts with them, the ratio does not."""
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i % 89 + 1, i % 97 + 1) * 3
        seen[(i % 50, i % 7)] = acc.denominator
    return time.perf_counter() - t0


def calibrated(fn, inside_too: bool = True):
    """Run ``fn`` with calibration chunks timed before and after it and,
    if ``inside_too``, every SAMPLE_EVERY_S of CPU time during it (from a
    SIGPROF handler).  Returns ``fn``'s value, the host speed factor
    (reference chunk time over mean chunk time) and the wall time the
    chunks inside took."""
    samples = [calibrate() for _ in range(BRACKET_CHUNKS)]
    inside: List[float] = []

    def sample(signum, frame):
        inside.append(calibrate())

    previous = signal.signal(signal.SIGPROF, sample)
    if inside_too:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        value = fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    samples += inside + [calibrate() for _ in range(BRACKET_CHUNKS)]
    return value, CHUNK_REF_S / statistics.fmean(samples), sum(inside)


def run_one(cadkit, wl: Workload, parsed, limit: float) -> Outcome:
    timings: Dict[str, float] = {}
    result, status = None, "ok"
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        result = wl.solve(cadkit, parsed, timings)
    except ProblemTimeout:
        status = "timeout"
    except Exception as exc:  # the library failing is a failed problem
        status = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
    return Outcome(status, elapsed, result, timings)


def check_one(cadkit, wl: Workload, problem, result, rng) -> Optional[str]:
    signal.setitimer(signal.ITIMER_REAL, CHECK_LIMIT_S)
    try:
        return wl.check(cadkit, problem, result, rng)
    except ProblemTimeout:
        return "check timed out"
    except Exception as exc:
        return "check raised %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_seconds() -> float:
    """Median speed-normalized time to import cadkit in a fresh
    interpreter."""
    def one():
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout)
    times = []
    for _ in range(IMPORT_REPEATS):
        t, scale, _ = calibrated(one)       # the import runs in the child
        times.append(t * scale)
    return statistics.median(times)


def setup(cadkit, wl: Workload, seed: int, count: int):
    """Generate and parse ``count`` problems several times; returns the
    last problems, their parsed inputs and the median speed-normalized
    time."""
    def one():
        t0 = time.perf_counter()
        problems = generate(cadkit, wl, seed, count)
        parsed = [wl.parse(cadkit, p) for p in problems]
        return problems, parsed, time.perf_counter() - t0
    times = []
    for _ in range(SETUP_REPEATS):
        (problems, parsed, t), scale, spent = calibrated(one)
        times.append((t - spent) * scale)
    return problems, parsed, statistics.median(times)


def timed_one(cadkit, wl: Workload, parsed, limit: float,
              inside_too: bool = True) -> Outcome:
    out, scale, spent = calibrated(lambda: run_one(cadkit, wl, parsed, limit),
                                   inside_too)
    out.seconds -= spent
    out.scale = scale
    return out


def solve_and_check(cadkit, wl: Workload, problem, parsed, limit: float,
                    rng) -> Outcome:
    out = timed_one(cadkit, wl, parsed, limit)
    if out.status == "ok":
        err = check_one(cadkit, wl, problem, out.result, rng)
        if err is not None:
            print("wrong answer: %s" % err)
            out.status = "wrong"
    return out


def tail(values: List[float]):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    vals = sorted(values)
    n = len(vals)
    if n <= TAIL_BEYOND:
        return vals[-1], 100.0
    return vals[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(outcomes: List[Outcome], limit: float) -> dict:
    """Times are speed-normalized.  Failed problems rank slower than
    every completed one: their latency counts as the time limit, which no
    completed problem reaches."""
    busy = sum(o.normalized for o in outcomes)
    verified = sum(o.status == "ok" for o in outcomes)
    lat = [o.normalized if o.status == "ok"
           else max(o.normalized, limit) for o in outcomes]
    tail_s, tail_pct = tail(lat)
    return {
        "problems_per_s": verified / busy,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "failed_ratio": (len(outcomes) - verified) / len(outcomes),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary_line(outcomes: List[Outcome]) -> str:
    kinds: Dict[str, int] = {}
    for o in outcomes:
        if o.status != "ok":
            kinds[o.status] = kinds.get(o.status, 0) + 1
    failed = ", ".join("%s %d" % kv for kv in sorted(kinds.items()))
    return "attempted %d, verified %d, failed %d%s" % (
        len(outcomes), len(outcomes) - sum(kinds.values()),
        sum(kinds.values()), " (%s)" % failed if failed else "")


def measured_run(cadkit, wl: Workload, seed: int, seconds: float) -> dict:
    import_s = import_seconds()
    pool = max(1, math.ceil(seconds * wl.pool_per_s))
    problems, parsed, gen_s = setup(cadkit, wl, seed, pool)
    outcomes: List[Outcome] = []
    busy = 0.0
    while busy < seconds:
        i = len(outcomes)
        j = i % pool
        out = solve_and_check(cadkit, wl, problems[j], parsed[j], wl.limit_s,
                              problem_rng(wl.name + "/check", seed, i))
        busy += out.seconds
        out.result = None
        outcomes.append(out)
        gc.collect()
    m = end_to_end(outcomes, wl.limit_s)
    setup_s = import_s + gen_s
    rss = peak_rss_mb()
    n = len(outcomes)
    verified = sum(o.status == "ok" for o in outcomes)
    scales = [o.scale for o in outcomes]
    print(summary_line(outcomes) + "; time limit %g s per problem%s" % (
        wl.limit_s, "; pool of %d wrapped" % pool if n > pool else ""))
    print("times are speed-normalized: host speed factor median %.3f "
          "(range %.3f-%.3f); as measured, %.1f s of problems at %.4f "
          "problems/s" % (statistics.median(scales), min(scales),
                          max(scales), busy, verified / busy))
    print("%-16s %.4f 1/s" % ("problems_per_s", m["problems_per_s"]))
    print("%-16s %.4f s" % ("latency_p50_s", m["latency_p50_s"]))
    print("%-16s %.4f s  (p%.1f of %d samples, %d beyond)" % (
        "latency_tail_s", m["latency_tail_s"], m["tail_percentile"], n,
        TAIL_BEYOND if n > TAIL_BEYOND else 0))
    print("%-16s %.4f ratio" % ("failed_ratio", m["failed_ratio"]))
    print("%-16s %.4f s  (import %.4f + generate/parse %d problems %.4f)" % (
        "setup_s", setup_s, import_s, pool, gen_s))
    print("%-16s %.1f MB" % ("peak_rss_mb", rss))
    metrics = {
        "problems_per_s": (m["problems_per_s"], "1/s"),
        "latency_p50_s": (m["latency_p50_s"], "s"),
        "latency_tail_s": (m["latency_tail_s"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    wrong = sum(o.status == "wrong" for o in outcomes)
    return _result(outcomes, wrong, metrics)


def traced_run(cadkit, wl: Workload, seed: int, seconds: float) -> dict:
    n = max(1, round(seconds * wl.trace_per_s))
    problems, parsed, _ = setup(cadkit, wl, seed, n)
    plain: List[Outcome] = []
    for j in range(n):
        out = solve_and_check(cadkit, wl, problems[j], parsed[j], wl.limit_s,
                              problem_rng(wl.name + "/check", seed, j))
        out.result = None
        plain.append(out)
        gc.collect()

    tracer = Tracer()
    tracer.install()
    traced: List[Outcome] = []
    counts: Dict[str, int] = {}
    try:
        tracer.problem = "setup"
        for p in problems:
            wl.parse(cadkit, p)
        for j in range(n):
            tracer.problem = j
            # no calibration inside traced calls: it would land in spans
            out = timed_one(cadkit, wl, parsed[j], wl.limit_s * TRACE_SLACK,
                            inside_too=False)
            if out.status == "ok":
                for k, v in wl.counts(out.result).items():
                    counts[k] = counts.get(k, 0) + v
            out.result = None
            traced.append(out)
            gc.collect()
    finally:
        tracer.problem = None
        tracer.uninstall()

    both = [j for j in range(n)
            if plain[j].status == "ok" and traced[j].status == "ok"]
    for j in range(n):
        if plain[j].status != traced[j].status:
            print("problem %d: %s untraced but %s traced"
                  % (j, plain[j].status, traced[j].status))
    plain_s = sum(plain[j].normalized for j in both)
    traced_s = sum(traced[j].normalized for j in both)
    overhead = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
    # span times are wall times of the traced pass; report them
    # speed-normalized like every other time
    raw_s = sum(traced[j].seconds for j in both)
    speed = traced_s / raw_s if raw_s > 0 else 1.0

    summary = SpanSummary(tracer.spans, both + ["setup"])
    nwo = sum(o.status == "NotWellOriented" for o in traced)
    metrics = {name: (value * speed if unit == "s" else value, unit)
               for name, (value, unit) in per_layer(summary, counts,
                                                    nwo).items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.csv.gz" % (wl.name, seed))
    tracer.write(path)
    print("untraced: " + summary_line(plain))
    print("traced %d problems (%d spans, written to %s): %.4f s vs %.4f s "
          "untraced (speed-normalized), overhead %.1f%%"
          % (len(both), len(tracer.spans), path.relative_to(ROOT), traced_s,
             plain_s, 100 * overhead))
    # both sides of this comparison are wall times of the traced pass
    for key, names in TIMING_SPANS.items():
        reported = sum(traced[j].timings.get(key, 0.0) for j in both)
        if reported <= 0:
            continue
        spans_s = summary.seconds(*names)
        gap = abs(spans_s - reported) / reported
        print("timings[%r] %.4f s vs spans %s %.4f s: gap %.1f%%%s" % (
            key, reported, "+".join(names), spans_s, 100 * gap,
            "  ABOVE tracing overhead" if gap > max(overhead, 0.01) else ""))
    for name, (value, unit) in metrics.items():
        print("%-32s %.6g %s" % (name, value, unit))
    wrong = sum(o.status == "wrong" for o in plain)
    return _result(plain, wrong, metrics)


def _result(outcomes: List[Outcome], wrong: int, metrics) -> dict:
    return {
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cadkit" / "__init__.py").is_file():
        print("cadbench: no cadkit sources at %s" % SRC, file=sys.stderr)
        return 2
    os.environ["CADKIT_JOBS"] = "1"
    sys.path.insert(0, str(SRC))
    import cadkit
    if Path(cadkit.__file__).resolve().parent != (SRC / "cadkit").resolve():
        print("cadbench: imported cadkit from %s, not %s"
              % (cadkit.__file__, SRC), file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    wl = WORKLOADS[args.workload]
    print("cadbench %s seed=%d seconds=%g trace=%d CADKIT_JOBS=%s "
          "(one process, one thread, closed loop)"
          % (wl.name, args.seed, args.seconds, args.trace,
             os.environ["CADKIT_JOBS"]))
    if args.trace:
        result = traced_run(cadkit, wl, args.seed, args.seconds)
    else:
        result = measured_run(cadkit, wl, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
