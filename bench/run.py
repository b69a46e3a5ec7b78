"""onecell benchmark: one workload per run, a closed loop with one
caller, exact outputs checked after the timed loop.

    python3 bench/run.py --workload cell-fuzz --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` runs the corpus `PASSES` times, each in a fresh interpreter
and its own order, and reports the end-to-end metrics from the
latencies of all passes, each scaled to a reference machine speed
measured by a probe run between the calls; `--trace 1` runs one pass with every
layer wrapped and reports per-layer calls, self time and total time.
The last line of standard output is one JSON object; the lines before
it are a readable report.  The exit code is 0 when every output checked
out, 1 when one was wrong, 2 on a usage or environment error.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

from sympy.polys.densearith import dup_mul
from sympy.polys.domains import ZZ
from sympy.polys.factortools import dup_factor_list

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Passes over the same corpus in one run, each in a fresh interpreter
# and in its own order drawn from the seed, so that no single order
# decides which calls pay for filling the process-global caches.  The
# latency metrics are read from the latencies of all passes together,
# the set-up time is the median over the passes.
PASSES = 4

# The shared host the benchmark was built on runs the same code at
# speeds up to twice apart, in stretches from under a second to minutes,
# with CPU time equal to wall time.  So a fixed task that uses no
# library code, the probe, is timed before every call and after the
# last one, and each latency is scaled by PROBE_REF_S over the mean of
# the two probes around it: every reported latency is in seconds at the
# speed at which one probe takes PROBE_REF_S, about the median speed of
# that machine.  A change to the library moves the scaled latencies; a
# change in the machine's speed moves the probe with them.  The probe
# factors a fixed integer polynomial with sympy's dense routines, pure
# Python integer and list work like the library's; of the probes tried,
# its time tracked the library's calls most closely (a slowdown of the
# probe by x came with one of x**0.9 to x**1.0 in the calls).  Set-up
# time is not scaled: interpreter start and imports do not follow the
# probe.
PROBE_POLY = dup_mul([ZZ(3), ZZ(-2), ZZ(7), ZZ(1)], [ZZ(1), ZZ(0), ZZ(-5), ZZ(2)], ZZ)
PROBE_REF_S = 0.003

# Calls in one pass at --seconds REFERENCE_SECONDS, scaled linearly with
# --seconds.  On a 2-core x86 machine at the first benchmarked commit a
# whole run at --seconds 20 takes about 35 s for `cell-fuzz`, 28 s for
# `cell-sweep` and 41 s for `solve-planted`, 6 s of them in the calls
# stopped at the limit.
REFERENCE_SECONDS = 20
CALLS_PER_PASS = {"cell-fuzz": 100, "cell-sweep": 105, "solve-planted": 67}

# A call still running after this many seconds is stopped and counted
# as failed; its latency is recorded as the limit.  Each limit sits in a
# wide gap of its workload's latencies, so a change of the machine's
# speed by half does not move a call across it and the same calls stop
# in every run: no `cell-fuzz` or `cell-sweep` call takes more than 10 s,
# and no `solve-planted` call takes between 1.1 s and 7 s; those above
# 7 s are planted-unsat instances that run for minutes.
CALL_LIMIT_S = {"cell-fuzz": 20.0, "cell-sweep": 20.0, "solve-planted": 3.0}

HASH_SEED = "0"

# The tail latency is read at the highest percentile with this many
# calls beyond it.
TAIL_CALLS = 10

# A percentile is read as the mean of the latencies ranked within a
# share of the latencies on either side of it, so that a call moving
# across a gap in the distribution shifts it a little, not by the whole
# gap: 5% for the tail, 10% for the median, where the `solve-planted`
# latencies climb steeply (the wider band took the spread of its
# median over eight seeds from 0.05 to 0.035).
TAIL_BAND = 0.05
MEDIAN_BAND = 0.10


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout()


def corpus_size(workload: str, seconds: float) -> int:
    return max(1, round(CALLS_PER_PASS[workload] * seconds / REFERENCE_SECONDS))


def tail_percentile(n: int) -> float:
    """The highest percentile with TAIL_CALLS calls beyond it, and at
    least the median."""
    return max(50.0, 100 * (1 - TAIL_CALLS / n))


def percentile(values: list[float], p: float, band: float) -> float:
    """Mean of the values whose rank is within `band` of the
    nearest-rank percentile p."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, min(n - 1, math.ceil(n * p / 100 - 1e-9) - 1))
    half = int(n * band)
    band = ordered[max(0, k - half):k + half + 1]
    return sum(band) / len(band)


def probe() -> float:
    """Seconds taken to factor PROBE_POLY over the integers."""
    t0 = time.perf_counter()
    dup_factor_list(PROBE_POLY, ZZ)
    return time.perf_counter() - t0


def timed_loop(wl, corpus, skip=None):
    """Run every call once, in corpus order, under the per-call limit,
    with a probe before every call and after the last.  A call whose
    flag in `skip` is set is not run and counts as stopped."""
    limit = CALL_LIMIT_S[wl.name]
    signal.signal(signal.SIGALRM, _on_alarm)
    results, latencies, probes = [], [], [probe()]
    start = time.perf_counter()
    for call, skipped in zip(corpus, skip or [False] * len(corpus)):
        if skipped:
            results.append("timeout")
            latencies.append(limit)
            probes.append(probe())
            continue
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            try:
                out = wl.run(call)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CallTimeout:
            out = "timeout"
        except Exception as exc:  # a library error is a failed call, reported below
            out = f"error {type(exc).__name__}: {exc}"
        latencies.append(min(time.perf_counter() - t0, limit))
        results.append(out)
        probes.append(probe())
    return results, latencies, probes, time.perf_counter() - start


def scaled(latencies, probes, limit: float) -> list[float]:
    """Each latency in seconds at the reference speed, from the probes
    taken just before and just after it; a stopped call keeps the
    limit."""
    return [lat if lat >= limit else lat * 2 * PROBE_REF_S / (probes[k] + probes[k + 1])
            for k, lat in enumerate(latencies)]


def check_all(wl, corpus, results, points):
    """Check every result; `points` interior points per cell are tested
    for sign-invariance."""
    import workloads

    outcomes, memo = [], {}
    for call, out in zip(corpus, results):
        if isinstance(out, str):
            outcomes.append(workloads.Outcome(True, False, out, out))
        else:
            outcomes.append(wl.check(call, *out, memo, points))
    return outcomes


def exact_counts(results) -> dict[str, float]:
    dims, proj, cells, conflicts, solves = 0, 0, 0, 0, 0
    for out in results:
        if isinstance(out, str):
            continue
        result, stats = out
        cells += stats.cells_constructed
        dims += sum(stats.cell_dimensions)
        proj += (stats.resultants_computed + stats.discriminants_computed
                 + stats.coefficients_computed)
        if hasattr(result, "explanations"):
            solves += 1
            conflicts += result.explanations
    return {
        "cells": cells,
        "cell_dim_mean": dims / cells if cells else 0.0,
        "proj_polys_per_cell": proj / cells if cells else 0.0,
        "conflicts_per_instance": conflicts / solves if solves else 0.0,
    }


def layer_metrics(loop_spans, check_spans) -> dict[str, dict]:
    import tracer

    metrics = {}
    names = []
    for module, qual, splitter in tracer.LAYERS:
        base = f"{module}.{qual}"
        names += [base] if splitter is None else [f"{base}.rational", f"{base}.algebraic"]
    for name in names:
        check_phase = name in ("cells.cell_pick_interior_point", "properties.validate_trace")
        calls, self_s, total_s = (check_spans if check_phase else loop_spans).get(
            name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.total_s"] = {"value": total_s, "unit": "s"}
    lookups = metrics["cells.cached_roots.calls"]["value"]
    computed = sum(metrics[f"realalg.roots_in_extension.{k}.calls"]["value"]
                   for k in ("rational", "algebraic"))
    metrics["cells.roots_reuse_ratio"] = {
        "value": 1 - computed / lookups if lookups else 0.0, "unit": "ratio"}
    return metrics


def one_pass(args) -> int:
    """Build the corpus, say "ready", run the timed loop and the checks,
    and print what the parent needs as one JSON line.  The first pass
    tests sign-invariance; the later ones repeat the cheaper checks and
    render the same outputs, which the parent compares."""
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    numbered = workloads.corpus(args.workload, args.seed,
                                corpus_size(args.workload, args.seconds), args.one_pass)
    corpus = [call for _, call in numbered]
    skip = [position in args.skip for position, _ in numbered]
    print("ready", flush=True)

    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
        tr.install(extra_modules=[workloads])
    results, latencies, probes, wall = timed_loop(wl, corpus, skip)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop_spans = tr.snapshot() if tr else {}
    if tr:
        tr.reset()
    t0 = time.perf_counter()
    points = workloads.CHECK_POINTS if args.one_pass == 0 else 0
    outcomes = check_all(wl, corpus, results, points)
    check_s = time.perf_counter() - t0
    # every per-call list goes out in stream order, so that the passes,
    # each in its own order, line up call by call
    positions = [position for position, _ in numbered]

    def in_stream_order(values):
        out = [None] * len(values)
        for position, value in zip(positions, values):
            out[position] = value
        return out

    report = {
        "wall": wall, "check_s": check_s, "peak_rss_mb": peak_rss_mb,
        "latencies": in_stream_order(scaled(latencies, probes, CALL_LIMIT_S[wl.name])),
        "raw_s": sum(lat for lat, skipped in zip(latencies, skip) if not skipped),
        "skipped": sum(skip),
        "probe_s": statistics.median(probes),
        "returned": in_stream_order([not isinstance(r, str) for r in results]),
        "outcomes": in_stream_order([(o.failed, o.wrong, o.note, workloads.digest([o.text]))
                                     for o in outcomes]),
        "counts": exact_counts(results),
    }
    if tr:
        report["layers"] = layer_metrics(loop_spans, tr.snapshot())
    print(json.dumps(report), flush=True)
    return 0


def spawn_pass(args, index: int, skip=()) -> tuple[float, dict]:
    """One pass in a fresh interpreter, not running the calls at the
    stream positions in `skip`; returns its set-up time (spawn to
    "ready") and its report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--one-pass", str(index),
           "--skip", ",".join(map(str, skip))]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = child.stdout.read()
    if child.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"pass of {args.workload} exited with code {child.returncode}")
    return setup_s, json.loads(rest)


def run_workload(args) -> tuple[list[str], dict]:
    """The report lines and the result object of one workload."""
    import workloads

    # a call stopped at the limit in the first pass is stopped in every
    # pass (each limit sits in a wide gap of its workload's latencies),
    # so the later passes do not run it again
    passes = [spawn_pass(args, 0)]
    stopped = [k for k, o in enumerate(passes[0][1]["outcomes"]) if o[2] == "timeout"]
    passes += [spawn_pass(args, k, stopped) for k in range(1, 1 if args.trace else PASSES)]
    setups = [s for s, _ in passes]
    reports = [r for _, r in passes]
    first = reports[0]
    n = len(first["latencies"])
    # the latencies of all passes together: in a pass's own order the
    # cost of filling a cache entry falls on whichever call needs it
    # first, so a call's latencies in different passes are not samples
    # of one cost, but the run's latencies are
    pooled = [lat for r in reports for lat in r["latencies"]]
    returned = [lat for r in reports for lat, ok in zip(r["latencies"], r["returned"]) if ok]
    outcomes = [o for r in reports for o in r["outcomes"]]
    skipped = sum(r["skipped"] for r in reports)
    attempted = len(outcomes) - skipped
    failed = sum(o[0] for o in outcomes) - skipped
    wrong = [o[2] for o in outcomes if o[1]]
    counts = first["counts"]
    agree = all([(o[0], o[3]) for o in r["outcomes"]]
                == [(o[0], o[3]) for o in first["outcomes"]]
                and r["counts"] == counts for r in reports)
    tail_p = tail_percentile(n)
    notes: dict[str, int] = {}
    for o in first["outcomes"]:
        if o[0]:
            key = o[2].split(":")[0][:60]
            notes[key] = notes.get(key, 0) + 1

    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} calls, "
        f"{len(reports)} passes, loop s: " + " ".join(f"{r['wall']:.3f}" for r in reports)
        + ", checks s: " + " ".join(f"{r['check_s']:.3f}" for r in reports),
        "set-up s " + " ".join(f"{s:.3f}" for s in setups)
        + ", call s " + " ".join(f"{r['raw_s']:.3f}" for r in reports)
        + " (scaled " + " ".join(f"{sum(r['latencies']):.3f}" for r in reports) + ")"
        + ", median probe ms " + " ".join(f"{1e3 * r['probe_s']:.3f}" for r in reports)
        + f" (reference {1e3 * PROBE_REF_S:g})",
        f"environment: python {platform.python_version()}, sympy {_sympy_version()}, "
        f"nproc {os.cpu_count()}, PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}, "
        f"call limit {CALL_LIMIT_S[args.workload]}s",
        f"passes {'agree' if agree else 'DIFFER'} on every outcome and exact count; "
        f"{len(stopped)} calls stopped in the first pass not run again",
        f"failed in the first pass {sum(notes.values())}/{n}: "
        + (", ".join(f"{k} x{v}" for k, v in sorted(notes.items())) or "none"),
        f"latency tail percentile p{tail_p:.2f} over {len(reports)} x {n} latencies "
        f"({n - round(n * tail_p / 100)} calls of a pass beyond)",
        f"exact: cells {counts['cells']}, cell_dim_mean {counts['cell_dim_mean']:.6f}, "
        f"proj_polys_per_cell {counts['proj_polys_per_cell']:.6f}, "
        f"conflicts_per_instance {counts['conflicts_per_instance']:.6f}",
        f"digest {workloads.digest(o[3] for o in first['outcomes'])}",
    ] + [f"WRONG: {note}" for note in wrong[:10]]

    if args.trace:
        metrics = first["layers"]
        metrics["solver.conflicts_per_instance"] = {
            "value": counts["conflicts_per_instance"], "unit": "count"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "calls_per_s": {"value": len(returned) / sum(returned) if returned else 0.0,
                            "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * percentile(pooled, 50, MEDIAN_BAND), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * percentile(pooled, tail_p, TAIL_BAND), "unit": "ms"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"},
            "cell_dim_mean": {"value": counts["cell_dim_mean"], "unit": "dim"},
            "proj_polys_per_cell": {"value": counts["proj_polys_per_cell"], "unit": "count"},
        }
    return lines, {"correct": not wrong, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def _sympy_version() -> str:
    import sympy

    return sympy.__version__


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--skip", type=lambda text: {int(k) for k in text.split(",") if k},
                        default=set(), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "onecell", "__init__.py")):
        print(f"onecell sources not found under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set iteration order must not depend on the interpreter's hash seed
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, SRC)

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.one_pass is not None:
        return one_pass(args)

    # --workload all runs the workloads one after another and prefixes
    # every metric with the workload's name
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        print("\n".join(lines), flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        merged["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
