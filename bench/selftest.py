"""Checks on the benchmark itself.

    python3 bench/selftest.py

1. Tracer call counts equal cProfile's `ncalls` for every traced
   function, on the first `PARITY_CALLS` calls of each workload.
2. For each workload, two plain runs and one traced run of the same
   seed at the benchmark's `run_seconds` print identical exact counts,
   failure breakdowns and output digests, and the passes inside each
   run agree; the traced pass's scaled call time against the median
   plain pass is the tracing overhead.

Exits 1 when a count or digest differs.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

PARITY_CALLS = 20


def profile_parity() -> bool:
    import run
    import tracer
    import workloads

    tr = tracer.Tracer()
    tr.install(extra_modules=[workloads])
    prof = cProfile.Profile()
    prof.enable()
    for name, wl in workloads.WORKLOADS.items():
        calls = [call for _, call in workloads.corpus(name, 1, PARITY_CALLS)]
        results = run.timed_loop(wl, calls)[0]
        run.check_all(wl, calls, results, workloads.CHECK_POINTS)
    prof.disable()
    ncalls = {key[:3]: value[1] for key, value in pstats.Stats(prof).stats.items()}

    ok = True
    for name, fn in tr.originals.items():
        code = fn.__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        got = sum(calls for key, (calls, _, _) in tr.spans.items()
                  if key == name or key.rsplit(".", 1)[0] == name)
        ok &= got == want
        print(f"{'ok ' if got == want else 'BAD'} {name}: tracer {got}, cProfile {want}")
    return ok


def _run(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    timing = next(line for line in lines if line.startswith("set-up s"))
    scaled = [float(w) for w in timing.split("(scaled ")[1].split(")")[0].split()]
    return {
        "call_s": sorted(scaled)[len(scaled) // 2],
        "same": [l for l in lines if l.startswith(("passes", "exact:", "digest", "failed"))],
    }


def repeatability(seconds: float) -> bool:
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        plain, again, traced = (_run(name, seconds, t) for t in (0, 0, 1))
        same = plain["same"] == again["same"] == traced["same"]
        ok &= same
        overhead = traced["call_s"] / plain["call_s"] - 1
        print(f"{'ok ' if same else 'BAD'} {name}: plain, plain and traced runs "
              f"{'agree' if same else 'differ'}; scaled call s of the median pass: "
              f"{plain['call_s']:.3f} plain, {again['call_s']:.3f} plain, "
              f"{traced['call_s']:.3f} traced "
              f"(tracing overhead {overhead:+.1%})")
        if not same:
            print("\n".join(plain["same"] + again["same"] + traced["same"]))
    return ok


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    ok = profile_parity()
    ok &= repeatability(seconds)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
