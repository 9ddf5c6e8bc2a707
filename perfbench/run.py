"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload survey-wide --seed 1 --seconds 20 --trace 0

Run it from the repository root.  With ``--trace 0`` a run is one or two
fresh single-threaded interpreters, one after another, each with its own
``PYTHONHASHSEED`` derived from ``--seed``; each sets up, warms up, runs
rounds for its share of ``--seconds`` (at least two) under the speed probe
of ``speed.py`` and checks its outputs.  The last line printed is one JSON
object with every end-to-end metric.  With ``--trace 1`` one process runs
an untraced round, a traced set-up and round, and another untraced round,
and the last line carries the per-layer metrics.  README.md in this
directory defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import WORKLOADS  # stdlib only: ittm is imported by the workers

HERE = Path(__file__).resolve().parent
# Set-up is timed in every measuring process; workloads whose set-up is
# short (an interpreter start and imports) add set-up-only processes until
# SETUP_SECONDS of set-up has been timed, so its median is not one noisy
# sample of 0.1 s.
SETUP_SECONDS = 2.0
MAX_SETUPS = 15
DEADLINE_S = 170.0


def hash_seed(seed: int, index: int) -> str:
    """PYTHONHASHSEED for one process: fixed by the workload seed, so a
    rerun of a seed hashes (and so iterates sets and dicts) the same way."""
    digest = hashlib.sha256(("%d:%d" % (seed, index)).encode()).digest()
    return str(int.from_bytes(digest[:4], "big"))


def run_process(args, mode: str, index: int, seconds: float, deadline: float):
    """Start workload process number `index` and wait for it; returns its
    result and the time it was started."""
    parts = 1 if mode == "trace" else WORKLOADS[args.workload].processes
    part = index % parts
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(args.seed, index)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--part", str(part), "--parts", str(parts),
           "--seconds", repr(seconds), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s process %d ran past the %.0f s deadline"
                 % (args.workload, index, DEADLINE_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("perfbench: %s process %d exited with %d"
                 % (args.workload, index, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1]), started


def setup_seconds(res, started: float) -> float:
    """From starting a process to the end of its set-up, less the probe's
    own samples, divided by the probe's slowdown during set-up."""
    return (res["ready"] - started - res["setup_probe_s"]) / res["setup_slowdown"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the highest sample when there are fewer
    than 1/(1-q) samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    processes = WORKLOADS[args.workload].processes
    share = args.seconds / processes
    results = []
    for part in range(processes):
        res, started = run_process(args, "measure", part, share, deadline)
        res["setup_s"] = setup_seconds(res, started)
        results.append(res)
        print("%s part %d: PYTHONHASHSEED=%s setup %.3f s, rounds of %d units "
              "%s s (%.3f s corrected for a probe slowdown of %.3f), %d failed, "
              "peak RSS %.0f MB" % (
                  args.workload, part, hash_seed(args.seed, part), res["setup_s"],
                  res["units"], " ".join("%.3f" % w for w in res["rounds"]),
                  sum(s for _, s in res["latencies"]), res["slowdown"],
                  res["failed"], res["rss_mb"]))
        for note in res["notes"]:
            print("  " + note)
    setups = [r["setup_s"] for r in results]
    while sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS:
        res, started = run_process(args, "setup", len(setups), 0.0, deadline)
        setups.append(setup_seconds(res, started))
    print("%s set-up: %s s" % (args.workload, " ".join("%.3f" % s for s in setups)))
    # A unit's latency is the median of its speed-corrected times over the
    # rounds that ran it (speed.py says why they are corrected).
    repeats = {}
    for res in results:
        for key, seconds in res["latencies"]:
            repeats.setdefault(key, []).append(seconds)
    latency = [statistics.median(v) for v in repeats.values()]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(latency), "s"),
        "run_p50_ms": (1e3 * statistics.median(latency), "ms"),
        "run_p99_ms": (1e3 * percentile(latency, 0.99), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
        "exceeded_frac": (sum(r["exceeded"] for r in results)
                          / sum(r["units"] for r in results), "ratio"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    res, _ = run_process(args, "trace", 0, args.seconds, deadline)
    for note in res["notes"]:
        print(note)
    metrics = res["metrics"]
    print("tracing overhead: %.3f s (%.1f%% of %.3f s untraced); self times "
          "cover %.1f%% of the traced wall time" % (
              metrics["trace.overhead_s"][0], 100 * metrics["trace.overhead_frac"][0],
              metrics["trace.untraced_round_s"][0], 100 * metrics["trace.self_sum_frac"][0]))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/ittm/__init__.py").is_file():
        print("perfbench: run from the repository root; src/ittm is missing",
              file=sys.stderr)
        return 2
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
