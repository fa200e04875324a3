"""symcover benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports symcover from ``src/``.
Every sample is a fresh child interpreter (bench/child.py), started one at a
time and waited for, so one client issues each query only after the
previous one returned.  A run first starts five set-up-only children, then
pass children until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with the
tracing overhead as traced minus untraced ``pass_s``.  Every answer is
checked; the last stdout line is one JSON object, and the exit code is 1
when a check failed and 2 when a child could not run (then nothing is
printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of  # imports nothing from symcover

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("search-i", "search-ii", "vd-families", "lq-ideals")
SETUP_PROBES = 5
# a run must end within 180 s; leave room for the last child and printing
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def spawn(role: str, workload: str, seed: int, extra: list[str], started: float) -> dict:
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--role", role, *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE_S - (t0 - started)))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{role} child timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{role} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["setup_s"] = doc["t_first"] - t0
    doc["wall_s"] = time.monotonic() - t0
    return doc


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(values, n=100)`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            extra: list[str] | None = None) -> tuple[dict, list[str]]:
    """Run one benchmark run; returns the result object and the summary lines."""
    extra = extra or []
    started = time.monotonic()
    env = environment()
    setups = [spawn("setup", workload, seed, extra, started)["setup_s"]
              for _ in range(SETUP_PROBES)]
    roles = ("pass", "traced") if trace else ("pass",)
    docs: dict[str, list[dict]] = {role: [] for role in roles}
    longest = 0.0
    count = 0
    while True:
        role = roles[count % len(roles)]
        doc = spawn(role, workload, seed, extra, started)
        docs[role].append(doc)
        longest = max(longest, doc["wall_s"])
        count += 1
        if count >= len(roles) and time.monotonic() - started + longest > seconds:
            break

    passes = docs["pass"]
    every = [d for role in roles for d in docs[role]]
    attempted = sum(d["attempted"] for d in every)
    failed = sum(d["failed"] for d in every)
    failures = [msg for d in every for msg in d["failures"]]
    if trace and {d["failed"] for d in docs["traced"]} != {d["failed"] for d in passes}:
        failures.append("traced and untraced passes failed different items")

    # (value, unit, samples)
    table: dict[str, tuple[float, str, int]] = {}
    untraced_pass_s = statistics.median(d["pass_s"] for d in passes)
    if trace:
        traced = docs["traced"]
        for name in traced[0]["layers"]:
            value = statistics.median(d["layers"][name] for d in traced)
            table[name] = (value, unit_of(name), len(traced))
        table["trace.untraced_pass_s"] = (untraced_pass_s, "s", len(passes))
        overhead = table["trace.pass_s"][0] - untraced_pass_s
        table["trace.overhead_s"] = (overhead, "s", len(traced))
    else:
        setup_samples = setups + [d["setup_s"] for d in passes]
        # every pass runs the same items in the same order; an item's latency
        # is its mean over the passes.  A short item's time swings up to 2x
        # with the load on a shared host, and with about ten passes the mean
        # of those swings varies from run to run less than their median does
        items = [statistics.fmean(s) for s in zip(*(d["latencies"] for d in passes))]
        samples = len(items) * len(passes)
        table["setup_s"] = (statistics.median(setup_samples), "s", len(setup_samples))
        table["pass_s"] = (untraced_pass_s, "s", len(passes))
        table["item_ms_p50"] = (1000 * quantile(items, 50), "ms", samples)
        table["item_ms_p90"] = (1000 * quantile(items, 90), "ms", samples)
        table["peak_rss_mb"] = (statistics.median(d["rss_mb"] for d in passes), "MB",
                                len(passes))

    lines = [f"env: {json.dumps(env)}",
             f"workload {workload} seed {seed}: {len(every)} passes, "
             f"{attempted} items attempted, {failed} failed "
             f"(failed_ratio {failed / max(attempted, 1):.6f})"]
    lines += [f"  {msg}" for msg in failures[:10]]
    lines += [f"{name:<58} {value:>14.6f} {unit:<5} n={n}"
              for name, (value, unit, n) in table.items()]
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in table.items()},
    }
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
