"""Quick self-test of the benchmark at tiny sizes (search n <= 3, P_10, C4).

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit on
every workload, that a corrupted search digest is counted as failed items,
that the traced passes fail exactly what the untraced ones fail, that the
layers' self times add up to the traced pass, and that the tracer's wrapper
frames do not make a recursion fail that fits untraced.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--tiny"]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def expect_metrics(result: dict, declared: list[dict], label: str) -> None:
    got = result["metrics"]
    for metric in declared:
        name = metric["name"]
        expect(name in got, f"{label}: {name} missing")
        expect(got[name]["unit"] == metric["unit"],
               f"{label}: {name} has unit {got[name]['unit']}, declared {metric['unit']}")
        expect(math.isfinite(got[name]["value"]), f"{label}: {name} is not a number")


def test_workloads_report_declared_metrics() -> None:
    expect(sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"]),
           "run.WORKLOADS differs from BENCHMARK.json")
    for workload in run.WORKLOADS:
        plain, _ = run.measure(workload, 1, 0.1, False, TINY)
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}")
        expect_metrics(plain, SPEC["end_to_end"], workload)
        expect(set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]},
               f"{workload}: extra end-to-end metrics")

        traced, _ = run.measure(workload, 1, 0.1, True, TINY)
        expect(traced["correct"], f"{workload} traced: {traced}")
        expect_metrics(traced, SPEC["per_layer"], f"{workload} traced")
        metrics = {k: v["value"] for k, v in traced["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        whole = layers + metrics["trace.unattributed_s"]
        expect(abs(whole - metrics["trace.pass_s"]) < 1e-6,
               f"{workload}: self times sum to {whole}, traced pass {metrics['trace.pass_s']}")


def test_corrupted_digest_fails_items() -> None:
    for workload in ("search-i", "search-ii"):
        result, _ = run.measure(workload, 1, 0.1, False,
                                TINY + ["--expect-digest", "000000000000"])
        expect(not result["correct"], f"{workload}: corrupted digest accepted")
        expect(result["failed"] > 0, f"{workload}: failed_ratio stayed 0")


def test_tracing_keeps_recursion_headroom() -> None:
    import symcover as sc
    import workloads

    graph = workloads.path(20)

    def fits(limit: int) -> bool:
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(limit)  # raises below the current depth
            return sc.vertex_decomposable(graph)
        except RecursionError:
            return False
        finally:
            sys.setrecursionlimit(saved)

    limit = 1  # raised to the lowest limit at which the query fits untraced
    while not fits(limit):
        limit += 1
    saved = sys.getrecursionlimit()
    tracer = Tracer()
    sys.setrecursionlimit(limit)
    try:
        tracer.install()
        expect(sc.vertex_decomposable(graph), "traced query failed at the untraced limit")
    finally:
        tracer.uninstall()
        sys.setrecursionlimit(saved)
    expect(tracer.calls["decomposability.vertex_decomposable"] == 1, "query was not traced")


def main() -> int:
    tests = [test_workloads_report_declared_metrics, test_corrupted_digest_fails_items,
             test_tracing_keeps_recursion_headroom]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
