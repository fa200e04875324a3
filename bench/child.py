"""One measured process: set up one workload, then run at most one pass.

run.py starts this file as a fresh interpreter for every sample:

    python3 bench/child.py --workload NAME --seed N --role setup|pass|traced

``setup`` stops right before the first timed call; ``pass`` runs one pass;
``traced`` runs one pass with the span tracer installed and writes the spans
to ``.bench_out/<workload>.spans``.  The last stdout line is a JSON object.
Times are ``time.monotonic()`` readings so that run.py can subtract its own
spawn time from ``t_first``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--expect-digest", help="replace the pinned search digest")
    args = parser.parse_args()

    import workloads

    run_pass = workloads.build(args.workload, args.seed, tiny=args.tiny,
                               digest=args.expect_digest)
    tracer = None
    if args.role == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.collect()  # start every pass from the same collector state, whatever set-up left
    doc: dict = {"t_first": time.monotonic()}
    if args.role != "setup":
        if tracer is not None:
            root = tracer.open(tracer.name_id(tracing.ROOT))
        result = run_pass()
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
            doc["layers"] = tracing.layer_metrics(tracer)
            tracer.write(HERE.parent / ".bench_out" / f"{args.workload}.spans")
        doc.update(
            pass_s=result.pass_s,
            latencies=result.latencies,
            attempted=result.attempted,
            failed=len(result.failures),
            failures=result.failures[:5],
        )
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
