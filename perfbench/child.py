"""One round of a workload in a fresh interpreter.

Started by run.py with the monotonic clock reading taken just before the
process was spawned, so set-up time covers interpreter start, imports and
input generation up to the first timed call.  Prints one JSON object on its
last line of standard output.

    python3 perfbench/child.py --workload NAME --seed N --t0 T [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--run-id", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, HERE)
    import tracing
    import workloads

    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(args.run_id)
        tracer.install()
    wl = workloads.make(args.workload, args.seed, out_dir)
    wl.setup(reference)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timer = workloads.Timer()
    wl.run(timer)
    if tracer:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = wl.check(reference)
    result = {
        "setup_s": setup_s,
        "wall_s": timer.wall_s,
        "peak_rss_mb": rss_mb,
        "items": [[it.kind, it.latency_ms, it.ok, it.why] for it in items],
    }
    if tracer:
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}.jsonl"))
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
