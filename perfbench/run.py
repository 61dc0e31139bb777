"""sumsetlab benchmark: one command, two workloads, six end-to-end metrics.

    python3 perfbench/run.py --workload quasicube_laws --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The load is a closed loop: one caller in one process at a time.
Each round runs the whole workload in a fresh interpreter (child.py), so
``laws._SCAN_CACHE`` and the peak RSS start cold, as they do for every CLI
call.  Rounds repeat until ``--seconds`` have passed, and at least
MIN_ROUNDS times.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:

* ``wall_s``: median wall time of a round's timed phase;
* ``setup_s``: median time from interpreter start through imports and input
  generation to the first timed call, over at least five fresh interpreters;
* ``item_p50_ms`` / ``item_tail_ms``: median and tail latency of one item (a
  verdict, a scan candidate, an estimate or a (delta, p) check), over the
  items of all rounds.  The tail is the highest percentile of the ladder
  with at least ten distinct items of one round beyond it (rounds repeat
  the same inputs), so it is the same percentile in every run of a workload;
* ``peak_rss_mb``: median over rounds of the round process's ru_maxrss;
* ``failed_share``: items that raised or failed the correctness check over
  the items attempted.

The item latencies and ``failed_share`` are printed but left out of the
result's metrics, which are the bounded ones of BENCHMARK.json.
``failed_share`` is 0 on a correct program and travels in the ``failed`` and
``attempted`` fields.  The item latencies swing too far between runs on a
shared host to carry a bound (see perfbench/README.md).

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of tracing.py from the traced rounds, with the tracing
overhead as traced minus untraced ``wall_s``.

No workload exercises the ``cli`` module; ``io_formats`` only parses inputs
during set-up.  Exits 2 without a result when ``src/sumsetlab`` is missing.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("quasicube_laws", "search_gamma")
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
DEADLINE_S = 170  # a run must end within 180 s


def percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    pos = q / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n items beyond it."""
    fits = [q for q in LADDER if n * (1 - q / 100) >= 10]
    return fits[-1] if fits else LADDER[0]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version()}
    for mod in ("numpy", "scipy"):
        try:
            env[mod] = __import__(mod).__version__
        except ImportError:
            env[mod] = "missing"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = dict(os.environ)
        self.env.pop("SUMSETLAB_NODE_CEILING", None)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.count = 0

    def child(self, *flags: str) -> dict:
        self.count += 1
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--run-id", f"{self.workload}-{self.seed}-{self.count}", *flags]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(remaining, 1))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"round failed with exit code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "sumsetlab", "__init__.py")):
        sys.stderr.write(f"no program source at {os.path.join(ROOT, 'src', 'sumsetlab')}\n")
        return 2

    runner = Runner(args.workload, args.seed, started)
    untraced, traced = [], []
    while True:
        elapsed = time.monotonic() - started
        if args.trace:
            if elapsed >= args.seconds and untraced and traced:
                break
            if len(untraced) <= len(traced):
                untraced.append(runner.child())
            else:
                traced.append(runner.child("--trace"))
        else:
            if elapsed >= args.seconds and len(untraced) >= MIN_ROUNDS:
                break
            untraced.append(runner.child())
    setups = [r["setup_s"] for r in untraced]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("--setup-only")["setup_s"])

    rounds = untraced + traced
    items = [it for r in rounds for it in r["items"]]
    failed = [it for it in items if not it[2]]
    env = environment()
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"rounds, closed loop with one caller, program threads = nproc = {env['nproc']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for kind, _, _, why in failed[:10]:
        print(f"FAILED {kind}: {why}")

    metrics: dict[str, dict] = {}
    if args.trace:
        import tracing

        absent = sorted({a for r in traced for a in r["absent"]})
        for name in tracing.METRICS:
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in untraced))
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": tracing.unit(name)}
        if absent:
            print("absent from the program (metrics read 0): " + ", ".join(absent))
        for name, (e2e, wl) in tracing.LINKS.items():
            link = f"  -> {e2e} on {wl}" if e2e else ""
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}{link}")
    else:
        per_round = min(sum(it[1] is not None for it in r["items"]) for r in untraced)
        timed = [it[1] for r in untraced for it in r["items"] if it[1] is not None]
        q = tail_percentile(per_round)
        e2e = {
            "wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        printed = {**e2e, "item_p50_ms": (percentile(timed, 50), "ms"),
                   "item_tail_ms": (percentile(timed, q), "ms"),
                   "failed_share": (len(failed) / max(len(items), 1), "share")}
        for k, (v, u) in printed.items():
            print(f"{k}: {v:.6g} {u}")
        print(f"item_tail_ms is p{q:g} of {len(timed)} timed items ({per_round} per round); "
              f"{len(setups)} set-up samples")
    print(json.dumps({"correct": not failed, "attempted": len(items), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
