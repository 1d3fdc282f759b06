"""Benchmark entry point.

    python3 bench/run.py --workload tamper-sweep|mixed-load|dispute-audit
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the timed section for about
``--seconds`` host seconds (whole rounds) and reports the end-to-end
metrics in reference seconds (see hostspeed.py), and the same figures in
host seconds.  With ``--trace 1`` it wraps the program's public functions,
runs set-up and exactly one round whatever ``--seconds`` says, so that call
counts repeat from run to run, and reports the per-layer metrics.  Either
way the outputs are checked; the last line of standard output is one JSON
object, and a run whose checks fail exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The run length BENCHMARK.json declares is the default of --seconds.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

EXIT_CHECK_FAILED = 1
EXIT_UNUSABLE = 2


def end_to_end(outcome, seconds) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with ``seconds(span)`` as the clock."""
    finished = outcome.attempted - outcome.failed
    timed = sum(seconds(span) for span in outcome.timed)
    delivering = sum(seconds(span) for span in
                     getattr(outcome, outcome.deliveries_in))
    return {
        "setup_s": (statistics.median(seconds(span)
                                      for span in outcome.setup), "s"),
        "ops_per_s": (finished / timed, "1/s"),
        "deliveries_per_s": (outcome.deliveries / delivering, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }


def _layer_table(layers: dict) -> list[str]:
    lines = [f"{'layer':<32} {'calls':>9} {'self_ms':>11} {'total_ms':>11}"]
    for name in sorted(layers):
        row = layers[name]
        lines.append(f"{name:<32} {row['calls']:>9} {row['self_ms']:>11.1f} "
                     f"{row['total_ms']:>11.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("tamper-sweep", "mixed-load",
                                 "dispute-audit"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("refusing to run under python -O: Entity.step checks its "
              "transitions with assert", file=sys.stderr)
        return EXIT_UNUSABLE
    if not (SRC / "tset" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'tset'} is missing",
              file=sys.stderr)
        return EXIT_UNUSABLE
    sys.path[:0] = [str(SRC), str(HERE)]
    import hostspeed
    import tracer
    import workloads

    seed = (workloads.DEFAULT_SEEDS[args.workload] if args.seed is None
            else args.seed)
    workloads.OUT.mkdir(exist_ok=True)
    runner = workloads.RUNNERS[args.workload]
    speed = hostspeed.HostSpeed()
    if args.trace:
        start = time.perf_counter()
        with tracer.Tracer() as tr:
            outcome = runner(seed, args.seconds, True, tr.paused)
        wall = time.perf_counter() - start
        layers = tr.layers()
        tr.write(workloads.OUT / f"{args.workload}-{seed}.spans")
        metrics = tracer.per_layer(layers, outcome.deliveries)
    else:
        with speed:
            outcome = runner(seed, args.seconds, False,
                             calibrate=speed.sample)
        metrics = end_to_end(outcome, speed.reference_s)

    print(f"workload {args.workload}  seed {seed}  "
          f"trace {'on' if args.trace else 'off'}")
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  trace sha256 {outcome.digests['trace']}")
    print(f"  ledger sha256 {outcome.digests['ledger']}")
    setup = [speed.host_s(span) for span in outcome.setup]
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  "
          f"timed {sum(map(speed.host_s, outcome.timed)):.3f} host s  "
          f"set-up host s {[round(v, 4) for v in setup]}")
    ops = [speed.host_s(span) for span in outcome.ops]
    if len(ops) >= 40:
        p99 = statistics.quantiles(ops, n=100)[-1]
        beyond = sum(1 for v in ops if v > p99)
        print(f"  op p50 {statistics.median(ops) * 1e3:.3f} ms, "
              f"p99 {p99 * 1e3:.3f} ms over {len(ops)} samples, "
              f"{beyond} beyond p99 (host time)")
    if args.trace:
        spans, cost = len(tr.start), tracer.span_cost()
        print(f"  traced wall time {wall:.3f} s, timed section "
              f"{outcome.timed_s:.3f} s for {outcome.attempted} operations")
        print(f"  tracing overhead {spans} spans x {cost * 1e6:.3f} us = "
              f"{spans * cost:.3f} s, {100 * spans * cost / wall:.1f}% of "
              f"the traced wall time")
        for line in _layer_table(layers):
            print(f"  {line}")
    else:
        print(f"  {speed.summary()}")
        host = end_to_end(outcome, speed.host_s)
        for name in ("setup_s", "ops_per_s", "deliveries_per_s"):
            print(f"  {name} = {host[name][0]:.6g} {host[name][1]} "
                  f"in host seconds")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {unit}")
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
