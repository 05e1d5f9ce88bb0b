"""Benchmark of the simple-metrics reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload study --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is a separate run that wraps each layer's public functions
and reports the per-layer metrics (see ``perfbench/NOTES.md``).  Every
workload checks its outputs against the study records; a wrong answer
counts as a failed operation.  Human-readable lines (metric, unit,
sample count) come first; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

import common

WORKLOADS = ("study", "serve-point", "serve-batch")

#: The gated end-to-end metrics every workload reports.
END_TO_END = ("setup_s", "peak_rss_mb", "throughput_pps", "latency_p50_ms")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "study":
        import wl_study

        return wl_study.run(seed, seconds, trace)
    import wl_serve

    return wl_serve.run(name, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    try:
        common.prepare_checkout()
    except common.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from layers import per_layer_metrics

    # SIGTERM unwinds like Ctrl-C, so servers and pools started so far
    # are stopped by the finally blocks on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = (
        [name for name, _unit in per_layer_metrics()] if args.trace else list(END_TO_END)
    )
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in workloads:
            start = time.monotonic()
            report = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for metric, unit in (per_layer_metrics() if args.trace else ()):
                if metric not in report.metrics:
                    report.put(metric, 0.0, unit, 0)  # layer idle on this workload
            report.print_lines()
            print(f"[{name}] wall {time.monotonic() - start:.1f} s", flush=True)
            results[name] = report.result(names)
    finally:
        common.cleanup_scratch()
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
