"""End-to-end benchmark with per-layer attribution for the repro system.

Run from the repository root::

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0

Workloads (see ``scenarios.py``): ``predict``, ``serve_cold``,
``serve_warm``.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0`` measures the unmodified program and reports the
  end-to-end metrics: median operation latency, operations per second,
  and the median of the set-ups repeated before and after the window.
  The computing share of every time is scaled to a nominal host speed
  by probes run between slices of the load (``hostspeed.py``), so a
  shared host's changing speed does not read as a change of the
  program;
- ``--trace 1`` wraps each layer's entry points (``layers.py``) and
  reports, per layer, its self time as a share of the summed operation
  latency, the unattributed remainder, and work counters.

Everything runs in this process and in the caller's directory: the
serving workloads start an HTTP server on a loopback port and stop it
before exiting.  Without the ``src/repro`` package next to this
directory the benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "src"

#: Layers reported by traced runs, in order; absent layers report 0.
LAYERS = (
    "simulate", "decode", "digest", "cache", "admission", "prepare",
    "select", "kernel", "prune", "fit", "predict", "encode",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(window, setup_times: list[float]) -> dict:
    """Times at the nominal host speed (``Window.scaled``)."""
    return {
        "latency_p50_ms": metric(
            statistics.median(window.scaled) * 1000.0, "ms"
        ),
        "ops_per_s": metric(
            len(window.scaled) / window.scaled_elapsed, "1/s"
        ),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def per_layer(window, clock) -> dict:
    ops = len(window.latencies)
    total = sum(window.latencies)
    seconds = dict(clock.totals)
    # A request's time in the scheduler's submit call is its wait for
    # admission plus the execution of its whole batch.
    submitted = seconds.pop("submit", 0.0)
    seconds["admission"] = max(0.0, submitted - clock.batch_seconds)
    shares = {
        f"{layer}_pct": metric(100.0 * seconds.get(layer, 0.0) / total, "%")
        for layer in LAYERS
    }
    attributed = sum(seconds.get(layer, 0.0) for layer in LAYERS)
    shares["unattributed_pct"] = metric(
        100.0 * (total - attributed) / total, "%"
    )
    counters = window.counters
    lookups = (
        counters["serve.response_cache.hits_total"]
        + counters["serve.response_cache.misses_total"]
    )
    return {
        **shares,
        "traced_mean_ms": metric(1000.0 * total / ops, "ms"),
        "pairs_per_op": metric(
            counters["similarity.pairs_computed"] / ops, "count"
        ),
        "pruned_per_op": metric(
            counters["similarity.pairs_pruned_total"] / ops, "count"
        ),
        "hit_pct": metric(
            100.0 * counters["serve.response_cache.hits_total"] / lookups
            if lookups
            else 0.0,
            "%",
        ),
        "batch_size": metric(
            window.batch_items / window.batch_count
            if window.batch_count
            else 0.0,
            "count",
        ),
        "ops": metric(ops, "count"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SOURCE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))

    from layers import LayerClock, patched
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    clock = LayerClock() if args.trace else None
    scenario = WORKLOADS[args.workload](args.seed, clock)
    with patched(scenario.instrument() if clock else []):
        try:
            setup_times = scenario.setup_times()
            if clock:
                clock.reset()
            window = scenario.measure(args.seconds)
            if not window.latencies:
                print("perfbench: no operation completed", file=sys.stderr)
                return 1
            # Layer shares first: the checks below call into the layers.
            if clock:
                metrics = per_layer(window, clock)
            scenario.verify()
            if not clock:
                setup_times += scenario.setup_times()
                metrics = end_to_end(window, setup_times)
        finally:
            scenario.teardown()

    problems = scenario.problems + window.errors
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems and window.failed == 0
    ms = sorted(1000.0 * t for t in window.latencies)
    probes = sorted(window.probes)
    print(
        f"{args.workload}: {len(ms)} ops in {window.elapsed:.2f} s wall; "
        f"wall latency ms min {ms[0]:.2f} p10 {ms[len(ms) // 10]:.2f} "
        f"p25 {ms[len(ms) // 4]:.2f} p50 {ms[len(ms) // 2]:.2f} "
        f"max {ms[-1]:.2f}; host probe ms min {1000 * probes[0]:.1f} "
        f"p50 {1000 * probes[len(probes) // 2]:.1f} "
        f"max {1000 * probes[-1]:.1f}; scale p50 "
        f"{statistics.median(window.factors):.3f}; scaled set-up s "
        + ", ".join(f"{t:.3f}" for t in setup_times)
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": window.attempted,
                "failed": window.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
