"""Wall-clock benchmark of the CSS platform (see README.md).

Run from the repository root:

    python3 wallbench/run.py --workload publish-fanout-1n --seed 1
    python3 wallbench/run.py --workload all --seed 1 --trace 1

One run repeats rounds of the workload (a fresh platform each, round k
seeded ``seed * 100 + k``) until ``--seconds`` have passed (by default
``run_seconds`` of the repository's BENCHMARK.json), then prints
every metric by name and unit, the cost-model figures and the
determinism witnesses, and as its last line one JSON object.  End-to-end
timings are scaled to a reference host speed by probes run beside the
ops (``workloads.probe``; README.md, "Noise").  With
``--trace 1`` every round is run twice, untraced and then traced, and the
per-layer metrics are printed instead of the end-to-end ones.  The exit
code is 1 when an op fails or a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Holds ``run_seconds``, the default of ``--seconds``.
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"

#: Rounds every run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Allowed gap between the summed self times and the traced loop's wall.
LAYER_SUM_TOLERANCE = 0.01

#: name -> unit, in report order (mirrors BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "publish_p50_ms": "ms",
    "publish_p90_ms": "ms",
    "details_p50_ms": "ms",
    "details_p90_ms": "ms",
    "audit_inquiry_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer figures besides ``<layer>.self_s``/``<layer>.calls``.
LAYER_EXTRAS = {
    "harness.self_s": "s",
    "bus.deliveries_per_publish": "ratio",
    "bus.duplicate_deliveries": "count",
    "bus.dead_letters": "count",
    "federation.link.bytes": "B",
    "federation.link.retries": "count",
    "crypto.bytes": "B",
    "storage.records_per_commit": "ratio",
    "storage.bytes": "B",
    "core.publish_drift": "ratio",
    "trace.overhead_ratio": "ratio",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def publish_drift(publish_ms: list[float]) -> float:
    """Median publish latency of the last fifth over the first fifth."""
    fifth = max(1, len(publish_ms) // 5)
    return (statistics.median(publish_ms[-fifth:])
            / statistics.median(publish_ms[:fifth]))


def run_rounds(workload, seed: int, seconds: float, trace: bool):
    """Untraced rounds (and their traced twins) until ``seconds`` pass."""
    from tracer import LayerTracer
    from workloads import round_seed, run_round

    work_dir = Path.cwd() / ".wallbench-work"
    tracer = LayerTracer() if trace else None
    plain, traced = [], []
    started = time.perf_counter()
    try:
        while True:
            seed_k = round_seed(seed, len(plain))
            plain.append(run_round(workload, seed_k, work_dir))
            if tracer is not None:
                tracer.install()
                try:
                    traced.append(run_round(workload, seed_k, work_dir, tracer))
                finally:
                    tracer.uninstall()
            elapsed = time.perf_counter() - started
            if len(plain) >= MIN_ROUNDS and elapsed >= seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return plain, traced, tracer


def check_traced(plain, traced) -> None:
    """The tracer must not change the program, and layers must add up."""
    for untraced, twin in zip(plain, traced):
        if (twin.witnesses, twin.model) != (untraced.witnesses, untraced.model):
            twin.fail("traced round's witnesses differ from the untraced "
                      "round's", twin.ops)
        total = sum(value for name, value in twin.layer.items()
                    if name.endswith(".self_s"))
        if abs(total - twin.loop_s) > LAYER_SUM_TOLERANCE * twin.loop_s:
            twin.fail(f"layer self times sum to {total:.6f} s, traced loop "
                      f"took {twin.loop_s:.6f} s", twin.ops)


def end_to_end(plain) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics and, per metric, what it was measured over.

    Every timing is figured within each round and reported as the median
    over the rounds, so one round slowed by the machine does not move it.
    A latency percentile is taken within a round rather than over pooled
    samples: pooling puts the median between the modes of a mix whose
    shape changes with the seed (hot event classes fan out to many more
    inboxes) and with how loaded the machine was.  Every timing is
    scaled to reference speed by its round's probes (``RoundResult.speed``).
    """
    def median_of(figure) -> float:
        return statistics.median(figure(r) * r.speed for r in plain)

    values = {
        "throughput_ops_s": statistics.median(
            r.ops / (r.loop_s * r.speed) for r in plain),
        "publish_p50_ms": median_of(lambda r: percentile(r.publish_ms, 0.5)),
        "publish_p90_ms": median_of(lambda r: percentile(r.publish_ms, 0.9)),
        "details_p50_ms": median_of(lambda r: percentile(r.details_ms, 0.5)),
        "details_p90_ms": median_of(lambda r: percentile(r.details_ms, 0.9)),
        "audit_inquiry_s": median_of(lambda r: r.inquiry_s),
        "setup_s": median_of(lambda r: r.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    rounds = f"median of {len(plain)} rounds"
    ops = sum(r.ops for r in plain)
    publish = f"{rounds}, n>={min(len(r.publish_ms) for r in plain)} each"
    details = f"{rounds}, n>={min(len(r.details_ms) for r in plain)} each"
    basis = {
        "throughput_ops_s": f"{rounds}, {ops} ops in all",
        "publish_p50_ms": publish,
        "publish_p90_ms": publish,
        "details_p50_ms": details,
        "details_p90_ms": details,
        "audit_inquiry_s": f"{rounds}, one inquiry each",
        "setup_s": rounds,
        "peak_rss_mb": "whole process",
    }
    return values, basis


def per_layer(plain, traced, layers: list[str]) -> dict[str, float]:
    """Per-layer figures: mean per traced round, plus the trace overhead."""
    names = [f"{layer}.{kind}" for layer in layers for kind in ("self_s", "calls")]
    names += list(LAYER_EXTRAS)
    values = {
        name: statistics.fmean(r.layer.get(name, 0.0) for r in traced)
        for name in names
    }
    values["core.publish_drift"] = statistics.median(
        publish_drift(r.publish_ms) for r in plain)
    values["trace.overhead_ratio"] = (sum(r.loop_s for r in traced)
                                      / sum(r.loop_s for r in plain))
    return values


def layer_unit(name: str) -> str:
    if name in LAYER_EXTRAS:
        return LAYER_EXTRAS[name]
    return "s" if name.endswith(".self_s") else "count"


def run_one(args) -> int:
    from tracer import layer_names
    from workloads import REFERENCE_PROBE_NS, WORKLOADS

    workload = WORKLOADS[args.workload]
    plain, traced, tracer = run_rounds(workload, args.seed, args.seconds,
                                       bool(args.trace))
    check_traced(plain, traced)
    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(min(r.failed, r.ops) for r in rounds)

    print(f"wallbench {workload.name}: {workload.preset} preset, "
          f"{workload.nodes} node(s), seed {args.seed}, {len(plain)} rounds "
          f"of closed-loop ops (1 caller)"
          + (", each also traced" if traced else ""))
    kinds = {kind: sum(r.kinds[kind] for r in plain) for kind in plain[0].kinds}
    print(f"  ops: {kinds['publish']} publish ({kinds['blocked']} consent-"
          f"blocked), {kinds['details']} details ({kinds['denied']} denied), "
          f"{kinds['subscribe']} subscribe")
    if args.trace:
        metrics = per_layer(plain, traced, layer_names())
        units = {name: layer_unit(name) for name in metrics}
        basis = {name: f"mean of {len(traced)} traced rounds"
                 for name in metrics}
        basis["core.publish_drift"] = f"median of {len(plain)} untraced rounds"
        basis["trace.overhead_ratio"] = (
            f"{len(traced)} traced over {len(plain)} untraced rounds")
        if tracer.missing:
            print("  boundaries absent from the program: "
                  + ", ".join(tracer.missing))
    else:
        metrics, basis = end_to_end(plain)
        units = dict(END_TO_END)
        print(f"  host speed: median probe "
              f"{statistics.median(r.probe_ns for r in plain) / 1e6:.3f} ms "
              f"against a reference of {REFERENCE_PROBE_NS / 1e6:.3f} ms; "
              f"raw wall throughput "
              f"{statistics.median(r.ops / r.loop_s for r in plain):.1f} ops/s")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]:6s} ({basis[name]})")
    print(f"  {'error_rate':40s} {failed / attempted:14.6f} {'ratio':6s} "
          f"({failed} failed of {attempted} attempted)")
    print("model (simulated cost model, deterministic; not a measurement):")
    for r in plain:
        print(f"  round seed {r.seed}: events_per_s="
              f"{r.model['events_per_s']:.6f} makespan_s="
              f"{r.model['makespan_s']:.6f}")
    print("witnesses (identical for equal seeds, traced or not):")
    for r in plain:
        w = r.witnesses
        print(f"  round seed {r.seed}: audit {w['audit_digest']} "
              f"({w['audit_records']} records) decisions "
              f"{w['decision_digest']}")
    for r in rounds:
        for message in r.failures:
            print(f"FAILED round seed {r.seed}: {message}")
    correct = not any(r.failed for r in rounds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line at the end."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"wallbench: workload {name} printed no result "
                  f"(exit {child.returncode})", file=sys.stderr)
            return 2
        correct = correct and result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=2010)
    parser.add_argument("--seconds", type=float,
                        help="measure rounds until this many seconds pass "
                        "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"wallbench: no platform sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; available: all, "
                     + ", ".join(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
