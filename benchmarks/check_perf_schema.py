#!/usr/bin/env python
"""Schema check for ``BENCH_perf.json`` (schema ``css-bench-perf/1``).

CI runs ``bench_perf_hotpath.py --quick --out BENCH_perf.json`` and then
this script.  Beyond shape validation it enforces the two semantic
gates of the perf layer:

* ``equivalence.identical`` must be ``true`` — the indexed path's
  decisions and audit records must equal the linear reference's;
* the indexed PDP-decide path must be at least as fast as the linear
  reference (``pdp_decide.speedup >= 1.0``) — the index can never rot
  into a slowdown unnoticed.

``pdp_decide`` and ``publish_fanout`` compare two arms, ``indexed`` (the
runtime path) and ``none`` (the linear reference).  Each
``federated_details`` point is one measurement of the runtime path.

Usage::

    python benchmarks/check_perf_schema.py BENCH_perf.json

Importable: ``validate(payload)`` returns the list of problems (empty =
valid), which the unit tests exercise directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA_ID = "css-bench-perf/1"
LATENCY_KEYS = ("p50", "p95", "p99", "mean", "min", "max")
MODES = ("indexed", "none")

#: The indexed PDP path must never regress below the linear reference.
MIN_PDP_SPEEDUP = 1.0


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_measurement(entry: object, where: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(entry, dict):
        return [f"{where} must be an object"]
    ops = entry.get("ops_per_second")
    if not _number(ops) or ops <= 0:
        problems.append(f"{where}.ops_per_second must be a positive number")
    iterations = entry.get("iterations")
    if not isinstance(iterations, int) or isinstance(iterations, bool) \
            or iterations <= 0:
        problems.append(f"{where}.iterations must be a positive integer")
    latency = entry.get("latency_seconds")
    if not isinstance(latency, dict):
        problems.append(f"{where}.latency_seconds must be an object")
        return problems
    for key in LATENCY_KEYS:
        value = latency.get(key)
        if not _number(value) or value < 0:
            problems.append(
                f"{where}.latency_seconds.{key} must be a non-negative number"
            )
    if all(_number(latency.get(key)) for key in ("p50", "p95", "p99")):
        if not latency["p50"] <= latency["p95"] <= latency["p99"]:
            problems.append(f"{where}: percentiles must satisfy p50 <= p95 <= p99")
    return problems


def _validate_comparison(section: object, where: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(section, dict):
        return [f"{where} must be an object"]
    for mode in MODES:
        problems.extend(_validate_measurement(section.get(mode), f"{where}.{mode}"))
    speedup = section.get("speedup")
    if not _number(speedup) or speedup <= 0:
        problems.append(f"{where}.speedup must be a positive number")
    return problems


def validate(payload: object) -> list[str]:
    """Every schema violation in ``payload``, human-readable."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    if payload.get("schema") != SCHEMA_ID:
        problems.append(f"schema must be {SCHEMA_ID!r}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("source"), str) or not payload.get("source"):
        problems.append("source must be a non-empty string")
    if not isinstance(payload.get("quick"), bool):
        problems.append("quick must be a boolean")

    problems.extend(_validate_comparison(payload.get("pdp_decide"), "pdp_decide"))
    problems.extend(
        _validate_comparison(payload.get("publish_fanout"), "publish_fanout")
    )

    federated = payload.get("federated_details")
    if not isinstance(federated, list) or not federated:
        problems.append("federated_details must be a non-empty list")
        federated = []
    for index, point in enumerate(federated):
        where = f"federated_details[{index}]"
        if not isinstance(point, dict):
            problems.append(f"{where} must be an object")
            continue
        nodes = point.get("nodes")
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            problems.append(f"{where}.nodes must be a positive integer")
        problems.extend(_validate_measurement(point, where))

    equivalence = payload.get("equivalence")
    if not isinstance(equivalence, dict):
        problems.append("equivalence must be an object")
    else:
        if equivalence.get("identical") is not True:
            problems.append(
                "equivalence.identical must be true — the indexed path "
                "and the linear reference produced different decisions "
                "or audit records"
            )
        records = equivalence.get("audit_records")
        if not isinstance(records, int) or isinstance(records, bool) or records <= 0:
            problems.append("equivalence.audit_records must be a positive integer")

    pdp = payload.get("pdp_decide")
    if isinstance(pdp, dict) and _number(pdp.get("speedup")):
        if pdp["speedup"] < MIN_PDP_SPEEDUP:
            problems.append(
                f"pdp_decide.speedup {pdp['speedup']:.2f} is below the "
                f"{MIN_PDP_SPEEDUP:.1f}x floor — the indexed PDP path "
                "regressed below the linear reference"
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_perf_schema.py BENCH_perf.json", file=sys.stderr)
        return 2
    path = Path(argv[1])
    if not path.exists():
        print(f"check_perf_schema: {path} is missing", file=sys.stderr)
        return 1
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"check_perf_schema: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    problems = validate(payload)
    if problems:
        for problem in problems:
            print(f"check_perf_schema: {problem}", file=sys.stderr)
        return 1
    pdp = payload["pdp_decide"]["speedup"]
    fanout = payload["publish_fanout"]["speedup"]
    print(f"check_perf_schema: {path} ok (pdp decide {pdp:.1f}x, "
          f"publish fanout {fanout:.1f}x vs linear reference)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
