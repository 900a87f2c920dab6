"""The benchmark's workloads and the execution of one measured round.

A round builds a fresh :class:`~repro.federation.platform.FederatedPlatform`
for one workload, deploys the workload's classes, policies and
subscriptions, materialises the seeded op plan, and then drives the plan
as a closed loop with one caller: each op is issued when the previous one
returns, and each op is timed on its own.  The loop ends with the
platform's drain barrier (``dispatch_all`` and ``flush_batches``).
Everything after it — the guarantor's audit inquiry, the determinism
witnesses and the correctness checks — is outside the timed phase.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import shutil
import statistics
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.clock import Clock
from repro.exceptions import AccessDeniedError, TamperedLogError
from repro.obs.telemetry import InMemoryTelemetry
from repro.sim.scenario import ROLE_PURPOSES
from repro.workload import WorkloadEngine, workload_config
from repro.workload.capacity import (audit_digest, build_platform,
                                      deploy_workload)
from repro.workload.config import OP_DETAILS, OP_PUBLISH

from tracer import HARNESS

#: Assisted persons in every workload's population.
POPULATION = 20_000
#: Ops per round: the run length at which the duplicate-subscription
#: defect was first measured (see README.md, "Known defect").
ROUND_OPS = 2_500
#: Rounds of one run use workload seeds ``seed * ROUND_SEED_STRIDE + k``.
ROUND_SEED_STRIDE = 100

#: Ops between two speed probes in an untraced loop.
PROBE_EVERY = 100
#: Iterations of the probe's three parts: arithmetic, allocations, documents.
PROBE_ITERATIONS = (7_000, 500, 4)
#: The document the probe serialises, hashes and parses.
PROBE_DOCUMENT = {f"k{i}": [i, "v" * (i % 17), {"x": i}] for i in range(60)}
#: What one probe takes on the reference machine (README.md, "Noise").
#: Timings are reported as if the machine ran at this speed.
REFERENCE_PROBE_NS = 1_800_000

SUBJECT_ID = re.compile(r"ap-\d{8}")
#: Outcome of a details op issued before any event of its class existed.
SKIPPED = object()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a preset on a platform configuration."""

    name: str
    preset: str
    nodes: int
    telemetry: bool
    durable: bool
    #: Share of details ops given a purpose the tenant is not granted.
    deny_share: float = 0.0


#: Why these three: README.md, "Workloads and why".
WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        # Stages, fanout, audit and telemetry; no link, no disk.
        Workload("publish-fanout-1n", "steady", 1, telemetry=True,
                 durable=False),
        # The same streams; adds link seal/open, hops, shards, relays.
        Workload("federated-4n", "steady", 4, telemetry=True, durable=False),
        # Reads beside group-committed disk writes; the deny path.
        Workload("details-durable-2n", "multi_tenant", 2, telemetry=False,
                 durable=True, deny_share=0.1),
    )
}


@dataclass
class RoundResult:
    """Everything one round measured and checked."""

    seed: int
    ops: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    loop_s: float = 0.0
    inquiry_s: float = 0.0
    publish_ms: list[float] = field(default_factory=list)
    details_ms: list[float] = field(default_factory=list)
    kinds: dict[str, int] = field(default_factory=dict)
    witnesses: dict[str, object] = field(default_factory=dict)
    model: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    #: Median probe time during the loop, ns (0 when traced: no probes).
    probe_ns: float = 0.0

    @property
    def speed(self) -> float:
        """Reference probe time over this round's: below 1 on a slow host.

        A wall time times ``speed`` is that time at reference speed.
        """
        return REFERENCE_PROBE_NS / self.probe_ns if self.probe_ns else 1.0

    def fail(self, message: str, ops: int = 1) -> None:
        """Count ``ops`` failed; any failure makes the run incorrect."""
        self.failed += ops
        if len(self.failures) < 5:
            self.failures.append(message)


class _ProbeRecord:
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n


def probe() -> int:
    """Time a fixed stdlib-only workload that never touches the platform, ns.

    The host's effective speed drifts by tens of percent over tens of
    seconds; the probe runs beside the platform's ops and tracks it.  Its
    parts are the kinds of work the platform's ops are made of: interpreter
    arithmetic, allocating and freeing small containers and objects, and a
    JSON and SHA-256 round trip.  On this mix the platform's speed moved
    about one for one with the probe's (README.md, "Noise").
    """
    arithmetic, allocations, documents = PROBE_ITERATIONS
    begin = time.perf_counter_ns()
    total = 0
    for i in range(arithmetic):
        total += i * i % 7
    kept = [{"a": [i, i + 1], "b": _ProbeRecord(i), "c": str(i)}
            for i in range(allocations)]
    del kept
    for _ in range(documents):
        blob = json.dumps(PROBE_DOCUMENT, sort_keys=True)
        total += len(hashlib.sha256(blob.encode()).digest())
        total += len(json.loads(blob))
    return time.perf_counter_ns() - begin


def round_seed(seed: int, index: int) -> int:
    """The workload seed of round ``index`` of a run seeded ``seed``."""
    return seed * ROUND_SEED_STRIDE + index


def _inject_denials(plan, workload: Workload, seed: int):
    """Give a seeded share of details ops a purpose the tenant lacks."""
    expect_deny = [False] * len(plan)
    if not workload.deny_share:
        return plan, expect_deny
    rng = random.Random(f"wallbench-deny:{seed}")
    purposes = sorted(set(ROLE_PURPOSES.values()))
    for position, op in enumerate(plan):
        if op.kind != OP_DETAILS or rng.random() >= workload.deny_share:
            continue
        wrong = [p for p in purposes if p != op.purpose]
        plan[position] = replace(op, purpose=rng.choice(wrong))
        expect_deny[position] = True
    return plan, expect_deny


def _home_producers(platform, engine: WorkloadEngine) -> None:
    """Home every producer on the first node; consumers stay round-robin.

    Only a producer's home node mints event ids, so with one minting node
    the cross-node event-id collision (README.md, "Known defect") cannot
    fail an op.  ``deploy_workload`` skips producers that are already
    homed.
    """
    home = platform.nodes()[0].node_id
    for template in engine.templates:
        producer_id = engine.producer_of(template)
        if producer_id not in platform._producers:  # noqa: SLF001
            platform.add_producer(producer_id, producer_id.replace("-", " "),
                                  node_id=home)


def _setup(workload: Workload, seed: int, work_dir: Path):
    config = workload_config(workload.preset, population=POPULATION,
                             ops=ROUND_OPS, seed=seed)
    clock = Clock()
    telemetry = None
    if workload.telemetry:
        telemetry = InMemoryTelemetry(clock=clock, guard_mode="hash",
                                      secret=f"css-workload-{seed}")
    if workload.durable:
        platform = build_platform(
            config, workload.nodes, clock, None, sched="fair", batch="on",
            store="segmented", data_dir=work_dir,
        )
    else:
        platform = build_platform(config, workload.nodes, clock, telemetry)
    engine = WorkloadEngine(config)
    _home_producers(platform, engine)
    event_classes = deploy_workload(platform, engine, config)
    plan, expect_deny = _inject_denials(list(engine.plan()), workload, seed)
    return config, clock, telemetry, platform, engine, event_classes, plan, \
        expect_deny


def run_round(workload: Workload, seed: int, work_dir: Path,
              tracer=None) -> RoundResult:
    """Set up, drive and check one round; ``tracer`` (installed) or None."""
    result = RoundResult(seed=seed)
    if work_dir.exists():
        shutil.rmtree(work_dir)
    gc.collect()  # the last round's platform is garbage; don't time its cleanup
    started = time.perf_counter()
    (config, clock, telemetry, platform, engine, event_classes, plan,
     expect_deny) = _setup(workload, seed, work_dir)
    result.setup_s = time.perf_counter() - started

    recent = {name: deque(maxlen=64) for name in engine.templates}
    producers = {name: engine.producer_of(name) for name in engine.templates}
    outcomes: list[object] = [SKIPPED] * len(plan)
    publish_ns: list[int] = []
    details_ns: list[int] = []
    bus_start = _bus_counters(platform)
    link_start = _link_counters(platform)
    gc.collect()  # start every loop from a collected heap, not the last round's
    if tracer is not None:
        tracer.reset()
        tracer.enter(HARNESS)
    perf_ns = time.perf_counter_ns
    probes: list[int] = []
    calibrate = tracer is None  # the traced loop's wall must be all layers
    loop_start = perf_ns()
    for position, op in enumerate(plan):
        if calibrate and position % PROBE_EVERY == 0:
            probes.append(probe())  # between ops, outside every op's timing
        if op.at > clock.now():
            clock.set(op.at)
        if op.kind == OP_PUBLISH:
            begin = perf_ns()
            try:
                outcome = platform.publish(
                    producers[op.template], event_classes[op.template],
                    subject_id=op.subject_id, subject_name=op.subject_name,
                    summary=op.summary, details=dict(op.details or {}),
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                outcome = exc
            publish_ns.append(perf_ns() - begin)
            if outcome is not None and not isinstance(outcome, Exception):
                recent[op.template].append(outcome.event_id)
        elif op.kind == OP_DETAILS:
            window = recent[op.template]
            if not window:
                continue  # the publish was consent-blocked; nothing to ask
            target = window[-1 - min(op.target_recency, len(window) - 1)]
            begin = perf_ns()
            try:
                outcome = platform.request_details(
                    op.tenant_id, op.template, target, op.purpose
                )
            except Exception as exc:  # noqa: BLE001 - checked after the loop
                outcome = exc
            details_ns.append(perf_ns() - begin)
        else:
            try:
                outcome = platform.subscribe(op.tenant_id, op.template)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                outcome = exc
        outcomes[position] = outcome
    # Drain queues and group-commit buffers inside the timed phase, so the
    # batched path's deferred work counts as much as the unbatched path's.
    drain_error = None
    try:
        platform.dispatch_all()
        platform.flush_batches()
    except Exception as exc:  # noqa: BLE001 - a deferred store failed
        drain_error = exc
    loop_end = perf_ns()
    if tracer is not None:
        tracer.exit()
    result.loop_s = (loop_end - loop_start - sum(probes)) / 1e9
    if probes:
        result.probe_ns = statistics.median(probes)
    result.publish_ms = [ns / 1e6 for ns in publish_ns]
    result.details_ms = [ns / 1e6 for ns in details_ns]
    if tracer is not None:
        result.layer = _layer_figures(tracer, platform, bus_start,
                                      link_start)
        result.layer["storage.bytes"] = float(sum(
            path.stat().st_size for path in work_dir.rglob("*")
            if path.is_file()
        )) if work_dir.exists() else 0.0
    if drain_error is not None:
        result.fail(f"drain barrier: {type(drain_error).__name__}: "
                    f"{drain_error}")
    _check_ops(result, plan, outcomes, expect_deny, engine)
    # The model first: the inquiry itself charges simulated work.
    result.model = _model(platform, result.kinds)

    gc.collect()  # as before the loop: no collection debt carried in
    started = time.perf_counter()
    try:
        trail = platform.guarantor_inquiry()
    except TamperedLogError as exc:
        result.fail(f"audit chain does not verify: {exc}", result.ops)
        trail = None
    except Exception as exc:  # noqa: BLE001 - the check could not run
        result.fail(f"guarantor inquiry failed: {type(exc).__name__}: {exc}",
                    result.ops)
        trail = None
    result.inquiry_s = time.perf_counter() - started
    if trail is not None:
        _check_trail(result, platform, trail)
    _witnesses(result, platform, trail, plan, outcomes)
    _check_privacy(result, platform, telemetry)
    result.layer.update(_delivery_figures(platform, config))
    if work_dir.exists():
        shutil.rmtree(work_dir)
    return result


# -- correctness checks (outside the timed phase) ------------------------------


def _check_ops(result: RoundResult, plan, outcomes, expect_deny,
               engine: WorkloadEngine) -> None:
    roles = engine.tenant_roles()
    kinds = {"publish": 0, "details": 0, "subscribe": 0, "denied": 0,
             "blocked": 0}
    for op, outcome, deny in zip(plan, outcomes, expect_deny):
        if outcome is SKIPPED:
            continue  # no event of the class to ask about yet
        result.ops += 1
        kinds[op.kind] += 1
        if op.kind == OP_DETAILS:
            if isinstance(outcome, AccessDeniedError):
                kinds["denied"] += 1
                if not deny:
                    result.fail(f"op {op.sequence}: granted request denied")
                continue
            if isinstance(outcome, Exception):
                result.fail(f"op {op.sequence}: {type(outcome).__name__}: "
                            f"{outcome}")
                continue
            if deny:
                result.fail(f"op {op.sequence}: request with an ungranted "
                            "purpose was permitted")
                continue
            granted = set(engine.templates[op.template]
                          .needed_fields.get(roles[op.tenant_id], ()))
            leaked = set(outcome.released_fields) - granted
            if leaked:
                result.fail(f"op {op.sequence}: released fields outside the "
                            f"grant: {sorted(leaked)}")
        elif isinstance(outcome, Exception):
            result.fail(f"op {op.sequence}: {type(outcome).__name__}: "
                        f"{outcome}")
        elif op.kind == OP_PUBLISH and outcome is None:
            kinds["blocked"] += 1
    result.kinds = kinds


def _check_trail(result: RoundResult, platform, trail) -> None:
    records = sum(len(node.controller.audit_log) for node in platform.nodes())
    heads = {node.node_id: node.controller.audit_log.head_digest
             for node in platform.nodes()}
    if trail.heads != heads or len(trail) != records:
        result.fail("guarantor trail does not match the nodes' audit chains",
                    result.ops)


def _check_privacy(result: RoundResult, platform, telemetry) -> None:
    surfaces = {"link transcript": platform.link_transcripts()}
    if telemetry is not None:
        surfaces["trace export"] = telemetry.trace_export()
        surfaces["metrics export"] = telemetry.metrics_export()
    for name, lines in surfaces.items():
        if SUBJECT_ID.search("\n".join(lines)):
            result.fail(f"plaintext subject id in a {name}", result.ops)


# -- witnesses and the cost model -----------------------------------------------


def _decision(kind: str, outcome) -> str:
    """One op's token in the decision stream."""
    if isinstance(outcome, AccessDeniedError):
        return f"{kind}:deny"
    if isinstance(outcome, Exception):
        return f"{kind}:error"
    if kind == OP_PUBLISH:
        return "publish:blocked" if outcome is None else "publish:ok"
    return "details:permit" if kind == OP_DETAILS else f"{kind}:ok"


def _witnesses(result: RoundResult, platform, trail, plan, outcomes) -> None:
    """Audit-chain digest (``capacity.audit_digest``) and decision digest."""
    digest, records = "unverified", 0
    if trail is not None:
        digest, records = audit_digest(platform)
    decisions = [_decision(op.kind, outcome)
                 for op, outcome in zip(plan, outcomes)
                 if outcome is not SKIPPED]
    result.witnesses = {
        "audit_digest": digest,
        "audit_records": records,
        "decision_digest": "sha256:" + hashlib.sha256(
            "|".join(decisions).encode()).hexdigest(),
    }


def _model(platform, kinds: dict[str, int]) -> dict[str, float]:
    """Cost-model figures: simulated, deterministic, labelled as a model."""
    makespan = max(node.work.busy_seconds for node in platform.nodes())
    published = kinds["publish"] - kinds["blocked"]
    return {
        "makespan_s": makespan,
        "events_per_s": published / makespan if makespan > 0 else 0.0,
    }


# -- per-layer figures ------------------------------------------------------------


def _bus_counters(platform) -> dict[str, int]:
    published = fanned_out = 0
    for node in platform.nodes():
        stats = node.controller.bus.stats
        published += stats.published
        fanned_out += stats.fanned_out
    return {"published": published, "fanned_out": fanned_out}


def _link_counters(platform) -> dict[str, int]:
    bytes_carried = retries = 0
    for link in platform.membership.links():
        bytes_carried += link.stats.bytes_carried
        retries += link.stats.retries
    return {"bytes": bytes_carried, "retries": retries}


def _layer_figures(tracer, platform, bus_start,
                   link_start) -> dict[str, float]:
    """Self time and calls per layer plus the boundary counts, one round."""
    figures: dict[str, float] = {}
    for layer, ns in tracer.self_ns.items():
        figures[f"{layer}.self_s"] = ns / 1e9
    for layer, calls in tracer.calls.items():
        figures[f"{layer}.calls"] = float(calls)
    bus = _bus_counters(platform)
    published = bus["published"] - bus_start["published"]
    fanned_out = bus["fanned_out"] - bus_start["fanned_out"]
    figures["bus.deliveries_per_publish"] = (
        fanned_out / published if published else 0.0)
    link = _link_counters(platform)
    figures["federation.link.bytes"] = float(link["bytes"] - link_start["bytes"])
    figures["federation.link.retries"] = float(
        link["retries"] - link_start["retries"])
    figures["crypto.bytes"] = float(tracer.counts["crypto.bytes"])
    commits = tracer.counts["storage.commits"]
    figures["storage.records_per_commit"] = (
        tracer.counts["storage.records"] / commits if commits else 0.0)
    return figures


def _delivery_figures(platform, config) -> dict[str, float]:
    """Inbox deliveries that repeat one already delivered, dead letters."""
    duplicates = 0
    for tenant in config.tenants:
        seen: set[str] = set()
        for notification in platform.consumer(tenant.tenant_id).inbox:
            if notification.event_id in seen:
                duplicates += 1
            seen.add(notification.event_id)
    dead = sum(node.controller.bus.dead_letter_depth
               for node in platform.nodes())
    return {"bus.duplicate_deliveries": float(duplicates),
            "bus.dead_letters": float(dead)}
