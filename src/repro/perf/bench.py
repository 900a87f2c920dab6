"""Shared core of the hot-path performance benchmark (``BENCH_perf.json``).

One module, two drivers: ``benchmarks/bench_perf_hotpath.py`` (the CI
trajectory script) and the ``repro perf`` CLI both call these functions,
so the measured paths and the summary shape cannot drift apart.

Three figures:

* **PDP decide** — repeated authorization decisions against a policy
  class with many candidate policies.  ``indexed`` is the runtime path
  (policy index + versioned decision cache); ``none`` is the linear
  reference, ``pep.authorize(repository.to_policy_set(...))`` on every
  request (see :class:`LinearReference`);
* **publish fan-out** — subscription matching for broker publishes
  against a population of exact/``*``/``#`` subscriptions.  ``indexed``
  is the runtime path (segment trie + fan-out memo); ``none`` is the
  reference scan ``SubscriptionRegistry.matching_topic_linear``;
* **federated request-for-details** at 1/2/4/8 nodes — the end-to-end
  two-phase exchange over a federated deployment (one path, no
  comparison).

Timing is wall-clock (``time.perf_counter``) because these paths are pure
computation — the simulated clock never advances inside them.  The
equivalence check runs the standard scenario on the runtime path and
again with every decision taken by the linear reference, and compares
decisions and full audit payloads, so a speedup can never be bought with
a changed decision.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.benchreport import latency_summary

#: Schema identifier stamped on BENCH_perf.json and required by
#: ``benchmarks/check_perf_schema.py``.
SCHEMA_ID = "css-bench-perf/1"

#: The arms of the compared figures: the runtime path and the reference.
MODES = ("indexed", "none")

#: Node counts of the federated request-for-details figure.
DEFAULT_NODE_COUNTS = (1, 2, 4, 8)


def measure(op: Callable[[], object], iterations: int,
            warmup: int = 0) -> dict:
    """ops/sec + latency percentiles of ``iterations`` calls to ``op``."""
    for _ in range(warmup):
        op()
    timings: list[float] = []
    append = timings.append
    clock = time.perf_counter
    total_start = clock()
    for _ in range(iterations):
        started = clock()
        op()
        append(clock() - started)
    elapsed = max(clock() - total_start, 1e-9)
    timings.sort()
    return {
        "iterations": iterations,
        "ops_per_second": iterations / elapsed,
        "latency_seconds": latency_summary(timings),
    }


# -- the linear PDP reference -------------------------------------------------


class LinearReference:
    """The reference PDP: no cache, the producer's whole policy class.

    Stands in for the perf layer of a
    :class:`~repro.core.enforcement.PolicyEnforcer`, so every decision is
    ``pep.authorize(repository.to_policy_set(...))`` — the linear oracle
    the indexed path is measured and checked against.  No runtime path
    builds one.
    """

    def __init__(self, repository) -> None:
        self._repository = repository

    def cached_decision(self, entry, request) -> None:
        return None

    def store_decision(self, entry, request, decision) -> None:
        return None

    def policy_set_for(self, entry, request):
        return self._repository.to_policy_set(entry.producer_id, entry.event_type)


def reference_enforcer(controller):
    """A policy enforcer over ``controller``'s state that decides linearly."""
    from repro.core.enforcement import PolicyEnforcer

    return PolicyEnforcer(
        repository=controller.policies,
        id_map=controller.id_map,
        purposes=controller.purposes,
        audit_log=controller.audit_log,
        clock=controller.clock,
        ids=controller.ids,
        consent_resolver=controller.consent_registry_of,
        fetcher=controller.detail_fetcher,
        perf=LinearReference(controller.policies),
    )


# -- figure 1: PDP decide ---------------------------------------------------


def build_decide_rig(policies: int = 32,
                     seed: str = "perf-bench") -> tuple[object, list]:
    """A controller plus a cycle of permit/deny detail requests.

    Policy #0 authorizes the benchmark consumer; the other ``policies-1``
    target unrelated actors — the candidate set the linear matcher must
    walk and the policy index prunes.  The request cycle mixes the
    authorized consumer with unknown actors so both outcomes (and the
    deny-by-default path) are measured.
    """
    from repro import DataConsumer, DataController, DataProducer
    from repro.core.actors import Actor, ActorKind
    from repro.core.enforcement import DetailRequest
    from repro.sim.generators import standard_event_templates

    controller = DataController(seed=seed)
    producer = DataProducer(controller, "Hospital", "Hospital")
    template = standard_event_templates()["BloodTest"]
    event_class = producer.declare_event_class(template.build_schema())
    consumer = DataConsumer(controller, "Doctor", "Doctor", role="family-doctor")
    producer.define_policy(
        "BloodTest", fields=["PatientId", "Name", "Hemoglobin"],
        consumers=[("Doctor", "unit")], purposes=["healthcare-treatment"],
    )
    for index in range(max(policies - 1, 0)):
        producer.define_policy(
            "BloodTest", fields=["Hemoglobin"],
            consumers=[(f"Other-{index}", "unit")],
            purposes=["statistical-analysis"],
        )
    notification = producer.publish(
        event_class, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="blood test completed",
        details={"PatientId": "pat-1", "Name": "Mario", "Surname": "Bianchi",
                 "Hemoglobin": 13.9, "Glucose": 92.0, "Cholesterol": 180.0,
                 "HivResult": "negative"},
    )
    requests = [DetailRequest(
        actor=consumer.actor, event_type="BloodTest",
        event_id=notification.event_id, purpose="healthcare-treatment",
    )]
    for index in range(3):
        stranger = Actor(
            actor_id=f"Stranger-{index}", name=f"Stranger {index}",
            kind=ActorKind.CONSUMER, role="unit",
        )
        requests.append(DetailRequest(
            actor=stranger, event_type="BloodTest",
            event_id=notification.event_id, purpose="healthcare-treatment",
        ))
    return controller, requests


def run_pdp_decide(enforcer, requests: list, iterations: int = 4000) -> dict:
    """Time ``enforcer.decide`` over the permit/deny request cycle."""
    cycle = {"position": 0}

    def op() -> bool:
        request = requests[cycle["position"] % len(requests)]
        cycle["position"] += 1
        return enforcer.decide(request)

    return measure(op, iterations, warmup=len(requests))


def run_pdp_figure(policies: int = 32, iterations: int = 4000,
                   seed: str = "perf-bench") -> dict:
    """Both arms of the PDP figure on one rig: indexed vs linear reference."""
    controller, requests = build_decide_rig(policies=policies, seed=seed)
    figure = {
        "indexed": run_pdp_decide(controller.enforcer, requests, iterations),
        "none": run_pdp_decide(reference_enforcer(controller), requests,
                               iterations),
    }
    stats = controller.perf.stats
    figure["indexed"]["cache"] = {
        "decision_hits": stats.hits.get("decision", 0),
        "decision_misses": stats.misses.get("decision", 0),
    }
    figure["policies"] = policies
    figure["speedup"] = _speedup(figure)
    return figure


# -- figure 2: publish fan-out ----------------------------------------------


def build_fanout_rig(subscribers: int = 64,
                     topics: int = 12) -> tuple[object, list[str]]:
    """A subscription registry with a mixed exact/``*``/``#`` population."""
    from repro.bus.subscriptions import Subscription, SubscriptionRegistry

    registry = SubscriptionRegistry()
    topic_names = [
        f"events.cat{index % 4}.Class{index}" for index in range(topics)
    ]

    def handler(envelope) -> None:
        return None

    patterns = ["events.#", "events.cat0.*", "events.cat1.*",
                "events.cat2.*", "events.cat3.*"]
    for index in range(subscribers):
        if index % 3 == 0:
            pattern = patterns[index % len(patterns)]
        else:
            pattern = topic_names[index % len(topic_names)]
        registry.add(Subscription(
            subscription_id=f"sub-{index}", subscriber=f"consumer-{index}",
            pattern=pattern, handler=handler,
        ))
    return registry, topic_names


def run_publish_fanout(subscribers: int = 64, iterations: int = 1500,
                       topics: int = 12) -> dict:
    """Time per-publish subscription matching: trie + memo vs linear scan."""
    registry, topic_names = build_fanout_rig(subscribers=subscribers,
                                             topics=topics)
    figure: dict = {}
    for mode, match in (("indexed", registry.matching_topic),
                        ("none", registry.matching_topic_linear)):
        cycle = {"position": 0, "matched": 0}

        def op(match=match, cycle=cycle) -> None:
            topic = topic_names[cycle["position"] % len(topic_names)]
            cycle["position"] += 1
            cycle["matched"] += len(match(topic))

        figure[mode] = measure(op, iterations, warmup=len(topic_names))
        figure[mode]["matched"] = cycle["matched"]
    figure["subscribers"] = subscribers
    figure["speedup"] = _speedup(figure)
    return figure


# -- figure 3: federated request-for-details --------------------------------


def build_federated_rig(nodes: int, events: int = 80,
                        patients: int = 12, seed: int = 2010):
    """A populated N-node federation plus its detail-request sample.

    Publishes the seeded workload (no detail requests yet), then derives
    one request tuple per (event, subscribed consumer) pair.
    """
    from repro.federation.scenario import (
        ROLE_PURPOSES,
        FederatedScenario,
        FederatedScenarioConfig,
    )

    scenario = FederatedScenario(FederatedScenarioConfig(
        nodes=nodes, n_events=events, n_patients=patients, seed=seed,
        detail_request_rate=0.0,
    ))
    platform = scenario.platform
    config = scenario.config
    requests: list[tuple[str, str, str, str]] = []
    for item in scenario.generate_workload():
        producer_id = config.producer_assignment[item.template_name]
        if item.offset_seconds > scenario.clock.now():
            scenario.clock.set(item.offset_seconds)
        notification = platform.publish(
            producer_id, scenario.event_classes[item.template_name],
            subject_id=item.patient.patient_id, subject_name=item.patient.name,
            summary=item.summary, details=dict(item.details),
        )
        if notification is None:
            continue
        template = scenario.templates[item.template_name]
        for consumer_id, role in config.consumers:
            if not template.needed_fields.get(role):
                continue
            requests.append((consumer_id, item.template_name,
                             notification.event_id, ROLE_PURPOSES[role]))
    return platform, requests


def run_federated_details(nodes: int, iterations: int = 300,
                          events: int = 80, patients: int = 12,
                          seed: int = 2010) -> dict:
    """Time end-to-end requests-for-details across an N-node federation."""
    from repro.exceptions import AccessDeniedError

    platform, requests = build_federated_rig(
        nodes, events=events, patients=patients, seed=seed,
    )
    outcomes = {"permits": 0, "denies": 0}
    cycle = {"position": 0}

    def op() -> None:
        consumer_id, event_type, event_id, purpose = requests[
            cycle["position"] % len(requests)
        ]
        cycle["position"] += 1
        try:
            platform.request_details(consumer_id, event_type, event_id, purpose)
        except AccessDeniedError:
            outcomes["denies"] += 1
        else:
            outcomes["permits"] += 1

    result = measure(op, iterations, warmup=min(len(requests), 10))
    result["nodes"] = nodes
    result["requests_sampled"] = len(requests)
    result.update(outcomes)
    return result


# -- equivalence ------------------------------------------------------------


def run_equivalence_check(events: int = 60, patients: int = 8,
                          seed: int = 42) -> dict:
    """Indexed decisions and audit payloads against the linear reference.

    The standard scenario runs twice on one seed: on the runtime path,
    and with the controller's enforcer replaced by
    :func:`reference_enforcer`, so every detail request is decided by
    the reference.  Outcomes and full audit payloads must be equal.
    Then every pairing of a delivered notification with a consumer and a
    purpose — denials included — is decided by both on the indexed run's
    final state, and the verdicts must agree.  This is the acceptance
    gate of the indexed path.
    """
    from repro.core.enforcement import DetailRequest
    from repro.sim.scenario import ROLE_PURPOSES, CssScenario, ScenarioConfig

    def one(reference: bool):
        scenario = CssScenario(ScenarioConfig(
            n_patients=patients, n_events=events, seed=seed,
        ))
        if reference:
            scenario.controller.enforcer = reference_enforcer(scenario.controller)
        report = scenario.run()
        audit = [record.to_payload()
                 for record in scenario.controller.audit_log.records()]
        outcome = (report.events_published, report.detail_permits,
                   report.detail_denies, report.notifications_delivered)
        return scenario, outcome, audit

    scenario, indexed_outcome, indexed_audit = one(reference=False)
    _, reference_outcome, reference_audit = one(reference=True)

    controller = scenario.controller
    reference = reference_enforcer(controller)
    consumers = list(scenario.consumers.values())
    notifications = {
        notification.event_id: notification
        for consumer in consumers for notification in consumer.inbox
    }
    decisions = disagreements = 0
    for notification in notifications.values():
        for consumer in consumers:
            for purpose in sorted(set(ROLE_PURPOSES.values())):
                request = DetailRequest(
                    actor=consumer.actor, event_type=notification.event_type,
                    event_id=notification.event_id, purpose=purpose,
                )
                decisions += 1
                if controller.enforcer.decide(request) != reference.decide(request):
                    disagreements += 1
    return {
        "identical": indexed_outcome == reference_outcome
        and indexed_audit == reference_audit
        and disagreements == 0,
        "audit_records": len(indexed_audit),
        "decisions": decisions,
        "outcome": list(indexed_outcome),
    }


# -- summary ----------------------------------------------------------------


def _speedup(by_mode: dict) -> float:
    baseline = by_mode["none"]["ops_per_second"]
    return by_mode["indexed"]["ops_per_second"] / max(baseline, 1e-9)


def run_suite(quick: bool = False, node_counts: tuple[int, ...] | None = None,
              seed: int = 2010, source: str = "repro.perf.bench") -> dict:
    """Run every figure and fold them into the summary payload."""
    scale = 0.25 if quick else 1.0
    counts = tuple(node_counts or DEFAULT_NODE_COUNTS)
    if quick:
        counts = tuple(count for count in counts if count <= 2) or counts[:1]

    federated = [
        run_federated_details(
            nodes,
            iterations=int(300 * scale) or 40,
            events=int(80 * scale) or 20,
            seed=seed,
        )
        for nodes in counts
    ]
    return {
        "schema": SCHEMA_ID,
        "source": source,
        "quick": quick,
        "pdp_decide": run_pdp_figure(iterations=int(4000 * scale) or 400),
        "publish_fanout": run_publish_fanout(iterations=int(1500 * scale) or 200),
        "federated_details": federated,
        "equivalence": run_equivalence_check(
            events=int(60 * scale) or 20, seed=seed,
        ),
    }
