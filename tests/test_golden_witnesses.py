"""Golden equivalence witnesses of the indexed hot path.

The platform once ran every request through two implementations: the
indexed one (policy index, versioned decision cache, subscription trie,
wire and seal caches) and a linear-scan baseline.  Before the baseline
was deleted, the witnesses below were computed under both and found
equal; they are pinned here so the single remaining path can never drift
from what the linear scans decided, routed and wrote.

* the :class:`~repro.sim.scenario.CssScenario` audit-payload digest and
  outcome tuple, at two seeds;
* the 3-shard deployment's ``link_transcripts()`` digest and the relayed
  inbox;
* the :class:`~repro.federation.scenario.FederatedScenario` audit digest.

The PDP decision oracle (indexed decisions against the linear reference)
stays a property test in ``test_perf_policy_index.py``.
"""

import hashlib
import json

import pytest

from repro.federation.scenario import FederatedScenario, FederatedScenarioConfig
from repro.sim.scenario import CssScenario, ScenarioConfig
from repro.workload.capacity import audit_digest
from tests.conftest import build_federation


def digest(value) -> str:
    body = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


class TestGoldenWitnesses:
    @pytest.mark.parametrize(
        ("seed", "patients", "events", "expected_digest", "expected_outcome"),
        [
            (5, 6, 25,
             "64941098c9f7fb19d8e9f5ea2e691ca8462748f49092b0f5022b8eb4a17cf3f6",
             (25, 16, 0, 59)),
            (42, 8, 60,
             "c521c0cc06c2ed8680f751d5d7a7aa4e59d822ec332d72fb7fba45db48712c27",
             (60, 48, 0, 150)),
        ],
        ids=["seed5", "seed42"],
    )
    def test_css_scenario_audit_and_outcome(self, seed, patients, events,
                                            expected_digest, expected_outcome):
        scenario = CssScenario(ScenarioConfig(
            n_patients=patients, n_events=events, seed=seed,
        ))
        report = scenario.run()
        payloads = [record.to_payload()
                    for record in scenario.controller.audit_log.records()]
        outcome = (report.events_published, report.detail_permits,
                   report.detail_denies, report.notifications_delivered)
        assert outcome == expected_outcome
        assert digest(payloads) == expected_digest

    def test_three_shard_link_transcripts_and_inbox(self):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        notifications = [
            deployment.publish_blood_test(subject_id=f"pat-{i}") for i in range(4)
        ]
        platform.dispatch_all()
        platform.request_details(
            "FamilyDoctors/Dr-Rossi", "BloodTest",
            notifications[0].event_id, "healthcare-treatment",
        )
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        transcripts = platform.link_transcripts()
        inbox = platform.consumer("FamilyDoctors/Dr-Rossi").inbox
        assert len(transcripts) == 24
        assert digest(transcripts) == (
            "a7584bc71536b0172d8fc6299f14272d44f13a49c04354bf4f10a7b0c3d3d5da"
        )
        assert [n.subject_ref for n in inbox] == ["pat-0", "pat-1", "pat-2", "pat-3"]

    def test_federated_scenario_audit_digest(self):
        scenario = FederatedScenario(FederatedScenarioConfig(
            nodes=3, n_events=60, n_patients=10, seed=2010,
        ))
        report = scenario.run()
        assert (report.events_published, report.notifications_delivered) == (60, 147)
        assert audit_digest(scenario.platform) == (
            "sha256:8189f1146bbe76f007e4f26a420330ebbbcb074adcdd2aba1d9fb9cbb7d1ef21",
            332,
        )
