"""The versioned PDP decision cache (``repro.perf.decision_cache``).

Unit coverage of the epoch-vector guard, then the three end-to-end
invalidation triggers of the ISSUE: a policy revocation, a consent
opt-out and an endpoint withdrawal each bump their monotonic epoch, and
a previously-permitted cached decision is evicted and re-evaluated —
deny-by-default can never be outlived by a stale fast path.
"""

import pytest

from repro import DataConsumer, DataController, DataProducer
from repro.core.consent import ConsentScope
from repro.core.enforcement import DetailRequest
from repro.exceptions import AccessDeniedError
from repro.perf.decision_cache import CachedDecision, DecisionCache
from tests.conftest import blood_test_schema


class TestDecisionCacheUnit:
    def test_lookup_returns_only_same_epoch_entries(self):
        cache = DecisionCache()
        decision = CachedDecision(permitted=True,
                                  released_fields=frozenset({"Hemoglobin"}))
        cache.store("k1", (1, 0, 2), decision)
        assert cache.lookup("k1", (1, 0, 2)) is decision
        assert cache.lookup("missing", (1, 0, 2)) is None

    def test_stale_entries_are_evicted_on_sight(self):
        cache = DecisionCache()
        cache.store("k1", (1, 0, 2), CachedDecision(permitted=True))
        assert cache.lookup("k1", (2, 0, 2)) is None
        assert cache.stats.evicted_stale == 1
        # Evicted for good: even the original vector no longer finds it.
        assert cache.lookup("k1", (1, 0, 2)) is None
        assert len(cache) == 0

    def test_capacity_reset_keeps_the_cache_bounded(self):
        cache = DecisionCache(max_entries=4)
        for index in range(4):
            cache.store(f"k{index}", (0,), CachedDecision(permitted=False))
        assert len(cache) == 4
        cache.store("overflow", (0,), CachedDecision(permitted=False))
        assert len(cache) == 1
        assert cache.lookup("overflow", (0,)) is not None

    def test_invalidate_all_drops_everything(self):
        cache = DecisionCache()
        cache.store("k1", (0,), CachedDecision(permitted=True))
        cache.store("k2", (0,), CachedDecision(permitted=True))
        assert cache.invalidate_all() == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 1


def build_world():
    controller = DataController(seed="perf-cache")
    hospital = DataProducer(controller, "Hospital", "Hospital")
    blood = hospital.declare_event_class(blood_test_schema())
    doctor = DataConsumer(controller, "Dr-Rossi", "Dr. Rossi",
                          role="family-doctor")
    result = hospital.define_policy(
        "BloodTest", fields=["PatientId", "Hemoglobin"],
        consumers=[("family-doctor", "role")],
        purposes=["healthcare-treatment"])
    notification = hospital.publish(
        blood, subject_id="pat-1", subject_name="Mario Bianchi",
        summary="done",
        details={"PatientId": "pat-1", "Name": "Mario", "Hemoglobin": 14.0,
                 "Glucose": 90.0, "HivResult": "negative"})
    return controller, hospital, doctor, notification, result


class TestEndToEndInvalidation:
    def request(self, doctor, notification):
        return doctor.request_details(notification, "healthcare-treatment")

    def test_repeated_requests_hit_the_cache(self):
        controller, hospital, doctor, notification, _ = build_world()
        self.request(doctor, notification)
        hits_before = controller.perf.stats.hits.get("decision", 0)
        self.request(doctor, notification)
        assert controller.perf.stats.hits.get("decision", 0) == hits_before + 1
        assert len(controller.perf.decisions) > 0

    def test_policy_revocation_flips_a_cached_permit_to_deny(self):
        controller, hospital, doctor, notification, result = build_world()
        detail = self.request(doctor, notification)
        assert detail.exposed_values()
        evicted_before = controller.perf.decisions.stats.evicted_stale

        for policy in result.policies:
            controller.policies.revoke(policy.policy_id)

        with pytest.raises(AccessDeniedError,
                           match="no matching policy"):
            self.request(doctor, notification)
        assert controller.perf.decisions.stats.evicted_stale \
            == evicted_before + 1

    def test_consent_opt_out_bumps_the_version_and_denies(self):
        controller, hospital, doctor, notification, _ = build_world()
        self.request(doctor, notification)
        version_before = hospital.consent.version
        evicted_before = controller.perf.decisions.stats.evicted_stale

        hospital.record_opt_out("pat-1", ConsentScope.DETAILS, "BloodTest")

        assert hospital.consent.version > version_before
        # The consent interceptor denies upstream of the decide stage —
        # the cached policy permit cannot bypass a withdrawn consent.
        with pytest.raises(AccessDeniedError):
            self.request(doctor, notification)
        # And the decide-stage cache itself is versioned against the
        # consent registry: the next PDP lookup evicts the stale entry.
        request = DetailRequest(
            actor=doctor.actor, event_type="BloodTest",
            event_id=notification.event_id, purpose="healthcare-treatment",
        )
        controller.enforcer.decide(request)
        assert controller.perf.decisions.stats.evicted_stale \
            == evicted_before + 1

    def test_endpoint_withdrawal_bumps_the_epoch_and_evicts(self):
        controller, hospital, doctor, notification, _ = build_world()
        self.request(doctor, notification)
        epoch_before = controller.endpoints.epoch
        misses_before = controller.perf.stats.misses.get("decision", 0)
        evicted_before = controller.perf.decisions.stats.evicted_stale

        controller.endpoints.expose("transient-gateway", lambda request: request)
        controller.endpoints.withdraw("transient-gateway")

        assert controller.endpoints.epoch == epoch_before + 2
        # The cached decision was versioned against the old epoch: the
        # next request evicts it and re-evaluates from the repository.
        self.request(doctor, notification)
        assert controller.perf.decisions.stats.evicted_stale \
            == evicted_before + 1
        assert controller.perf.stats.misses.get("decision", 0) \
            == misses_before + 1

    def test_cached_and_fresh_decisions_agree(self):
        controller, hospital, doctor, notification, _ = build_world()
        first = self.request(doctor, notification)
        second = self.request(doctor, notification)
        assert first.released_fields == second.released_fields
        assert first.exposed_values() == second.exposed_values()
