"""The actor/role-bucketed policy index (``repro.perf.policy_index``).

The index may only ever drop policies whose target evaluates
``NotApplicable`` — candidates keep registration order, hierarchical
``actor_id`` grants resolve through the ancestor buckets, the buckets
rebuild when the repository's epoch moves, and the indexed PDP returns
the same decisions as the linear reference (full compile-and-evaluate).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actors import Actor, ActorKind
from repro.core.enforcement import DetailRequest
from repro.core.policy import PolicyRepository, PrivacyPolicy
from repro.exceptions import AccessDeniedError
from repro.perf.bench import build_decide_rig, reference_enforcer
from repro.perf.policy_index import PolicyIndex, actor_ancestors


def grant(policy_id: str, *, actor_id: str = "", actor_role: str = "",
          fields=("PatientId",), purposes=("healthcare-treatment",),
          valid_from=None, valid_until=None) -> PrivacyPolicy:
    return PrivacyPolicy(
        policy_id=policy_id, producer_id="Hospital", event_type="BloodTest",
        fields=frozenset(fields), purposes=frozenset(purposes),
        actor_id=actor_id, actor_role=actor_role,
        valid_from=valid_from, valid_until=valid_until,
    )


class TestActorAncestors:
    def test_hierarchy_is_expanded_root_first(self):
        assert actor_ancestors("a/b/c") == ("a", "a/b", "a/b/c")

    def test_flat_actor_is_its_own_ancestry(self):
        assert actor_ancestors("Doctor") == ("Doctor",)


class TestCandidateSelection:
    def build(self):
        repository = PolicyRepository()
        for policy in (
            grant("p-role", actor_role="family-doctor"),
            grant("p-unit", actor_id="FamilyDoctors/Dr-Rossi"),
            grant("p-parent", actor_id="FamilyDoctors"),
            grant("p-other", actor_id="Statistics"),
        ):
            repository.add(policy)
        return repository, PolicyIndex(repository)

    def test_candidates_keep_registration_order(self):
        repository, index = self.build()
        positions = index.candidate_positions(
            "Hospital", "BloodTest", "FamilyDoctors/Dr-Rossi", "family-doctor"
        )
        # Role bucket (pos 0), exact unit (pos 1) and the hierarchical
        # parent grant (pos 2) all apply — in registration order; the
        # unrelated Statistics grant is the only one pruned.
        assert positions == [0, 1, 2]

    def test_pruned_policies_are_exactly_the_not_applicable_ones(self):
        repository, index = self.build()
        policy_set, scanned = index.candidate_set(
            "Hospital", "BloodTest", "Statistics/Team-A", ""
        )
        assert scanned == 1
        assert [p.policy_id for p in policy_set.policies] == ["p-other"]
        assert index.stats.candidates_skipped >= 3

    def test_candidate_set_id_mirrors_the_repository_compilation(self):
        repository, index = self.build()
        policy_set, _ = index.candidate_set(
            "Hospital", "BloodTest", "FamilyDoctors/Dr-Rossi", "family-doctor"
        )
        assert policy_set.policy_set_id == \
            repository.to_policy_set("Hospital", "BloodTest").policy_set_id

    def test_unknown_actor_gets_an_empty_set(self):
        _, index = self.build()
        policy_set, scanned = index.candidate_set(
            "Hospital", "BloodTest", "Nobody", "no-role"
        )
        assert scanned == 0
        assert policy_set.policies == ()


class TestEpochRebuild:
    def test_add_and_revoke_rebuild_the_bucket(self):
        repository = PolicyRepository()
        repository.add(grant("p-1", actor_role="family-doctor"))
        index = PolicyIndex(repository)
        assert index.candidate_positions(
            "Hospital", "BloodTest", "X", "family-doctor") == [0]
        rebuilds = index.stats.rebuilds

        # Same epoch: the cached bucket is reused, no rebuild.
        index.candidate_positions("Hospital", "BloodTest", "X", "family-doctor")
        assert index.stats.rebuilds == rebuilds

        repository.add(grant("p-2", actor_role="family-doctor"))
        assert index.candidate_positions(
            "Hospital", "BloodTest", "X", "family-doctor") == [0, 1]
        assert index.stats.rebuilds == rebuilds + 1

        repository.revoke("p-1")
        assert index.candidate_positions(
            "Hospital", "BloodTest", "X", "family-doctor") == [0]
        policy_set, _ = index.candidate_set(
            "Hospital", "BloodTest", "X", "family-doctor")
        assert [p.policy_id for p in policy_set.policies] == ["p-2"]

    def test_time_bounded_classes_are_flagged(self):
        repository = PolicyRepository()
        repository.add(grant("p-1", actor_role="family-doctor"))
        index = PolicyIndex(repository)
        assert not index.is_time_bounded("Hospital", "BloodTest")
        repository.add(grant("p-window", actor_role="insurer",
                             valid_from=0.0, valid_until=3600.0))
        assert index.is_time_bounded("Hospital", "BloodTest")


def outcome(enforcer, request):
    """The full decision an enforcer reaches: released fields or deny message."""
    try:
        return ("permit", enforcer.get_event_details(request).released_fields)
    except AccessDeniedError as exc:
        return ("deny", str(exc))


class TestIndexedDecisionsMatchLinear:
    """The decision oracle: the indexed PDP against the linear reference,
    ``pep.authorize(repository.to_policy_set(...))``, on one controller."""

    @pytest.mark.parametrize("purpose", ["healthcare-treatment",
                                         "statistical-analysis"])
    def test_decide_agrees_across_modes_for_a_grid_of_actors(self, purpose):
        controller, requests = build_decide_rig(policies=12)
        reference = reference_enforcer(controller)
        for actor_id in ("Doctor", "Other-3", "Stranger"):
            actor = Actor(actor_id=actor_id, name=actor_id,
                          kind=ActorKind.CONSUMER,
                          role="family-doctor" if actor_id == "Doctor" else "unit")
            request = DetailRequest(
                actor=actor, event_type="BloodTest",
                event_id=requests[0].event_id, purpose=purpose,
            )
            assert controller.enforcer.decide(request) == reference.decide(request)

    @given(actor_id=st.sampled_from(["Doctor", "Other-0", "Other-7",
                                     "Other-7/Desk", "Stranger"]),
           role=st.sampled_from(["family-doctor", "unit", ""]),
           purpose=st.sampled_from(["healthcare-treatment",
                                    "statistical-analysis", "billing"]))
    @settings(max_examples=40, deadline=None)
    def test_indexed_decisions_equal_the_reference(self, actor_id, role,
                                                   purpose):
        controller, requests = build_decide_rig(policies=12)
        reference = reference_enforcer(controller)
        request = DetailRequest(
            actor=Actor(actor_id=actor_id, name=actor_id,
                        kind=ActorKind.CONSUMER, role=role),
            event_type="BloodTest", event_id=requests[0].event_id,
            purpose=purpose,
        )
        expected = outcome(reference, request)
        assert outcome(controller.enforcer, request) == expected
        # A replay from the versioned decision cache decides the same.
        assert outcome(controller.enforcer, request) == expected

    def test_the_index_scans_fewer_candidates_than_the_repository_holds(self):
        controller, requests = build_decide_rig(policies=24)
        for request in requests:
            controller.enforcer.decide(request)
        index = controller.perf.policy_index
        assert index is not None
        assert index.stats.selections > 0
        scanned_per_selection = (
            index.stats.candidates_scanned / index.stats.selections
        )
        assert scanned_per_selection < 24
        assert index.stats.candidates_skipped > 0
