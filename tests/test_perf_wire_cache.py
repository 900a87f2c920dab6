"""Federation wire caching (``repro.perf.wire_cache`` + link wire hints)
and the keystore's shared key-schedule cache.

The fast paths must be invisible on the wire: pre-encoded fan-out
messages are the link's canonical encoding, reused sealed relay frames
still open and deliver intact (the pinned transcript digest lives in
``test_golden_witnesses.py``), and the process-wide key schedule returns
boxes that interoperate with freshly derived ones.
"""

from repro.crypto.keystore import KeyStore
from repro.federation.link import wire_message
from repro.perf.wire_cache import SealedFrameCache
from tests.conftest import build_federation


class TestSealedFrameCache:
    def test_miss_put_hit_cycle(self):
        cache = SealedFrameCache()
        assert cache.get(("t", "<x/>")) is None
        frame = cache.put(("t", "<x/>"), {"from": "n", "token": "v1:abc"})
        assert cache.get(("t", "<x/>")) is frame
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_oldest_entry_drops_past_the_cap(self):
        cache = SealedFrameCache(max_entries=2)
        cache.put("a", {"token": "1"})
        cache.put("b", {"token": "2"})
        cache.put("c", {"token": "3"})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a") is None
        assert cache.get("c") is not None


class TestKeyScheduleCache:
    def test_two_stores_share_one_derivation(self):
        KeyStore._schedule.clear()
        misses_before = KeyStore.schedule_misses
        hits_before = KeyStore.schedule_hits
        first = KeyStore("shared-master")
        second = KeyStore("shared-master")
        first.create("channel:x")
        second.create("channel:x")
        assert KeyStore.schedule_misses == misses_before + 1
        assert KeyStore.schedule_hits == hits_before + 1
        # Interoperable: sealed by one store, opened by the other.
        token = first.seal("channel:x", "payload", sequence=1)
        assert second.open_("channel:x", token) == "payload"

    def test_opting_out_still_interoperates(self):
        KeyStore._schedule.clear()
        cached = KeyStore("shared-master")
        plain = KeyStore("shared-master", schedule_cache=False)
        cached.create("channel:y")
        plain.create("channel:y")
        token = plain.seal("channel:y", "payload", sequence=7)
        assert cached.open_("channel:y", token) == "payload"
        assert ("shared-master", "channel:y", 1) in KeyStore._schedule

    def test_different_masters_never_share_boxes(self):
        KeyStore._schedule.clear()
        one = KeyStore("master-a")
        other = KeyStore("master-b")
        one.create("k")
        other.create("k")
        assert len(KeyStore._schedule) == 2


class TestWireHints:
    def test_wire_message_is_the_links_canonical_encoding(self):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        # A fan-out inquiry from node-1 reaches both peers.
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        requests = [
            line for line in platform.link_transcripts()
            if '"op":"index.inquire"' in line
        ]
        assert len(requests) >= 2
        # Every transmitted request equals the canonical encoding —
        # the pre-encoded hint changed nothing on the wire.
        import json

        for line in requests:
            message = json.loads(line)
            assert line == wire_message(message["op"], message["payload"])

    def test_fanout_reuses_the_encoding_across_peers(self):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        platform.controller_of("node-1").index.inquire(["BloodTest"])
        stats = platform.controller_of("node-1").perf.stats
        assert stats.misses.get("wire", 0) >= 1  # encoded once
        assert stats.hits.get("wire", 0) >= 1    # reused for peer #2


class TestTranscriptEquivalence:
    def test_relay_frames_are_sealed_once_with_perf_on(self):
        deployment = build_federation(shards=3)
        platform = deployment.platform
        platform.subscribe("FamilyDoctors/Dr-Rossi", "BloodTest")
        deployment.publish_blood_test()
        deployment.publish_blood_test(subject_id="pat-2")
        platform.dispatch_all()
        inbox = platform.consumer("FamilyDoctors/Dr-Rossi").inbox
        assert [n.subject_ref for n in inbox] == ["pat-1", "pat-2"]
        home = platform.controller_of("node-0").perf.stats
        assert home.misses.get("seal", 0) >= 1
