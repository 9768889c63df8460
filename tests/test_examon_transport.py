"""Tests for ExaMon transport: topics, payloads, broker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.examon.broker import MQTTBroker
from repro.examon.payload import decode_payload, encode_payload
from repro.examon.topics import TopicSchema, topic_matches
from repro.examon.tsdb import TimeSeriesDB


class TestTopicSchema:
    SCHEMA = TopicSchema(org="unibo", cluster="montecimone")

    def test_pmu_topic_matches_table_ii(self):
        topic = self.SCHEMA.pmu_topic("mc-node-3", 2, "instructions")
        assert topic == ("org/unibo/cluster/montecimone/node/mc-node-3"
                         "/plugin/pmu_pub/chnl/data/core/2/instructions")

    def test_stats_topic_uses_dstat_pub_directory(self):
        # Table II quirk: stats_pub publishes under plugin/dstat_pub.
        topic = self.SCHEMA.stats_topic("mc-node-1", "load_avg.1m")
        assert "/plugin/dstat_pub/chnl/data/load_avg.1m" in topic

    def test_parse_pmu_topic(self):
        topic = self.SCHEMA.pmu_topic("mc-node-3", 2, "cycles")
        fields = self.SCHEMA.parse(topic)
        assert fields == {"org": "unibo", "cluster": "montecimone",
                          "node": "mc-node-3", "plugin": "pmu_pub",
                          "core": "2", "metric": "cycles"}

    def test_parse_stats_topic(self):
        fields = self.SCHEMA.parse(
            self.SCHEMA.stats_topic("mc-node-1", "temperature.cpu_temp"))
        assert fields["metric"] == "temperature.cpu_temp"
        assert "core" not in fields

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            self.SCHEMA.parse("not/an/examon/topic")

    def test_negative_core_rejected(self):
        with pytest.raises(ValueError):
            self.SCHEMA.pmu_topic("n", -1, "cycles")


class TestWildcards:
    def test_plus_matches_one_level(self):
        assert topic_matches("a/+/c", "a/b/c")
        assert not topic_matches("a/+/c", "a/b/b2/c")

    def test_hash_matches_rest(self):
        assert topic_matches("a/#", "a/b/c/d")
        assert topic_matches("a/#", "a/b")

    def test_exact_match(self):
        assert topic_matches("a/b", "a/b")
        assert not topic_matches("a/b", "a/b/c")

    def test_interior_hash_rejected(self):
        with pytest.raises(ValueError):
            topic_matches("a/#/c", "a/b/c")

    def test_all_nodes_pattern_covers_both_plugins(self):
        schema = TopicSchema()
        pattern = schema.all_nodes_pattern()
        assert topic_matches(pattern, schema.pmu_topic("mc-node-5", 0, "cycles"))
        assert topic_matches(pattern, schema.stats_topic("mc-node-5", "procs.run"))

    @given(levels=st.lists(st.sampled_from(["a", "b", "node", "x1"]),
                           min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_hash_is_superset_of_everything_under_prefix(self, levels):
        """Property: 'prefix/#' matches every topic extending the prefix."""
        topic = "/".join(levels)
        assert topic_matches(levels[0] + "/#", topic) or len(levels) == 1


class TestPayload:
    def test_table_ii_format(self):
        assert encode_payload(42.5, 1000.0) == "42.5;1000.0"

    def test_roundtrip(self):
        value, ts = decode_payload(encode_payload(3.14, 99.0))
        assert (value, ts) == (3.14, 99.0)

    def test_malformed_payloads_raise(self):
        with pytest.raises(ValueError):
            decode_payload("no-separator")
        with pytest.raises(ValueError):
            decode_payload("abc;def")

    def test_non_numeric_value_rejected_on_encode(self):
        with pytest.raises(TypeError):
            encode_payload("hot", 1.0)

    @given(value=st.floats(allow_nan=False, allow_infinity=False),
           ts=st.floats(min_value=0, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, value, ts):
        """Property: encode→decode is the identity on finite floats."""
        decoded_value, decoded_ts = decode_payload(encode_payload(value, ts))
        assert decoded_value == value
        assert decoded_ts == ts


class TestStrictCodec:
    """The Table II codec at the wire boundary accepts strict input only."""

    def test_bytes_payload_is_a_value_error(self):
        with pytest.raises(ValueError):
            decode_payload(b"1;0")

    def test_bytes_payload_counted_as_decode_error_not_raised(self):
        broker = MQTTBroker()
        db = TimeSeriesDB()
        db.attach(broker, "#")
        assert broker.publish("t", b"1;0", 0.0) == 1  # publisher survives
        assert db.decode_errors == 1
        assert db.points_stored == 0

    @pytest.mark.parametrize("payload", [" 1 ; 2 ", "1 ;2", "1; 2", "\t1;2",
                                         "1;2\n"])
    def test_whitespace_padded_fields_rejected(self, payload):
        with pytest.raises(ValueError):
            decode_payload(payload)

    @pytest.mark.parametrize("payload", ["1_0;2", "1;2_0"])
    def test_underscore_literals_rejected(self, payload):
        with pytest.raises(ValueError):
            decode_payload(payload)

    @pytest.mark.parametrize("payload", ["nan;1.0", "inf;1.0", "-inf;2.5",
                                         "1e+20;0", "-0.0;3"])
    def test_float_repr_spellings_accepted(self, payload):
        value, _ts = decode_payload(payload)
        assert repr(value) == payload.partition(";")[0]

    @pytest.mark.parametrize("value,error", [(True, TypeError),
                                             (False, TypeError),
                                             ("1", TypeError),
                                             (None, TypeError),
                                             (b"1", TypeError),
                                             (10 ** 400, OverflowError)])
    def test_typed_and_wire_paths_reject_the_same_values(self, value, error):
        with pytest.raises(error):
            encode_payload(value, 1.0)
        broker = MQTTBroker()
        with pytest.raises(error):
            broker.publish_samples([("a/b", value)], 1.0)
        assert (broker.messages_published, broker.bytes_published,
                broker.match_cache_hits) == (0, 0, 0)
        # A bad value on an already-cached topic moves no counter either.
        broker.publish_samples([("a/b", 1.0)], 1.0)
        with pytest.raises(error):
            broker.publish_samples([("a/b", value)], 2.0)
        assert (broker.messages_published, broker.bytes_published,
                broker.match_cache_hits) == (1, len("a/b1.0;1.0"), 0)


class TestBroker:
    def test_publish_delivers_to_matching_subscription(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("client", "a/+/c", received.append)
        assert broker.publish("a/b/c", "1;2", timestamp_s=2.0) == 1
        assert received[0].topic == "a/b/c"

    def test_non_matching_subscription_ignored(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("client", "x/#", received.append)
        assert broker.publish("a/b", "1;2", timestamp_s=2.0) == 0
        assert received == []

    def test_retained_message_delivered_to_late_subscriber(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1", timestamp_s=1.0)
        received = []
        broker.subscribe("late", "a/#", received.append)
        assert len(received) == 1
        assert received[0].retained

    def test_wildcard_publish_rejected(self):
        with pytest.raises(ValueError):
            MQTTBroker().publish("a/+/c", "1;1", timestamp_s=1.0)

    def test_unsubscribe_stops_delivery(self):
        broker = MQTTBroker()
        received = []
        subscription = broker.subscribe("c", "a/#", received.append)
        broker.unsubscribe(subscription)
        broker.publish("a/b", "1;1", timestamp_s=1.0)
        assert received == []

    def test_statistics(self):
        broker = MQTTBroker()
        broker.subscribe("c", "#", lambda m: None)
        broker.publish("t", "1;1", timestamp_s=1.0)
        broker.publish("t", "2;2", timestamp_s=2.0)
        assert broker.messages_published == 2
        assert broker.messages_delivered == 2
        assert broker.bytes_published > 0

    def test_retained_topics_sorted(self):
        broker = MQTTBroker()
        broker.publish("b/x", "1;1", timestamp_s=1.0)
        broker.publish("a/y", "1;1", timestamp_s=1.0)
        assert broker.retained_topics() == ["a/y", "b/x"]


class TestRetainedFlagSemantics:
    """MQTT 3.1.1 §3.3.1.3: the retain flag marks retained-store replays.

    An earlier revision inverted this — live deliveries copied the
    publisher's retain *request* and replays reused the stored flag — so a
    subscriber could not tell a fresh sample from a stale replay.
    """

    def test_live_delivery_carries_retained_false(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("live", "a/#", received.append)
        broker.publish("a/b", "1;1", timestamp_s=1.0, retain=True)
        assert len(received) == 1
        assert received[0].retained is False

    def test_replay_to_late_subscriber_carries_retained_true(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1", timestamp_s=1.0, retain=True)
        received = []
        broker.subscribe("late", "a/#", received.append)
        assert len(received) == 1
        assert received[0].retained is True

    def test_replay_preserves_topic_payload_and_timestamp(self):
        broker = MQTTBroker()
        broker.publish("a/b", "42.5;7.0", timestamp_s=7.0)
        received = []
        broker.subscribe("late", "#", received.append)
        message = received[0]
        assert (message.topic, message.payload, message.timestamp_s) == \
            ("a/b", "42.5;7.0", 7.0)

    def test_same_subscriber_sees_replay_then_live_flags(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1", timestamp_s=1.0)
        received = []
        broker.subscribe("c", "a/b", received.append)
        broker.publish("a/b", "2;2", timestamp_s=2.0)
        assert [m.retained for m in received] == [True, False]

    def test_unretained_publish_not_replayed(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1", timestamp_s=1.0, retain=False)
        received = []
        broker.subscribe("late", "#", received.append)
        assert received == []


class TestTopicTrie:
    """The subscription index: wildcard correctness, order, pruning."""

    def test_hash_pattern_matches_prefix_itself(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("c", "a/#", received.append)
        broker.publish("a", "1;1", timestamp_s=1.0)
        broker.publish("a/b/c", "1;1", timestamp_s=1.0)
        assert [m.topic for m in received] == ["a", "a/b/c"]

    def test_root_hash_matches_everything(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("c", "#", received.append)
        for topic in ("a", "a/b", "x/y/z"):
            broker.publish(topic, "1;1", timestamp_s=1.0)
        assert len(received) == 3

    def test_overlapping_patterns_deliver_in_subscription_order(self):
        broker = MQTTBroker()
        order = []
        broker.subscribe("c3", "a/b/c", lambda m: order.append("exact"))
        broker.subscribe("c1", "#", lambda m: order.append("hash"))
        broker.subscribe("c2", "a/+/c", lambda m: order.append("plus"))
        assert broker.publish("a/b/c", "1;1", timestamp_s=1.0) == 3
        assert order == ["exact", "hash", "plus"]

    def test_plus_does_not_match_deeper_topics(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("c", "a/+", received.append)
        broker.publish("a/b/c", "1;1", timestamp_s=1.0)
        broker.publish("a/b", "1;1", timestamp_s=1.0)
        assert [m.topic for m in received] == ["a/b"]

    def test_unsubscribe_prunes_index(self):
        broker = MQTTBroker()
        subs = [broker.subscribe("c", p, lambda m: None)
                for p in ("a/b/c", "a/+/c", "a/#", "#", "x/y")]
        for sub in subs:
            broker.unsubscribe(sub)
        assert broker.subscription_count == 0
        assert broker._root.is_empty()
        assert broker.publish("a/b/c", "1;1", timestamp_s=1.0) == 0

    def test_unsubscribe_keeps_sibling_subscriptions(self):
        broker = MQTTBroker()
        received = []
        doomed = broker.subscribe("c1", "a/+/c", lambda m: None)
        broker.subscribe("c2", "a/b/#", received.append)
        broker.unsubscribe(doomed)
        assert broker.publish("a/b/c", "1;1", timestamp_s=1.0) == 1
        assert received[0].topic == "a/b/c"

    def test_match_ops_counts_index_nodes(self):
        broker = MQTTBroker()
        broker.subscribe("c", "a/b", lambda m: None)
        before = broker.match_ops
        broker.publish("a/b", "1;1", timestamp_s=1.0)
        assert broker.match_ops > before

    @given(pattern_levels=st.lists(
        st.sampled_from(["a", "b", "node", "+"]), min_size=1, max_size=4),
        topic_levels=st.lists(
        st.sampled_from(["a", "b", "node", "x1"]), min_size=1, max_size=4),
        trailing_hash=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_trie_agrees_with_topic_matches(self, pattern_levels,
                                            topic_levels, trailing_hash):
        """Property: the trie index and the reference matcher agree."""
        pattern = "/".join(pattern_levels + (["#"] if trailing_hash else []))
        topic = "/".join(topic_levels)
        broker = MQTTBroker()
        received = []
        broker.subscribe("c", pattern, received.append)
        delivered = broker.publish(topic, "1;1", timestamp_s=1.0,
                                   retain=False)
        assert delivered == (1 if topic_matches(pattern, topic) else 0)
        assert len(received) == delivered
