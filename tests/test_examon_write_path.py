"""The typed ExaMon write path against the Table II wire path.

In-process samples reach the broker as typed ``(topic, value)`` batches
(:meth:`MQTTBroker.publish_samples`) and the TSDB stores them as
``array('d')`` columns.  These tests pin that path to what the text path
stores, counts and replays, and pin the counters of whole runs to the
values the per-metric text path produced.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.examon.broker as broker_module
import repro.examon.tsdb as tsdb_module
from repro.chaos.scenarios import scenario_examon_outage
from repro.cluster.cluster import MonteCimoneCluster
from repro.examon.broker import MQTTBroker
from repro.examon.deployment import ExamonDeployment
from repro.examon.payload import encode_payload
from repro.examon.tsdb import TimeSeriesDB
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.thermal.enclosure import EnclosureConfig

TOPICS = ("org/u/node/n1/core/0/cycles", "org/u/node/n1/load_avg.1m",
          "org/u/node/n2/temperature.cpu_temp")


def wired_store():
    broker = MQTTBroker()
    db = TimeSeriesDB()
    db.attach(broker, "#")
    return broker, db


def retained_payloads(broker):
    replays = []
    broker.subscribe("late", "#", replays.append)
    return [(m.topic, m.payload, m.retained) for m in replays]


class TestTypedMatchesWire:
    @given(values=st.lists(st.floats(), min_size=1, max_size=len(TOPICS)),
           ts=st.floats())
    @settings(max_examples=200, deadline=None)
    def test_batch_publish_equals_encoded_publishes(self, values, ts):
        """Any floats, nan and inf included: same points, bytes and replays."""
        items = list(zip(TOPICS, values))
        typed_broker, typed_db = wired_store()
        wire_broker, wire_db = wired_store()
        assert typed_broker.publish_samples(items, ts) == len(items)
        for topic, value in items:
            wire_broker.publish(topic, encode_payload(value, ts), ts)
        for topic, _value in items:
            assert repr(typed_db.query(topic)) == repr(wire_db.query(topic))
            assert repr(typed_db.latest(topic)) == repr(wire_db.latest(topic))
        for counter in ("messages_published", "messages_delivered",
                        "bytes_published", "match_cache_hits"):
            assert getattr(typed_broker, counter) == getattr(wire_broker,
                                                             counter)
        assert retained_payloads(typed_broker) == retained_payloads(wire_broker)

    def test_int_values_keep_their_text_and_store_as_float(self):
        typed_broker, typed_db = wired_store()
        wire_broker, wire_db = wired_store()
        typed_broker.publish_samples([("a/b", 7)], 0)
        wire_broker.publish("a/b", encode_payload(7, 0), 0)
        assert typed_db.query("a/b") == wire_db.query("a/b") == [(0.0, 7.0)]
        assert typed_broker.bytes_published == wire_broker.bytes_published
        assert retained_payloads(typed_broker) == [("a/b", "7;0", True)]

    def test_live_typed_message_carries_value(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("c", "#", received.append)
        broker.publish_samples([("a/b", 42.5)], 7.0)
        message = received[0]
        assert (message.topic, message.value, message.timestamp_s,
                message.retained) == ("a/b", 42.5, 7.0, False)
        assert message.payload == "42.5;7.0"
        with pytest.raises(AttributeError):
            message.payload = "1;1"
        with pytest.raises(AttributeError):
            message.value = 1.0
        with pytest.raises(AttributeError):
            message.timestamp_s = 0.0


def reference_insert(series, timestamp_s, value):
    """The list-of-tuples store: append when monotone, else ``insort``."""
    if series and timestamp_s < series[-1][0]:
        bisect.insort(series, (timestamp_s, value))
    else:
        series.append((timestamp_s, value))


class TestColumnarSeries:
    @given(points=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5,
                                                      2.0, 5.0]),
                                     st.sampled_from([-1.0, 0.0, 2.5, 3.0,
                                                      1e9])),
                           max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_out_of_order_inserts_match_insort_reference(self, points):
        """Duplicate timestamps order by value, as tuple comparison does."""
        db = TimeSeriesDB()
        reference = []
        for timestamp_s, value in points:
            db.insert("m", timestamp_s, value)
            reference_insert(reference, timestamp_s, value)
        assert db.query("m") == reference
        assert db.query("m", 0.5, 1.5) == [p for p in reference
                                           if 0.5 <= p[0] <= 1.5]
        assert db.latest("m") == (reference[-1] if reference else None)
        assert db.fast_appends + db.sorted_inserts == len(points)

    def test_equal_timestamp_backfill_orders_by_value(self):
        db = TimeSeriesDB()
        db.insert("m", 1.0, 5.0)
        db.insert("m", 2.0, 0.0)
        db.insert("m", 1.0, 3.0)   # out of order: before (1.0, 5.0)
        db.insert("m", 1.0, 9.0)   # out of order: after (1.0, 5.0)
        assert db.query("m") == [(1.0, 3.0), (1.0, 5.0), (1.0, 9.0),
                                 (2.0, 0.0)]
        assert (db.fast_appends, db.sorted_inserts) == (2, 2)


BROKER_COUNTERS = ("messages_published", "messages_delivered",
                   "bytes_published", "match_cache_hits", "publish_rejects")
TSDB_COUNTERS = ("points_stored", "fast_appends", "sorted_inserts",
                 "decode_errors")
PLUGIN_COUNTERS = ("samples_backfilled", "samples_dropped", "samples_buffered")


def counters(deployment):
    plugins = [*deployment.pmu_plugins.values(),
               *deployment.stats_plugins.values()]
    out = {f"broker.{name}": getattr(deployment.broker, name)
           for name in BROKER_COUNTERS}
    out.update({f"tsdb.{name}": getattr(deployment.db, name)
                for name in TSDB_COUNTERS})
    out.update({f"plugins.{name}": sum(getattr(p, name) for p in plugins)
                for name in PLUGIN_COUNTERS})
    return out


class TestGoldenCounters:
    """Whole-run counters, recorded with the per-metric text write path."""

    def test_eight_node_hpl_minute(self):
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        deployment = ExamonDeployment(cluster)
        deployment.start()
        SlurmAPI(cluster.slurm).srun("hpl", "alice", 8, duration_s=60.0,
                                     profile=HPL_PROFILE)
        assert counters(deployment) == {
            "broker.messages_published": 33632,
            "broker.messages_delivered": 33632,
            "broker.bytes_published": 3365146,
            "broker.match_cache_hits": 33152,
            "broker.publish_rejects": 0,
            "tsdb.points_stored": 33632,
            "tsdb.fast_appends": 33632,
            "tsdb.sorted_inserts": 0,
            "tsdb.decode_errors": 0,
            "plugins.samples_backfilled": 0,
            "plugins.samples_dropped": 0,
            "plugins.samples_buffered": 0,
        }

    def test_examon_outage_scenario(self, monkeypatch):
        made = []
        init = ExamonDeployment.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(ExamonDeployment, "__init__", recording_init)
        scenario_examon_outage(seed=0)
        assert counters(made[0]) == {
            "broker.messages_published": 78432,
            "broker.messages_delivered": 78432,
            "broker.bytes_published": 7432488,
            "broker.match_cache_hits": 77952,
            "broker.publish_rejects": 32,
            "tsdb.points_stored": 78432,
            "tsdb.fast_appends": 78432,
            "tsdb.sorted_inserts": 0,
            "tsdb.decode_errors": 0,
            "plugins.samples_backfilled": 25856,
            "plugins.samples_dropped": 0,
            "plugins.samples_buffered": 25856,
        }

    def test_in_process_traffic_never_meets_the_codec(self, monkeypatch):
        """Sampling, outage backfill and storage all stay typed."""
        def forbidden(*_args):
            raise AssertionError("Table II codec used in-process")

        monkeypatch.setattr(broker_module, "encode_payload", forbidden)
        monkeypatch.setattr(tsdb_module, "decode_payload", forbidden)
        result = scenario_examon_outage(seed=0)
        assert result.extras["samples_backfilled"] > 0
