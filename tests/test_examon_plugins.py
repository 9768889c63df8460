"""Tests for pmu_pub and stats_pub against a booted node."""

import pytest

from repro.cluster.node import ComputeNode
from repro.examon.broker import MQTTBroker
from repro.examon.payload import decode_payload
from repro.examon.plugins.pmu_pub import PmuPubPlugin
from repro.examon.plugins.stats_pub import TABLE_III_METRICS, StatsPubPlugin
from repro.events import Engine
from repro.power.model import HPL_PROFILE


def booted_node(patched_uboot=True):
    node = ComputeNode(hostname="mc-node-1", patched_uboot=patched_uboot)
    node.power_on(0.0)
    node.start_bootloader(6.0)
    node.finish_boot(21.0)
    return node


class TestPmuPub:
    def test_default_rate_2hz(self):
        plugin = PmuPubPlugin(booted_node(), MQTTBroker())
        assert plugin.sample_hz == 2.0
        assert plugin.period_s == 0.5

    def test_sample_covers_all_cores(self):
        plugin = PmuPubPlugin(booted_node(), MQTTBroker())
        metrics = plugin.sample(22.0)
        for core in range(4):
            assert any(f"/core/{core}/" in topic for topic in metrics)

    def test_patched_uboot_publishes_programmable_events(self):
        plugin = PmuPubPlugin(booted_node(patched_uboot=True), MQTTBroker())
        metrics = plugin.sample(22.0)
        assert any(topic.endswith("/fp_ops") for topic in metrics)

    def test_stock_uboot_publishes_fixed_only(self):
        plugin = PmuPubPlugin(booted_node(patched_uboot=False), MQTTBroker())
        metrics = plugin.sample(22.0)
        suffixes = {topic.rsplit("/", 1)[1] for topic in metrics}
        assert suffixes == {"cycles", "instructions"}

    def test_sample_and_publish_encodes_table_ii_payload(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("test", "#", received.append)
        plugin = PmuPubPlugin(booted_node(), broker)
        count = plugin.sample_and_publish(30.0)
        assert count == len(received)
        value, timestamp = decode_payload(received[0].payload)
        assert timestamp == 30.0
        assert value >= 0

    def test_counters_increase_under_load(self):
        node = booted_node()
        plugin = PmuPubPlugin(node, MQTTBroker())
        topic = plugin.schema.pmu_topic("mc-node-1", 0, "instructions")
        before = plugin.sample(22.0)[topic]
        node.begin_workload(HPL_PROFILE, 22.0)
        node.advance(10.0)
        after = plugin.sample(32.0)[topic]
        assert after > before

    def test_run_as_engine_process(self):
        engine = Engine()
        broker = MQTTBroker()
        plugin = PmuPubPlugin(booted_node(), broker)
        engine.spawn(plugin.run(engine))
        engine.run(until=5.0)
        # 2 Hz for 5 s, first sample at t=0 → 11 sampling instants
        # (t = 0.0, 0.5, ..., 5.0); the boot window is monitored too.
        assert plugin.samples_taken == 11
        plugin.stop()


class TestStatsPub:
    def test_default_rate_0_2hz(self):
        plugin = StatsPubPlugin(booted_node(), MQTTBroker())
        assert plugin.sample_hz == 0.2
        assert plugin.period_s == 5.0

    def test_all_table_iii_metrics_published(self):
        plugin = StatsPubPlugin(booted_node(), MQTTBroker())
        metrics = plugin.sample(22.0)
        published = {topic.rsplit("/data/", 1)[1] for topic in metrics}
        expected = {metric for group in TABLE_III_METRICS.values()
                    for metric in group}
        assert published == expected

    def test_temperatures_come_from_hwmon(self):
        node = booted_node()
        node.board.hwmon.set_celsius("cpu_temp", 66.0)
        plugin = StatsPubPlugin(node, MQTTBroker())
        metrics = plugin.sample(22.0)
        topic = plugin.schema.stats_topic("mc-node-1", "temperature.cpu_temp")
        assert metrics[topic] == pytest.approx(66.0)

    def test_cpu_usage_reflects_load(self):
        node = booted_node()
        node.begin_workload(HPL_PROFILE, 22.0)
        node.advance(60.0)
        plugin = StatsPubPlugin(node, MQTTBroker())
        metrics = plugin.sample(82.0)
        usr_topic = plugin.schema.stats_topic("mc-node-1", "total_cpu_usage.usr")
        assert metrics[usr_topic] > 50.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            StatsPubPlugin(booted_node(), MQTTBroker(), sample_hz=0.0)
