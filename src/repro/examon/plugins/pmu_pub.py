"""pmu_pub: per-core performance counters at 2 Hz (§IV-B).

The plugin reads, in user mode through the perf_events interface, the
fixed INSTRET and CYCLE counters of every core — plus the programmable
HPM events once the authors' U-Boot patch has enabled them — and publishes
each value on its Table II topic.  Counter values are published as
absolute counts; rate conversion happens at query time
(:meth:`repro.examon.tsdb.TimeSeriesDB.rate`), which is also how the
Fig. 5 instructions/s heatmap is produced.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.node import ComputeNode
from repro.examon.broker import MQTTBroker
from repro.examon.plugins.base import SamplingPlugin
from repro.examon.topics import TopicSchema

__all__ = ["PmuPubPlugin"]


class PmuPubPlugin(SamplingPlugin):
    """The per-core PMU sampler."""

    DEFAULT_HZ = 2.0

    def __init__(self, node: ComputeNode, broker: MQTTBroker,
                 sample_hz: float = DEFAULT_HZ,
                 schema: Optional[TopicSchema] = None,
                 **hardening: object) -> None:
        # ``hardening`` forwards the outage knobs (buffer_limit,
        # reconnect_backoff) without restating the base signature.
        super().__init__(hostname=node.hostname, broker=broker,
                         sample_hz=sample_hz, schema=schema, **hardening)
        self.node = node
        #: (core_id, event) → formatted Table II topic.  The topic of a
        #: metric never changes over a plugin's life, and rebuilding the
        #: six-segment f-string chain per publish dominated the sampling
        #: profile at 2 Hz × cores × events.
        self._topic_cache: Dict[Tuple[int, str], str] = {}

    def sample(self, now_s: float) -> Dict[str, float]:
        """Read every available event on every core.

        With the stock U-Boot only ``cycles`` and ``instructions`` appear;
        the patched bootloader exposes the full programmable set — the
        exact difference §IV-B describes.  One counter snapshot per core.
        """
        perf = self.node.board.perf
        topics = self._topic_cache
        metrics: Dict[str, float] = {}
        for core_id in perf.core_ids:
            counts = perf.read_all(core_id)
            for event in perf.available_events(core_id):
                topic = topics.get((core_id, event))
                if topic is None:
                    topic = self.schema.pmu_topic(self.hostname, core_id,
                                                  event)
                    topics[(core_id, event)] = topic
                metrics[topic] = float(counts[event])
        return metrics
