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

from itertools import chain
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
        #: Event layout (live events per core) → the instant's Table II
        #: topics in read order.  A layout changes only when the U-Boot
        #: patch enables a core's programmable bank, and formatting the
        #: six-segment topics per publish dominated the sampling profile.
        self._topics: Dict[Tuple[int, ...], Tuple[str, ...]] = {}

    def sample(self, now_s: float) -> Dict[str, float]:
        """Read every available event on every core.

        With the stock U-Boot only ``cycles`` and ``instructions`` appear;
        the patched bootloader exposes the full programmable set — the
        exact difference §IV-B describes.  One group read per core.
        """
        perf = self.node.board.perf
        core_ids = perf.core_ids
        groups = list(map(perf.read_group, core_ids))
        # A core reads either the fixed pair or the full set, so the
        # group sizes name the layout.
        layout = tuple(map(len, groups))
        topics = self._topics.get(layout)
        if topics is None:
            topics = self._topics[layout] = tuple(
                self.schema.pmu_topic(self.hostname, core_id, event)
                for core_id in core_ids
                for event in perf.available_events(core_id))
        return dict(zip(topics, map(float, chain.from_iterable(groups))))
