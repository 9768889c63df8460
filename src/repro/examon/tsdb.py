"""The storage backend: a time-series database fed by the broker.

Plays the role of ExaMon's Cassandra/KairosDB backend: it subscribes to
the cluster-wide data pattern and stores (time, value) points per topic
in two ``array('d')`` columns; wire payloads are decoded strictly, typed
frames appended to the columns in bulk.  Queries support time ranges,
window aggregation (mean/max/min/sum/rate) and cross-series alignment —
enough surface for the Grafana-style dashboards and the batch REST API
of §IV-B.
"""

from __future__ import annotations

import bisect
from array import array
from collections import deque
from itertools import repeat
from operator import itemgetter, le
from typing import Dict, List, Optional, Tuple

from repro.examon.broker import MQTTBroker, MQTTFrame
from repro.examon.payload import decode_payload
from repro.examon.topics import topic_matches

__all__ = ["TimeSeriesDB", "SeriesPoint"]

SeriesPoint = Tuple[float, float]  # (timestamp_s, value)

_last = itemgetter(-1)
#: Run an iterator to exhaustion in C (the itertools ``consume`` recipe).
_consume = deque(maxlen=0).extend

_AGGREGATORS = {
    "mean": lambda vals: sum(vals) / len(vals),
    "max": max,
    "min": min,
    "sum": sum,
    "last": lambda vals: vals[-1],
}


class TimeSeriesDB:
    """Topic-keyed time series with range queries and aggregation."""

    def __init__(self) -> None:
        self._series: Dict[str, Tuple[array, array]] = {}  # (times, values)
        #: topics tuple of a typed frame -> its series' (times, values)
        #: columns, in frame order.
        self._columns: Dict[Tuple[str, ...],
                            Tuple[List[array], List[array]]] = {}
        self.points_stored = 0
        self.decode_errors = 0
        #: Monotone-timestamp inserts served by the append-only fast path.
        self.fast_appends = 0
        #: Out-of-order inserts that paid the ``bisect.insort`` slow path
        #: (backfilled samples after a broker outage, mostly).
        self.sorted_inserts = 0

    # -- ingestion ----------------------------------------------------------
    def attach(self, broker: MQTTBroker, pattern: str,
               client_id: str = "tsdb") -> None:
        """Subscribe this store to a broker pattern."""
        broker.subscribe(client_id, pattern, self.ingest)

    def ingest(self, frame: MQTTFrame) -> None:
        """Store one broker frame (malformed payloads are counted, kept out).

        A typed frame whose series all end at or before its timestamp is
        appended to the columns in bulk; any other frame goes point by
        point through :meth:`insert`, in frame order.
        """
        values = frame.values
        if values is None:
            for message in frame:
                try:
                    value, timestamp_s = decode_payload(message.wire)
                except ValueError:
                    self.decode_errors += 1
                    continue
                self.insert(message.topic, timestamp_s, value)
            return
        topics, timestamp_s = frame.topics, frame.timestamp_s
        columns = self._columns.get(topics)
        if columns is not None:
            times, cols = columns
            # A nan on either side compares False and takes the slow path.
            if all(map(le, map(_last, times), repeat(timestamp_s))):
                _consume(map(array.append, times, repeat(timestamp_s)))
                _consume(map(array.append, cols, values))
                self.fast_appends += len(topics)
                self.points_stored += len(topics)
                return
        for topic, value in zip(topics, values):
            self.insert(topic, timestamp_s, value)
        if columns is None:
            series = [self._series[topic] for topic in topics]
            self._columns[topics] = ([s[0] for s in series],
                                     [s[1] for s in series])

    def insert(self, topic: str, timestamp_s: float, value: float) -> None:
        """Direct insertion (plugins under test use this path).

        Live monitoring traffic is monotone per topic (each sampling
        daemon stamps its own clock), so the overwhelmingly common case
        is a plain column append; only out-of-order arrivals — outage
        backfills replayed with their original timestamps — pay the
        insertion that keeps the series sorted.
        """
        series = self._series.get(topic)
        if series is None:
            series = self._series[topic] = (array("d"), array("d"))
        times, values = series
        if times and timestamp_s < times[-1]:
            # Out of order: go where ``insort`` puts the tuple (t, v).
            at = bisect.bisect_right(range(len(times)), (timestamp_s, value),
                                     key=lambda i: (times[i], values[i]))
            times.insert(at, timestamp_s)
            values.insert(at, value)
            self.sorted_inserts += 1
        else:
            times.append(timestamp_s)
            values.append(value)
            self.fast_appends += 1
        self.points_stored += 1

    # -- queries ------------------------------------------------------------
    def topics(self, pattern: str = "#") -> List[str]:
        """Stored topics matching an MQTT pattern."""
        return sorted(  # simlint: disable=PERF303  (query endpoint, not on the insert path)
            t for t in self._series if topic_matches(pattern, t))

    def query(self, topic: str, start_s: float = float("-inf"),
              end_s: float = float("inf")) -> List[SeriesPoint]:
        """Raw points of one series inside [start, end]."""
        times, values = self._series.get(topic, ((), ()))
        lo = bisect.bisect_left(times, start_s)
        hi = bisect.bisect_right(times, end_s)
        return list(zip(times[lo:hi], values[lo:hi]))

    def latest(self, topic: str) -> Optional[SeriesPoint]:
        """Most recent point of a series, or None."""
        series = self._series.get(topic)
        return (series[0][-1], series[1][-1]) if series else None

    def aggregate(self, topic: str, start_s: float, end_s: float,
                  window_s: float, how: str = "mean") -> List[SeriesPoint]:
        """Window aggregation: one point per ``window_s`` bucket.

        Buckets are ``[start, start + window)`` half-open intervals
        labelled by their start time; empty buckets are omitted (Grafana's
        default null handling).  A point exactly at ``end_s`` is included
        only when a bucket *starting* before ``end_s`` covers it, matching
        the label contract — the last bucket is never labelled at or past
        ``end_s``.

        The scan is a single forward pass over the (sorted) points in
        range: each point is visited once and assigned to the bucket it
        falls in, so a query costs O(points + log(series)) regardless of
        how many buckets the window divides the range into.  (An earlier
        revision rescanned the full point list for every bucket —
        O(points × buckets) — and carried a vestigial bucket counter whose
        ``i <= len(points)`` guard silently truncated aggregations with
        more leading empty buckets than stored points.)
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        if how not in _AGGREGATORS:
            raise KeyError(f"unknown aggregator {how!r}; choose from "
                           f"{sorted(_AGGREGATORS)}")  # simlint: disable=PERF303  (error path)
        aggregate = _AGGREGATORS[how]
        points = self.query(topic, start_s, end_s)
        out: List[SeriesPoint] = []
        idx, n_points = 0, len(points)
        bucket_start = start_s
        while bucket_start < end_s and idx < n_points:
            bucket_end = bucket_start + window_s
            # Points before the first bucket cannot exist (query() already
            # clipped at start_s), so idx only ever moves forward.
            bucket_vals: List[float] = []
            while idx < n_points:
                t, v = points[idx]
                if t >= bucket_end:
                    break
                bucket_vals.append(v)
                idx += 1
            if bucket_vals:
                out.append((bucket_start, aggregate(bucket_vals)))
            bucket_start = bucket_end
        return out

    def rate(self, topic: str, start_s: float = float("-inf"),
             end_s: float = float("inf")) -> List[SeriesPoint]:
        """First-difference rate of a (monotone) counter series, per second.

        This is how the dashboards turn the INSTRET counter into the
        instructions/s heatmap of Fig. 5.  Counter resets (value drops,
        e.g. a node reboot) yield a zero-rate point rather than a negative
        spike.
        """
        points = self.query(topic, start_s, end_s)
        out: List[SeriesPoint] = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt = t1 - t0
            if dt <= 0:
                continue
            out.append((t1, max(v1 - v0, 0.0) / dt))
        return out
