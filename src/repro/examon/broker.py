"""The MQTT broker on the master node.

A topic-tree publish/subscribe broker with the subset of MQTT semantics
ExaMon uses: QoS-0 delivery (fire and forget), wildcard subscriptions,
retained messages (so a dashboard attaching late sees the last sample of
each series), and per-client delivery callbacks.  Delivery statistics are
kept because the paper's deployment cares about monitoring overhead.

Matching is served by a topic trie keyed on topic levels, with dedicated
branches for the ``+`` and ``#`` wildcards, so a publish visits
O(topic depth) index nodes instead of scanning every subscription — the
structure mosquitto and every production broker use.  ``match_ops``
counts visited index nodes; the observability layer exposes it as the
deterministic measure of matching cost (simulation code may not read the
host wall clock).

Retained-flag semantics follow MQTT 3.1.1 §3.3.1.3: a message delivered
live to an existing subscriber carries ``retained=False``; a message
replayed from the retained store to a *new* subscriber carries
``retained=True``.  (An earlier revision inverted this — live deliveries
copied the publisher's ``retain`` request and replays reused the stored
flag — which made it impossible for a dashboard to tell a fresh sample
from a stale replay.)

One publish call is one :class:`MQTTFrame`: a sampling daemon's whole
instant as typed values (:meth:`MQTTBroker.publish_samples`), or one
Table II wire message (:meth:`MQTTBroker.publish`).  The frame is
validated whole before any state changes, its counters move in bulk,
and each subscriber gets one frame per publish holding only the
messages its pattern matched.  Messages are built from a frame only
when someone iterates it; a typed message encodes its Table II
``payload`` only when someone reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.examon.payload import check_value, encode_payload
from repro.examon.topics import topic_matches

__all__ = ["MQTTMessage", "MQTTFrame", "MQTTBroker", "Subscription",
           "BrokerUnavailableError"]

#: The one type a typed value needs no :func:`check_value` call for.
_FLOAT_ONLY = frozenset((float,))


class BrokerUnavailableError(ConnectionError):
    """A publish hit a broker that is down (the client's ``ECONNREFUSED``).

    Raised instead of silently dropping the message: QoS-0 loses messages
    in flight, but a *connect* failure is visible to the client, and the
    sampling plugins use it to switch into their buffer-and-reconnect
    path (see :class:`repro.examon.plugins.base.SamplingPlugin`).
    """


class MQTTMessage(NamedTuple):
    """One published message: a typed ``value`` or a ``wire`` payload."""

    topic: str
    wire: Optional[str]  # the Table II text; None for a typed message
    timestamp_s: float
    retained: bool = False
    value: Optional[float] = None  # None for a wire message: decode ``wire``

    @property
    def payload(self) -> str:
        """The Table II text, encoded on read for typed messages."""
        if self.wire is None:
            return encode_payload(self.value, self.timestamp_s)
        return self.wire


class MQTTFrame:
    """The messages of one publish call, all stamped ``timestamp_s``.

    A typed frame carries ``values``, a wire frame the Table II ``wires``;
    the other is None.  Iterating or indexing a frame builds its
    :class:`MQTTMessage` objects on demand.  The fields are read-only and
    hold tuples, because one frame reaches every subscriber and the
    retained store.
    """

    __slots__ = ("_topics", "_values", "_wires", "_timestamp_s", "_retained")

    def __init__(self, topics: Tuple[str, ...],
                 values: Optional[Tuple[float, ...]],
                 wires: Optional[Tuple[str, ...]], timestamp_s: float,
                 retained: bool = False) -> None:
        self._topics = topics
        self._values = values
        self._wires = wires
        self._timestamp_s = timestamp_s
        self._retained = retained

    topics = property(lambda self: self._topics)
    values = property(lambda self: self._values)
    wires = property(lambda self: self._wires)
    timestamp_s = property(lambda self: self._timestamp_s)
    retained = property(lambda self: self._retained)

    def __len__(self) -> int:
        return len(self._topics)

    def __getitem__(self, index: int) -> MQTTMessage:
        if self._wires is None:
            return MQTTMessage(self._topics[index], None, self._timestamp_s,
                               self._retained, self._values[index])
        return MQTTMessage(self._topics[index], self._wires[index],
                           self._timestamp_s, self._retained)

    def __iter__(self) -> Iterator[MQTTMessage]:
        return map(self.__getitem__, range(len(self._topics)))

    def subset(self, indices: Sequence[int],
               retained: bool = False) -> "MQTTFrame":
        """The frame of the messages at ``indices``, flagged ``retained``."""
        def pick(column: Optional[tuple]) -> Optional[tuple]:
            return None if column is None else tuple(map(column.__getitem__,
                                                          indices))
        return MQTTFrame(pick(self._topics), pick(self._values),
                         pick(self._wires), self._timestamp_s, retained)


class _Route(NamedTuple):
    """Where one topics tuple goes: built once, reused on every publish."""

    #: ``(callback, indices)`` in subscription order; ``indices`` is None
    #: when the subscription matched every message of the frame.
    deliveries: Tuple[Tuple[Callable[[MQTTFrame], None],
                            Optional[Tuple[int, ...]]], ...]
    topic_bytes: int  # sum of len(topic), the topic part of bytes_published
    count: int  # messages delivered per publish, over all subscriptions


@dataclass(slots=True)
class Subscription:
    """One client subscription: a pattern and its delivery callback."""

    client_id: str
    pattern: str
    callback: Callable[[MQTTFrame], None]
    #: Broker-assigned insertion sequence; deliveries happen in
    #: subscription order regardless of the index traversal order.
    seq: int = 0


class _TrieNode:
    """One level of the subscription index."""

    __slots__ = ("children", "plus", "here", "hash_here")

    def __init__(self) -> None:
        #: Exact next-level branches.
        self.children: Dict[str, _TrieNode] = {}
        #: The ``+`` single-level wildcard branch.
        self.plus: Optional[_TrieNode] = None
        #: Subscriptions whose pattern ends exactly at this node.
        self.here: List[Subscription] = []
        #: Subscriptions whose pattern ends in ``#`` at this node (they
        #: match this node's topic and everything below it).
        self.hash_here: List[Subscription] = []

    def is_empty(self) -> bool:
        """True when the node indexes nothing and can be pruned."""
        return (not self.children and self.plus is None
                and not self.here and not self.hash_here)


class MQTTBroker:
    """The transport layer of the ExaMon deployment."""

    def __init__(self, hostname: str = "mc-master") -> None:
        self.hostname = hostname
        self._subscriptions: List[Subscription] = []
        self._root = _TrieNode()
        #: topic -> the frame that last carried it; replays build the
        #: message from the frame.
        self._retained: Dict[str, MQTTFrame] = {}
        #: Per-topic matching subscriptions in subscription order: after a
        #: topic's first publish the trie walk is a dict hit.
        self._match_cache: Dict[str, List[Subscription]] = {}
        #: Per-topics-tuple routes, built from the per-topic cache.
        #: Subscribe and unsubscribe clear both caches wholesale.
        self._routes: Dict[Tuple[str, ...], _Route] = {}
        self._next_seq = 1
        self.messages_published = 0
        self.messages_delivered = 0
        self.bytes_published = 0
        #: Subscription-index nodes visited while matching (the
        #: deterministic "match time" the metrics registry exposes).
        #: Cache hits visit zero index nodes and are counted separately.
        self.match_ops = 0
        #: Publishes whose subscription set came from the match cache.
        self.match_cache_hits = 0
        #: Availability (chaos injection): a down broker refuses publishes.
        self.available = True
        #: Slow-broker fault: extra per-publish latency the *publishing*
        #: daemon must absorb (modelled client-side, since the broker
        #: object itself has no clock).  ``0`` means healthy.
        self.publish_delay_s = 0.0
        #: Publishes refused while the broker was down.
        self.publish_rejects = 0

    @property
    def subscription_count(self) -> int:
        """Live subscriptions across all clients."""
        return len(self._subscriptions)

    # -- subscribe ----------------------------------------------------------
    def subscribe(self, client_id: str, pattern: str,
                  callback: Callable[[MQTTFrame], None]) -> Subscription:
        """Register a wildcard subscription.

        ``callback`` gets one :class:`MQTTFrame` per publish call, holding
        the messages the pattern matched, in publish order.  Retained
        messages matching the pattern are delivered immediately as
        one-message frames with the retain flag **set**, per MQTT
        retained-message semantics (the subscriber can tell these replays
        from live traffic).
        """
        topic_matches(pattern, "probe")  # validates '#' placement
        subscription = Subscription(client_id=client_id, pattern=pattern,
                                    callback=callback, seq=self._next_seq)
        self._next_seq += 1
        self._subscriptions.append(subscription)
        self._index_insert(subscription)
        self._clear_caches()
        # Replay order is part of the subscribe contract (alphabetical);
        # this is a cold path — it runs once per subscription, not per
        # publish.
        for topic in sorted(self._retained):  # simlint: disable=PERF303
            if topic_matches(pattern, topic):
                frame = self._retained[topic]
                # The last message of the frame on this topic.
                last = len(frame) - 1 - frame.topics[::-1].index(topic)
                callback(frame.subset((last,), retained=True))
                self.messages_delivered += 1
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop a subscription (no-op if already gone)."""
        # Linear scan over live subscriptions; a deployment holds a handful
        # and unsubscribe is a cold path.
        if subscription in self._subscriptions:  # simlint: disable=PERF302
            self._subscriptions.remove(subscription)
            self._index_remove(subscription)
            self._clear_caches()

    def _clear_caches(self) -> None:
        self._match_cache.clear()
        self._routes.clear()

    # -- subscription index --------------------------------------------------
    def _index_insert(self, subscription: Subscription) -> None:
        node = self._root
        parts = subscription.pattern.split("/")
        for i, part in enumerate(parts):
            if part == "#":
                # topic_matches already rejected interior '#'.
                node.hash_here.append(subscription)
                return
            if part == "+":
                if node.plus is None:
                    node.plus = _TrieNode()
                node = node.plus
            else:
                node = node.children.setdefault(part, _TrieNode())
        node.here.append(subscription)

    def _index_remove(self, subscription: Subscription) -> None:
        """Remove a subscription from the trie, pruning emptied nodes."""
        path: List[tuple[_TrieNode, str]] = []
        node = self._root
        for part in subscription.pattern.split("/"):
            if part == "#":
                node.hash_here.remove(subscription)
                break
            path.append((node, part))
            node = node.plus if part == "+" else node.children[part]
        else:
            node.here.remove(subscription)
        for parent, part in reversed(path):
            child = parent.plus if part == "+" else parent.children[part]
            if not child.is_empty():
                break
            if part == "+":
                parent.plus = None
            else:
                del parent.children[part]

    def _match(self, topic_parts: List[str]) -> List[Subscription]:
        """Subscriptions matching a topic, in subscription order."""
        matched: List[Subscription] = []
        stack: List[tuple[_TrieNode, int]] = [(self._root, 0)]
        n_levels = len(topic_parts)
        while stack:
            node, depth = stack.pop()
            self.match_ops += 1
            # A '#' ending here matches the remaining levels (including
            # zero of them): 'a/#' matches both 'a' and 'a/b/c'.
            matched.extend(node.hash_here)
            if depth == n_levels:
                matched.extend(node.here)
                continue
            part = topic_parts[depth]
            child = node.children.get(part)
            if child is not None:
                stack.append((child, depth + 1))
            if node.plus is not None:
                stack.append((node.plus, depth + 1))
        # Trie traversal order is structural, not subscription order; the
        # delivery contract is subscription order, so sort by seq.  Runs
        # once per topic — publish hits the match cache afterwards.
        matched.sort(key=lambda s: s.seq)  # simlint: disable=PERF303
        return matched

    # -- publish -----------------------------------------------------------
    def publish(self, topic: str, payload: str, timestamp_s: float,
                retain: bool = True) -> int:
        """Publish one wire-format message; returns the number of deliveries.

        ExaMon retains the last sample per topic by default so that
        dashboards attaching mid-run render immediately.  Live deliveries
        carry ``retained=False`` (MQTT 3.1.1: the retain flag marks store
        replays, not the publisher's retain request).
        """
        return self._deliver(MQTTFrame((topic,), None, (payload,),
                                       timestamp_s), retain)

    def publish_samples(self, topics: Iterable[str], values: Iterable[float],
                        timestamp_s: float) -> int:
        """Publish one instant's typed samples as one retained frame.

        Same deliveries, counters and bytes as :meth:`publish` of each
        ``encode_payload(value, timestamp_s)``, except that a bad value or
        topic anywhere rejects the whole frame before any state changes.
        Returns the total deliveries.
        """
        frame = MQTTFrame(tuple(topics), tuple(values), None, timestamp_s)
        if len(frame.topics) != len(frame.values):
            raise ValueError(f"{len(frame.topics)} topics but "
                             f"{len(frame.values)} values")
        return self._deliver(frame, True)

    def _deliver(self, frame: MQTTFrame, retain: bool) -> int:
        """The one delivery path: check the whole frame, count, deliver."""
        if not self.available:
            self.publish_rejects += 1
            raise BrokerUnavailableError(
                f"broker {self.hostname!r} is down; connect refused")
        topics, values = frame.topics, frame.values
        if values is None:
            payload_bytes = sum(map(len, frame.wires))
        else:
            if not _FLOAT_ONLY.issuperset(map(type, values)):
                for value in values:
                    check_value(value)
            # "<value>;<timestamp>" of each typed sample.
            payload_bytes = (sum(map(len, map(str, values)))
                             + len(values) * (len(str(frame.timestamp_s)) + 1))
        route = self._routes.get(topics)
        if route is None:
            route = self._routes[topics] = self._route(topics)
        else:
            self.match_cache_hits += len(topics)
        self.messages_published += len(topics)
        self.messages_delivered += route.count
        self.bytes_published += route.topic_bytes + payload_bytes
        if retain:
            retained = self._retained
            for topic in topics:  # faster than dict.update(dict.fromkeys(...))
                retained[topic] = frame
        for callback, indices in route.deliveries:
            callback(frame if indices is None else frame.subset(indices))
        return route.count

    def _route(self, topics: Tuple[str, ...]) -> _Route:
        """Match each topic (through the per-topic cache) and merge."""
        for topic in topics:
            if "+" in topic or "#" in topic:
                raise ValueError(
                    f"cannot publish to a wildcard topic: {topic!r}")
        cache = self._match_cache
        matched: Dict[int, Tuple[Subscription, List[int]]] = {}
        for index, topic in enumerate(topics):
            subscriptions = cache.get(topic)
            if subscriptions is None:
                subscriptions = cache[topic] = self._match(topic.split("/"))
            else:
                self.match_cache_hits += 1
            for subscription in subscriptions:
                matched.setdefault(subscription.seq,
                                   (subscription, []))[1].append(index)
        deliveries = tuple(
            (subscription.callback,
             None if len(indices) == len(topics) else tuple(indices))
            # Seq order is the delivery contract; this runs once per topics
            # tuple, and publishes reuse the route.
            for _seq, (subscription, indices)
            in sorted(matched.items()))  # simlint: disable=PERF303
        return _Route(deliveries, sum(map(len, topics)),
                      sum(len(indices) for _sub, indices in matched.values()))

    def retained_topics(self) -> List[str]:
        """Topics with a retained last sample, sorted."""
        return sorted(self._retained)  # simlint: disable=PERF303  (introspection endpoint, not on the publish path)

    # -- fault injection -----------------------------------------------------
    def go_offline(self) -> None:
        """Take the broker down: publishes raise until :meth:`restore`.

        Subscriptions and the retained store survive the outage (mosquitto
        restarted with persistence behaves the same way); only the live
        publish path is refused.
        """
        self.available = False

    def restore(self) -> None:
        """Bring the broker back up and clear any slow-mode penalty."""
        self.available = True
        self.publish_delay_s = 0.0

    def set_slow(self, delay_s: float) -> None:
        """Degrade the broker: every publish costs ``delay_s`` extra."""
        if delay_s < 0:
            raise ValueError("slow-broker delay cannot be negative")
        self.publish_delay_s = float(delay_s)
