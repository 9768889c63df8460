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

A sampling daemon publishes a node's whole instant as typed ``(topic,
value)`` pairs (:meth:`MQTTBroker.publish_samples`), through the same
delivery loop as a wire :meth:`MQTTBroker.publish`; a typed message
encodes its Table II ``payload`` only when someone reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from repro.examon.payload import check_value, encode_payload
from repro.examon.topics import topic_matches

__all__ = ["MQTTMessage", "MQTTBroker", "Subscription",
           "BrokerUnavailableError"]


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


@dataclass(slots=True)
class Subscription:
    """One client subscription: a pattern and its delivery callback."""

    client_id: str
    pattern: str
    callback: Callable[[MQTTMessage], None]
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
        self._retained: Dict[str, MQTTMessage] = {}
        #: Per-topic delivery callbacks in subscription order: after a
        #: topic's first publish (and wildcard check) the trie walk is a
        #: dict hit.  Subscribe and unsubscribe clear it wholesale.
        self._match_cache: Dict[str, tuple] = {}
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
                  callback: Callable[[MQTTMessage], None]) -> Subscription:
        """Register a wildcard subscription.

        Retained messages matching the pattern are delivered immediately
        with the retain flag **set**, per MQTT retained-message semantics
        (the subscriber can tell these replays from live traffic).
        """
        topic_matches(pattern, "probe")  # validates '#' placement
        subscription = Subscription(client_id=client_id, pattern=pattern,
                                    callback=callback, seq=self._next_seq)
        self._next_seq += 1
        self._subscriptions.append(subscription)
        self._index_insert(subscription)
        self._match_cache.clear()
        # Replay order is part of the subscribe contract (alphabetical);
        # this is a cold path — it runs once per subscription, not per
        # publish.
        for topic in sorted(self._retained):  # simlint: disable=PERF303
            if topic_matches(pattern, topic):
                callback(self._retained[topic]._replace(retained=True))
                self.messages_delivered += 1
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Drop a subscription (no-op if already gone)."""
        # Linear scan over live subscriptions; a deployment holds a handful
        # and unsubscribe is a cold path.
        if subscription in self._subscriptions:  # simlint: disable=PERF302
            self._subscriptions.remove(subscription)
            self._index_remove(subscription)
            self._match_cache.clear()

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
        return self._deliver(((topic, payload),), timestamp_s, retain, False)

    def publish_samples(self, items: Iterable[Tuple[str, float]],
                        timestamp_s: float) -> int:
        """Publish one instant's typed ``(topic, value)`` samples at once.

        Same deliveries, counters and bytes as :meth:`publish` of each
        ``encode_payload(value, timestamp_s)``; returns total deliveries.
        """
        return self._deliver(items, timestamp_s, True, True)

    def _deliver(self, items: Iterable[Tuple[str, object]], timestamp_s: float,
                 retain: bool, typed: bool) -> int:
        """The one delivery loop behind both publish entry points."""
        if not self.available:
            self.publish_rejects += 1
            raise BrokerUnavailableError(
                f"broker {self.hostname!r} is down; connect refused")
        cache = self._match_cache
        retained = self._retained
        stamp_bytes = len(str(timestamp_s)) + 1  # ";<timestamp>" of a typed one
        published = delivered = hits = nbytes = 0
        make = tuple.__new__  # MQTTMessage(...) without its Python-level frame
        try:
            for topic, data in items:
                if typed and type(data) is not float:  # floats always pass
                    check_value(data)
                callbacks = cache.get(topic)
                if callbacks is None:
                    if "+" in topic or "#" in topic:
                        raise ValueError(
                            f"cannot publish to a wildcard topic: {topic!r}")
                    callbacks = cache[topic] = tuple(
                        s.callback for s in self._match(topic.split("/")))
                else:
                    hits += 1
                if typed:
                    message = make(MQTTMessage,
                                   (topic, None, timestamp_s, False, data))
                    nbytes += len(topic) + len(str(data)) + stamp_bytes
                else:
                    message = make(MQTTMessage,
                                   (topic, data, timestamp_s, False, None))
                    nbytes += len(topic) + len(data)
                published += 1
                if retain:
                    retained[topic] = message
                for callback in callbacks:
                    callback(message)
                delivered += len(callbacks)
        finally:
            self.messages_published += published
            self.messages_delivered += delivered
            self.match_cache_hits += hits
            self.bytes_published += nbytes
        return delivered

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
