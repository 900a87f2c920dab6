"""Durable subscriptions.

A subscription names a subscriber, a topic pattern, and a callback.  It is
*durable*: messages published while the subscriber's callback is failing (or
while dispatch is paused) wait in the subscription's queue.  The data
controller creates subscriptions only after verifying the privacy policy
authorizes the consumer for the event class — that gating lives in
:mod:`repro.core.controller`; the bus only transports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.bus.envelope import Envelope
from repro.bus.queue import MessageQueue
from repro.bus.topics import validate_pattern
from repro.exceptions import SubscriptionError

if TYPE_CHECKING:
    from repro.bus.delivery import DeliveryPolicy

#: Signature of subscriber callbacks. Raising marks the delivery failed.
Handler = Callable[[Envelope], None]


@dataclass
class Subscription:
    """A durable subscription and its queue.

    ``policy`` is an optional per-subscription retry budget: when set it
    overrides the delivery engine's default
    :class:`~repro.bus.delivery.DeliveryPolicy` for this subscription only
    (a flaky analytics sink can fail fast while clinical consumers keep
    the full budget).
    """

    subscription_id: str
    subscriber: str
    pattern: str
    handler: Handler
    active: bool = True
    policy: DeliveryPolicy | None = None
    queue: MessageQueue = field(init=False)

    def __post_init__(self) -> None:
        if not self.subscription_id:
            raise SubscriptionError("subscription needs an id")
        if not self.subscriber:
            raise SubscriptionError("subscription needs a subscriber")
        validate_pattern(self.pattern)
        self.queue = MessageQueue(f"sub:{self.subscription_id}")

    def pause(self) -> None:
        """Stop dispatching; messages keep queueing."""
        self.active = False

    def resume(self) -> None:
        """Resume dispatching."""
        self.active = True


class SubscriptionRegistry:
    """All subscriptions known to the broker, indexed for fan-out.

    A segment trie over the subscription patterns plus a per-topic
    fan-out memo make :meth:`matching_topic` independent of the total
    subscription count.  :meth:`matching_topic_linear` is the reference
    scan the property tests and the fan-out benchmark compare against;
    no runtime path calls it.  Both return subscriptions in registration
    order.
    """

    def __init__(self, perf=None) -> None:
        from repro.perf.topic_index import TopicTrie

        self._subscriptions: dict[str, Subscription] = {}
        self._perf = perf
        self._order = 0
        self._trie = TopicTrie()
        self._fanout_memo: dict[str, list[Subscription]] = {}

    def __len__(self) -> int:
        return len(self._subscriptions)

    def add(self, subscription: Subscription) -> None:
        """Register a subscription; duplicate ids are rejected."""
        if subscription.subscription_id in self._subscriptions:
            raise SubscriptionError(
                f"duplicate subscription id {subscription.subscription_id!r}"
            )
        self._subscriptions[subscription.subscription_id] = subscription
        self._trie.add(subscription.pattern, self._order, subscription)
        self._fanout_memo.clear()
        self._order += 1

    def remove(self, subscription_id: str) -> Subscription:
        """Unregister and return a subscription."""
        try:
            subscription = self._subscriptions.pop(subscription_id)
        except KeyError as exc:
            raise SubscriptionError(f"no subscription {subscription_id!r}") from exc
        self._trie.remove(subscription.pattern, subscription)
        self._fanout_memo.clear()
        return subscription

    def get(self, subscription_id: str) -> Subscription:
        """Fetch a subscription by id."""
        try:
            return self._subscriptions[subscription_id]
        except KeyError as exc:
            raise SubscriptionError(f"no subscription {subscription_id!r}") from exc

    def for_subscriber(self, subscriber: str) -> list[Subscription]:
        """Every subscription held by ``subscriber``."""
        return [sub for sub in self._subscriptions.values() if sub.subscriber == subscriber]

    def matching_topic(self, topic: str) -> list[Subscription]:
        """Every subscription whose pattern matches ``topic``.

        Registration order; the fan-out list is memoized per topic until
        the next subscribe/withdraw.
        """
        memoized = self._fanout_memo.get(topic)
        if memoized is not None:
            if self._perf is not None:
                self._perf.record_hit("fanout")
            return list(memoized)
        if self._perf is not None:
            self._perf.record_miss("fanout")
        matching = self._trie.match(topic)
        self._fanout_memo[topic] = matching
        return list(matching)

    def matching_topic_linear(self, topic: str) -> list[Subscription]:
        """The reference linear scan over every subscription."""
        from repro.bus.topics import topic_matches

        return [
            sub
            for sub in self._subscriptions.values()
            if topic_matches(sub.pattern, topic)
        ]

    def all_subscriptions(self) -> list[Subscription]:
        """Every registered subscription."""
        return list(self._subscriptions.values())
