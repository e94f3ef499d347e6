"""Tests for the micro-batching request queue."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.serving import (
    MicroBatcher,
    PendingResult,
    QosPolicy,
    QueuedRequest,
    WeightedClassBatcher,
)


def _request(tag: int) -> QueuedRequest:
    return QueuedRequest(
        frame=np.full((2, 2), float(tag)),
        pending=PendingResult(),
        enqueued_at=time.monotonic(),
        deadline_at=None,
    )


class TestAdmission:
    def test_offer_within_capacity(self):
        batcher = MicroBatcher(capacity=2)
        assert batcher.offer(_request(0))
        assert batcher.offer(_request(1))
        assert len(batcher) == 2

    def test_full_queue_rejects(self):
        batcher = MicroBatcher(capacity=2)
        batcher.offer(_request(0))
        batcher.offer(_request(1))
        assert not batcher.offer(_request(2))
        assert len(batcher) == 2

    def test_closed_queue_rejects(self):
        batcher = MicroBatcher()
        batcher.close()
        assert not batcher.offer(_request(0))
        assert batcher.closed


class TestBatchAssembly:
    def test_coalesces_queued_requests(self):
        batcher = MicroBatcher(max_batch_size=8)
        for i in range(5):
            batcher.offer(_request(i))
        batch = batcher.next_batch()
        assert len(batch) == 5
        assert len(batcher) == 0

    def test_full_batch_closes_at_cap(self):
        batcher = MicroBatcher(max_batch_size=3)
        for i in range(7):
            batcher.offer(_request(i))
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 3
        assert len(batcher.next_batch()) == 1

    def test_fifo_order(self):
        batcher = MicroBatcher(max_batch_size=4)
        for i in range(4):
            batcher.offer(_request(i))
        batch = batcher.next_batch()
        assert [int(r.frame[0, 0]) for r in batch] == [0, 1, 2, 3]


#: Both batcher classes, built with their defaults (the class batcher
#: serves the stock policy, which routes ``_request``'s class).
BATCHERS = {
    "fifo": lambda: MicroBatcher(),
    "weighted": lambda: WeightedClassBatcher(QosPolicy.default()),
}


@pytest.mark.parametrize("make", list(BATCHERS.values()), ids=list(BATCHERS))
class TestNoFillWindow:
    def test_blocked_consumer_takes_first_offer_alone(self, make):
        batcher = make()
        batches = []

        def _consume():
            batches.append(batcher.next_batch())
            batches.append(batcher.next_batch())

        consumer = threading.Thread(target=_consume, daemon=True)
        consumer.start()
        time.sleep(0.05)  # consumer is blocked on the empty queue
        batcher.offer(_request(0))
        time.sleep(0.05)
        batcher.offer(_request(1))
        consumer.join(timeout=10.0)
        assert [[int(r.frame[0, 0]) for r in b] for b in batches] == [[0], [1]]
        batcher.close()

    def test_burst_is_queued_whole(self, make):
        batcher = make()
        batches = []
        consumer = threading.Thread(
            target=lambda: batches.append(batcher.next_batch()), daemon=True
        )
        consumer.start()
        time.sleep(0.05)  # consumer is blocked on the empty queue
        with batcher.burst():
            for i in range(3):
                batcher.offer(_request(i))
                time.sleep(0.02)  # time enough for a free consumer to take it
            assert batches == []
        consumer.join(timeout=10.0)
        assert [[int(r.frame[0, 0]) for r in b] for b in batches] == [[0, 1, 2]]
        batcher.close()


class TestClose:
    def test_close_returns_leftovers(self):
        batcher = MicroBatcher()
        batcher.offer(_request(0))
        batcher.offer(_request(1))
        leftovers = batcher.close()
        assert len(leftovers) == 2
        assert len(batcher) == 0

    def test_next_batch_none_after_close(self):
        batcher = MicroBatcher()
        batcher.close()
        assert batcher.next_batch() is None

    def test_close_wakes_blocked_consumer(self):
        batcher = MicroBatcher()
        got = {}

        def _consume():
            got["batch"] = batcher.next_batch()

        consumer = threading.Thread(target=_consume, daemon=True)
        consumer.start()
        time.sleep(0.05)
        batcher.close()
        consumer.join(timeout=10.0)
        assert got["batch"] is None


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"capacity": 0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MicroBatcher(**kwargs)
