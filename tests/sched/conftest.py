import pytest


@pytest.fixture
def per_message_delivery(monkeypatch):
    """Reintroduce the original async-delivery ordering bug.

    Each ``transact_async`` message gets its own simulator delivery
    event that captures the message in its closure, so a same-tick
    tie-break that runs a later delivery event first reorders one
    sender's replies.  Batched delivery (one flush event draining a FIFO
    queue) is what fixed it; the explorer's self-tests need a live bug
    to find, shrink and replay.
    """
    from repro.binder.driver import BinderDriver

    def enqueue(self, proc, handle, code, data, on_reply):
        message = (proc, handle, code, data, on_reply)
        self._sim.call_soon(lambda: self._deliver_batch([message]),
                            key="binder.deliver")

    monkeypatch.setattr(BinderDriver, "_enqueue", enqueue)
