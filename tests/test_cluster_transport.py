"""Unit tests for the cluster's wire building blocks.

Framing (length-prefix encode + incremental decode across arbitrary
TCP chunk boundaries), envelope serialization (JSON and pickle),
addressing, and the three delivery-guarantee pieces: retransmission
outbox, receive-side dedup table, and the credit gate.  All pure
in-memory units — no sockets, no threads except where the gate's
blocking semantics are the thing under test.
"""

import random
import sys
import threading
import time

import pytest

from repro.cluster.delivery import (
    CreditGate,
    DedupTable,
    Outbox,
    RetryPolicy,
)
from repro.cluster.message import (
    Envelope,
    JsonSerializer,
    PickleSerializer,
    make_path,
    serializer,
    split_path,
)
from repro.cluster.transport import MAX_FRAME, FrameDecoder, encode_frame


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def test_frame_roundtrip_single():
    dec = FrameDecoder()
    assert dec.push(encode_frame(b"hello")) == [b"hello"]


def test_frame_roundtrip_byte_at_a_time():
    wire = encode_frame(b"abc") + encode_frame(b"") + encode_frame(b"xyz")
    dec = FrameDecoder()
    frames = []
    for i in range(len(wire)):
        frames.extend(dec.push(wire[i:i + 1]))
    assert frames == [b"abc", b"", b"xyz"]


def test_frame_multiple_in_one_chunk():
    wire = b"".join(encode_frame(str(i).encode()) for i in range(10))
    assert FrameDecoder().push(wire) == \
        [str(i).encode() for i in range(10)]


def test_frame_oversize_rejected():
    import struct
    dec = FrameDecoder()
    with pytest.raises(ValueError):
        dec.push(struct.pack(">I", MAX_FRAME + 1))


# ---------------------------------------------------------------------------
# envelopes + serializers
# ---------------------------------------------------------------------------

def test_paths():
    assert make_path("n", "a") == "n/a"
    assert split_path("n/a") == ("n", "a")
    assert split_path("n/a/b") == ("n", "a/b")
    for bad in ("plain", "/x", "x/", ""):
        with pytest.raises(ValueError):
            split_path(bad)


@pytest.mark.parametrize("codec", [JsonSerializer(), PickleSerializer()])
def test_envelope_roundtrip(codec):
    env = Envelope("tell", 7, "a", "b/actor",
                   payload=["ping", 3], sender="a/pinger")
    out = codec.decode(codec.encode(env))
    assert (out.kind, out.seq, out.origin, out.target,
            out.payload, out.sender) == \
        ("tell", 7, "a", "b/actor", ["ping", 3], "a/pinger")


def test_pickle_preserves_tuples_json_does_not():
    env = Envelope("tell", 1, "a", "b/x", payload=("t", 1))
    assert PickleSerializer().decode(
        PickleSerializer().encode(env)).payload == ("t", 1)
    assert JsonSerializer().decode(
        JsonSerializer().encode(env)).payload == ["t", 1]


def test_serializer_factory():
    assert isinstance(serializer("json"), JsonSerializer)
    assert isinstance(serializer("pickle"), PickleSerializer)
    with pytest.raises(KeyError):
        serializer("msgpack")


# ---------------------------------------------------------------------------
# retry policy + outbox
# ---------------------------------------------------------------------------

def test_retry_policy_backoff_schedule():
    p = RetryPolicy(base_timeout=0.2, factor=2.0, max_attempts=5)
    assert [p.deadline_after(n) for n in (1, 2, 3)] == [0.2, 0.4, 0.8]
    for bad in (dict(base_timeout=0), dict(factor=0.5),
                dict(max_attempts=0)):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)


def _env(seq):
    return Envelope("tell", seq, "a", "b/x", payload=seq)


def test_outbox_retries_with_backoff_then_expires():
    box = Outbox(RetryPolicy(base_timeout=1.0, factor=2.0, max_attempts=3))
    box.register(1, _env(1), now=0.0)
    assert box.due(0.5) == []              # not yet
    assert [e.seq for e in box.due(1.0)] == [1]     # attempt 2, due +2
    assert box.due(2.0) == []
    assert [e.seq for e in box.due(3.0)] == [1]     # attempt 3 (last)
    assert box.due(100.0) == []            # attempts exhausted: no resend
    assert box.expired(3.5) == []          # last deadline not yet passed
    assert [e.seq for e in box.expired(7.1)] == [1]
    assert len(box) == 0
    assert box.retries == 2


def test_outbox_cumulative_ack_retires_prefix():
    box = Outbox(RetryPolicy(base_timeout=1.0))
    for s in (1, 2, 3, 4):
        box.register(s, _env(s), now=0.0)
    assert box.on_ack(3) == 3
    assert len(box) == 1
    assert [e.seq for e in box.due(1.0)] == [4]
    assert box.on_ack(4) == 1
    assert box.due(100.0) == []            # empty fast path


def test_outbox_ack_retires_only_the_prefix_among_due_expired_drain():
    """Seeded random mix of register/on_ack/due/expired/drain against a
    plain reference model.  Every call returns what the model says;
    ``len()`` and ``_exhausted`` match it after every step; ``_min_due``
    is never above the true earliest deadline (so ``due`` cannot miss
    one), equals it after every ``due`` that scans, and is inf when
    empty."""
    policy = RetryPolicy(base_timeout=1.0, factor=2.0, max_attempts=3)
    box = Outbox(policy)
    model: dict[int, list] = {}          # seq -> [attempts, next_due]
    rng = random.Random(7)
    seq = 0
    now = 0.0
    emptied = 0                          # expiries that emptied the box
    for step in range(3000):
        op = rng.random()
        now += rng.choice((0.0, 0.25, 0.5, 1.0))
        if (step // 40) % 2:             # quiet stretch: no new sends
            op = 0.3 + 0.7 * op
        if op < 0.3:
            burst = [seq + k + 1 for k in range(rng.randint(1, 3))]
            seq = burst[-1]
            for s in burst:
                box.register(s, _env(s), now)
                model[s] = [1, now + policy.deadline_after(1)]
        elif op < 0.45:
            cum = rng.randint(seq - 8, seq)
            retired = [s for s in model if s <= cum]
            assert box.on_ack(cum) == len(retired)
            for s in retired:
                del model[s]
        elif op < 0.75:
            want = []
            for s in sorted(model):
                pend = model[s]
                if pend[1] <= now and pend[0] < policy.max_attempts:
                    pend[0] += 1
                    pend[1] = now + policy.deadline_after(pend[0])
                    want.append(s)
            scans = now >= box._min_due      # else the fast path returns
            assert [e.seq for e in box.due(now)] == want
            if scans:
                assert box._min_due == min(
                    (p[1] for p in model.values()), default=float("inf"))
        elif op < 0.97:
            want = [s for s in sorted(model)
                    if model[s][0] >= policy.max_attempts
                    and model[s][1] <= now]
            assert [e.seq for e in box.expired(now)] == want
            for s in want:
                del model[s]
            emptied += bool(want) and not model
        else:
            assert [e.seq for e in box.drain()] == sorted(model)
            model.clear()
        assert len(box) == len(model)
        assert list(box._pending) == sorted(model)
        assert box._exhausted == sum(
            1 for p in model.values() if p[0] >= policy.max_attempts)
        if model:
            assert box._min_due <= min(p[1] for p in model.values())
        else:
            assert box._min_due == float("inf")
    assert emptied and box.retries


def test_outbox_drain_returns_everything_in_order():
    box = Outbox()
    for s in (3, 1, 2):
        box.register(s, _env(s), now=0.0)
    assert [e.seq for e in box.drain()] == [1, 2, 3]
    assert len(box) == 0


# ---------------------------------------------------------------------------
# dedup table
# ---------------------------------------------------------------------------

def test_dedup_fresh_exactly_once_in_order():
    t = DedupTable()
    assert [t.fresh(s) for s in (1, 2, 3)] == [True, True, True]
    assert [t.fresh(s) for s in (1, 2, 3)] == [False, False, False]
    assert t.cumulative == 3


def test_dedup_out_of_order_compacts_watermark():
    t = DedupTable()
    assert t.fresh(3) and t.fresh(1)
    assert t.cumulative == 1               # hole at 2
    assert not t.fresh(3)
    assert t.fresh(2)
    assert t.cumulative == 3               # hole plugged, prefix compacts
    assert not any(t.fresh(s) for s in (1, 2, 3))


# ---------------------------------------------------------------------------
# credit gate
# ---------------------------------------------------------------------------

def test_gate_counts_and_replenishes():
    g = CreditGate(2)
    assert g.acquire(timeout=0) and g.acquire(timeout=0)
    assert g.available == 0
    assert g.acquire(timeout=0.01) is False
    g.release(5)
    assert g.available == 2                # capped at the window
    assert g.acquire(timeout=0)


def test_gate_parks_then_resumes_on_release():
    g = CreditGate(1)
    assert g.acquire()
    woke = threading.Event()

    def blocked():
        if g.acquire(timeout=5):
            woke.set()

    t = threading.Thread(target=blocked)
    t.start()
    time.sleep(0.05)
    assert g.parked == 1
    g.release()
    t.join(timeout=5)
    assert woke.is_set()
    assert g.total_parks == 1


def test_gate_brk_refuses_parked_and_future_senders():
    g = CreditGate(1)
    assert g.acquire()
    results = []
    t = threading.Thread(
        target=lambda: results.append(g.acquire(timeout=5)))
    t.start()
    time.sleep(0.05)
    g.brk("node down")
    t.join(timeout=5)
    assert results == [False]
    assert g.broken == "node down"
    assert g.acquire(timeout=0) is False   # broken gates stay broken


def test_gate_conserves_credits_under_contention():
    """Six senders share a 2-credit window with a shortened GIL switch
    interval: never more than two hold a credit at once, no parked
    sender misses its wakeup (it would sit out the 5 s timeout and
    fail), and every credit is back at the end."""
    g = CreditGate(2)
    guard = threading.Lock()
    holders = [0, 0]                     # current, peak
    failures = []

    def sender():
        for _ in range(300):
            if not g.acquire(timeout=5):
                failures.append("timed out")
                return
            with guard:
                holders[0] += 1
                holders[1] = max(holders)
            time.sleep(0)                # let others contend meanwhile
            with guard:
                holders[0] -= 1
            g.release()

    threads = [threading.Thread(target=sender) for _ in range(6)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert holders[0] == 0 and holders[1] <= 2
    assert g.available == 2 and g.parked == 0
    assert g.total_parks > 0             # the slow path really ran


def test_gate_rejects_invalid_window():
    with pytest.raises(ValueError):
        CreditGate(0)
