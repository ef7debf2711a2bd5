"""Golden tests that keep the kernel hot paths honest.

The optimised calendar (packed ``priority|seq`` heap keys, the Timeout
construction fast path, the inlined ``run`` loop) must preserve the
kernel's ordering contract exactly: FIFO at equal ``(time, priority)``,
URGENT before NORMAL at equal times, and ``run(until=...)`` semantics.
A fixed-seed golden event-order test pins the full interleaving.
"""

import random

import pytest

from repro.sim import NORMAL, URGENT


def test_event_order_at_equal_time_and_priority_is_fifo(make_env):
    env = make_env()
    order = []
    events = []
    for i in range(8):
        ev = env.event()
        ev.callbacks.append(lambda _e, i=i: order.append(i))
        events.append(ev)
    # Trigger in a scrambled but deterministic order: processing order must
    # follow *trigger* (schedule) order, not creation order.
    for i in (3, 0, 5, 1, 7, 2, 6, 4):
        events[i].succeed()
    env.run()
    assert order == [3, 0, 5, 1, 7, 2, 6, 4]


def test_urgent_beats_normal_at_equal_time_regardless_of_sequence(make_env):
    env = make_env()
    order = []
    normal_first = env.event()
    normal_first.callbacks.append(lambda _e: order.append("normal"))
    urgent_later = env.event()
    urgent_later.callbacks.append(lambda _e: order.append("urgent"))
    normal_first.succeed(priority=NORMAL)   # scheduled first
    urgent_later.succeed(priority=URGENT)   # but higher priority
    env.run()
    assert order == ["urgent", "normal"]


def test_timeout_fast_path_preserves_fifo_with_succeed_events(make_env):
    """Timeouts and succeed()-triggered events share one sequence counter."""
    env = make_env()
    order = []
    t1 = env.timeout(0.0)
    t1.callbacks.append(lambda _e: order.append("timeout1"))
    ev = env.event()
    ev.callbacks.append(lambda _e: order.append("event"))
    ev.succeed()
    t2 = env.timeout(0.0)
    t2.callbacks.append(lambda _e: order.append("timeout2"))
    env.run()
    assert order == ["timeout1", "event", "timeout2"]


def test_timeout_fast_path_attributes_match_generic_event(make_env):
    env = make_env()
    t = env.timeout(1.5, value="payload")
    assert t.triggered and not t.processed
    assert t.ok
    assert t.value == "payload"
    assert t.delay == 1.5
    assert t.env is env
    env.run()
    assert t.processed


def test_mixed_priorities_and_times_golden_order(make_env):
    """Fixed-seed golden interleaving across times, priorities and FIFO."""
    rng = random.Random(1234)
    env = make_env()
    order = []
    expected = []
    for i in range(200):
        delay = rng.choice([0.0, 0.5, 0.5, 1.0, 2.5])
        ev = env.timeout(delay)
        ev.callbacks.append(lambda _e, i=i, d=delay: order.append((d, i)))
        expected.append((delay, i))
    env.run()
    # Stable sort by time reproduces time-major, FIFO-minor order.
    assert order == sorted(expected, key=lambda pair: pair[0])
    assert env.now == 2.5


def test_step_matches_inlined_run_loop(make_env):
    """Single-stepping and run() must process identical event orders."""

    def build():
        env = make_env()
        log = []
        for i in range(6):
            t = env.timeout(float(i % 3))
            t.callbacks.append(lambda _e, i=i: log.append(i))
        return env, log

    env_a, log_a = build()
    env_a.run()

    env_b, log_b = build()
    while env_b.peek() != float("inf"):
        env_b.step()
    assert log_a == log_b
    assert env_a.now == env_b.now


def test_run_until_time_boundary_inclusive_and_clock_clamped(make_env):
    env = make_env()
    hits = []
    for d in (1.0, 2.0, 3.0):
        t = env.timeout(d)
        t.callbacks.append(lambda _e, d=d: hits.append(d))
    env.run(until=2.0)
    assert hits == [1.0, 2.0]
    assert env.now == 2.0
    env.run(until=2.0)  # idempotent: nothing due, clock unchanged
    assert env.now == 2.0
    env.run()
    assert hits == [1.0, 2.0, 3.0]


def test_golden_event_order_fixed_seed_process_workload(make_env):
    """End-to-end golden trace: processes + resources on a fixed seed.

    Guards the whole kernel (Timeout fast path, packed keys, inlined run
    loop, Process._resume) against ordering regressions: the trace below
    was recorded from the pre-optimisation kernel and must never change —
    on either backend.

    Pinned to ``fastlane=False``: the fast lane intentionally resumes a
    contended waiter synchronously inside ``release()`` (got-before-rel
    at the same instant); its own golden trace lives in
    ``test_fastlane_golden.py`` alongside the proof that final states
    match the reference.
    """
    from repro.sim import Resource

    env = make_env(fastlane=False)
    trace = []
    server = Resource(env, capacity=1)
    rng = random.Random(7)
    delays = [round(rng.uniform(0.0, 0.03), 4) for _ in range(9)]

    def worker(wid, think):
        yield env.timeout(think)
        trace.append(("req", wid, round(env.now, 4)))
        req = server.request()
        yield req
        trace.append(("got", wid, round(env.now, 4)))
        yield env.timeout(0.01)
        server.release()
        trace.append(("rel", wid, round(env.now, 4)))

    for wid, think in enumerate(delays[:3]):
        env.process(worker(wid, think))
    env.run()

    assert trace == [
        ("req", 1, 0.0045), ("got", 1, 0.0045),
        ("req", 0, 0.0097),
        ("rel", 1, 0.0145), ("got", 0, 0.0145),
        ("req", 2, 0.0195),
        ("rel", 0, 0.0245), ("got", 2, 0.0245),
        ("rel", 2, 0.0345),
    ]


def test_any_of_settled_but_unprocessed_event_short_circuits(make_env):
    """An already-triggered, due-now event wins immediately (in input order),
    exactly like an already-processed one."""
    env = make_env()
    pending = env.event()
    settled = env.event()
    settled.succeed("settled-now")  # triggered, callbacks not yet dispatched
    combined = env.any_of([pending, settled])
    assert combined.triggered  # no waiting for callback dispatch
    assert env.run(until=combined) == "settled-now"


def test_any_of_first_settled_in_input_order_wins(make_env):
    env = make_env()
    a = env.event()
    b = env.event()
    a.succeed("a")
    b.succeed("b")  # both due now; input order decides
    assert env.run(until=env.any_of([b, a])) == "b"
    env2 = make_env()
    a2, b2 = env2.event(), env2.event()
    a2.succeed("a")
    b2.succeed("b")
    assert env2.run(until=env2.any_of([a2, b2])) == "a"


def test_any_of_future_timeout_does_not_short_circuit(make_env):
    """A Timeout is born triggered but is *pending* until its due time."""
    env = make_env()
    slow = env.timeout(5.0, value="slow")
    fast = env.timeout(1.0, value="fast")
    combined = env.any_of([slow, fast])
    assert not combined.triggered
    assert env.run(until=combined) == "fast"
    assert env.now == 1.0


def test_all_of_settled_but_unprocessed_events_contribute_immediately(
        make_env):
    env = make_env()
    a = env.event()
    b = env.event()
    a.succeed("a")
    b.succeed("b")
    combined = env.all_of([a, b])
    assert combined.triggered  # settled at construction, values in order
    assert env.run(until=combined) == ["a", "b"]


def test_all_of_mixes_settled_and_future_events(make_env):
    env = make_env()
    now_ev = env.event()
    now_ev.succeed("now")
    later = env.timeout(2.0, value="later")
    combined = env.all_of([later, now_ev])
    assert not combined.triggered
    assert env.run(until=combined) == ["later", "now"]
    assert env.now == 2.0


def test_zero_delay_timeout_counts_as_due_now_for_any_of(make_env):
    env = make_env()
    t = env.timeout(0.0, value="zero")
    combined = env.any_of([t, env.timeout(1.0)])
    assert combined.triggered
    assert env.run(until=combined) == "zero"


def test_schedule_rejects_nothing_but_keeps_fifo_counter_monotonic(make_env):
    env = make_env()
    before = env._seq
    env.timeout(0.0)
    ev = env.event()
    ev.succeed()
    assert env._seq == before + 2
    env.run()


def test_negative_timeout_still_rejected_by_fast_path(make_env):
    env = make_env()
    with pytest.raises(ValueError, match="negative delay"):
        env.timeout(-0.1)
    assert env.peek() == float("inf")  # nothing leaked onto the calendar
