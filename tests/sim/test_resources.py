"""Unit tests for Resource (FIFO servers) and Store (blocking buffer)."""

import pytest

from repro.sim import Environment, Interrupt, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_immediately_when_free():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def body():
        yield res.request()
        granted.append(env.now)

    env.process(body())
    env.run()
    assert granted == [0.0]
    assert res.in_use == 1


def test_resource_fifo_queueing():
    # Reference kernel: the fast lane hands a released slot to the waiter
    # synchronously inside release(), which reorders the same-instant log
    # lines below (see tests/sim/test_fastlane_golden.py for that trace).
    env = Environment(fastlane=False)
    res = Resource(env, capacity=1)
    log = []

    def worker(name, hold):
        yield res.request()
        log.append((name, "start", env.now))
        yield env.timeout(hold)
        res.release()
        log.append((name, "end", env.now))

    env.process(worker("first", 2.0))
    env.process(worker("second", 1.0))
    env.process(worker("third", 1.0))
    env.run()
    assert log == [
        ("first", "start", 0.0),
        ("first", "end", 2.0),
        ("second", "start", 2.0),
        ("second", "end", 3.0),
        ("third", "start", 3.0),
        ("third", "end", 4.0),
    ]


def test_resource_multiple_servers_run_concurrently():
    env = Environment()
    res = Resource(env, capacity=2)
    ends = []

    def worker(hold):
        yield res.request()
        yield env.timeout(hold)
        res.release()
        ends.append(env.now)

    for _ in range(4):
        env.process(worker(1.0))
    env.run()
    # Two at a time: pairs finish at t=1 and t=2.
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_use_helper_releases_on_completion():
    env = Environment()
    res = Resource(env, capacity=1)

    def body():
        yield from res.use(3.0)

    proc = env.process(body())
    env.run(until=proc)
    assert env.now == 3.0
    assert res.in_use == 0


@pytest.mark.parametrize("fastlane", [True, False])
def test_resource_use_releases_when_interrupted_mid_hold(fastlane):
    env = Environment(fastlane=fastlane)
    res = Resource(env, capacity=1)
    log = []

    def holder():
        yield from res.use(1.0)

    def victim():
        try:
            yield from res.use(5.0)  # contended: holds from t=1 to t=6
        except Interrupt:
            log.append(("interrupted", env.now, res.in_use))

    def successor():
        yield from res.use(1.0)
        log.append(("successor done", env.now))

    env.process(holder())
    target = env.process(victim())
    env.process(successor())

    def interrupter():
        yield env.timeout(2.0)
        target.interrupt("stop")

    env.process(interrupter())
    env.run()
    # the slot went to the successor at the interrupt, not at t=6
    assert log == [("interrupted", 2.0, 1), ("successor done", 3.0)]
    assert res.in_use == 0


@pytest.mark.parametrize("fastlane", [True, False])
def test_closing_a_use_parked_mid_hold_hands_the_slot_to_nobody(fastlane):
    # What the garbage collector does to a worker abandoned with its
    # simulation: close the generator.  Handing the slot to the next
    # waiter then would run simulation code inside the collection.
    env = Environment(fastlane=fastlane)
    res = Resource(env, capacity=1)

    def worker():
        yield from res.use(1.0)

    env.process(worker())  # holds the slot from t=0 to t=1
    parked = worker()
    env.process(parked)  # contended: holds from t=1 to t=2
    waiter = env.process(worker())
    env.run(until=1.5)
    assert res.in_use == 1 and res.queue_length == 1
    parked.close()
    assert res.in_use == 1 and res.queue_length == 1
    assert waiter.is_alive


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    assert first.triggered
    second = res.request()
    assert not second.triggered
    assert res.cancel(second) is True
    assert res.cancel(second) is False
    res.release()
    env.run()
    assert res.in_use == 0
    assert res.queue_length == 0


def test_resource_cancel_granted_request_is_a_noop():
    """Cancel only withdraws *queued* requests: a granted one was already
    removed from the wait queue, so cancel returns False and the slot stays
    held until release()."""
    env = Environment()
    res = Resource(env, capacity=1)
    granted = res.request()
    assert granted.triggered
    assert res.cancel(granted) is False
    assert res.in_use == 1
    res.release()
    assert res.in_use == 0


def test_resource_queue_length_tracks_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    res.request()
    res.request()
    assert res.queue_length == 2


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    store.put("x")
    got = []

    def body():
        item = yield store.get()
        got.append(item)

    env.process(body())
    env.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(5.0)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("late", 5.0)]


def test_store_fifo_ordering_of_items():
    env = Environment()
    store = Store(env)
    for i in range(3):
        store.put(i)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_fifo_ordering_of_getters():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    env.process(consumer("a"))
    env.process(consumer("b"))

    def producer():
        yield env.timeout(1.0)
        store.put(1)
        store.put(2)

    env.process(producer())
    env.run()
    assert got == [("a", 1), ("b", 2)]


def test_store_interleaved_getters_and_putters():
    """Mixed buffered items and blocked getters: every handover pairs the
    oldest getter with the oldest item, in both kernel modes."""
    for fastlane in (False, True):
        env = Environment(fastlane=fastlane)
        store = Store(env)
        got = []

        def consumer(name, delay, env=env, store=store, got=got):
            yield env.timeout(delay)
            item = yield store.get()
            got.append((name, item, env.now))

        def producer(env=env, store=store):
            store.put("pre")          # buffered before any getter exists
            yield env.timeout(1.0)
            store.put("at1")          # wakes the blocked "b"
            yield env.timeout(1.0)
            store.put("at2a")         # buffered: nobody waiting yet
            store.put("at2b")
            yield env.timeout(1.0)

        env.process(consumer("a", 0.5))   # finds "pre" buffered
        env.process(consumer("b", 0.7))   # blocks until t=1
        env.process(consumer("c", 2.5))   # finds "at2a" buffered
        env.process(consumer("d", 2.6))   # finds "at2b" buffered
        env.process(producer())
        env.run()
        assert got == [("a", "pre", 0.5), ("b", "at1", 1.0),
                       ("c", "at2a", 2.5), ("d", "at2b", 2.6)], fastlane
        assert len(store) == 0


def test_store_get_nowait_drains_without_blocking():
    env = Environment()
    store = Store(env)
    assert store.get_nowait() is None
    store.put("a")
    store.put("b")
    assert store.get_nowait() == "a"
    assert store.get_nowait() == "b"
    assert store.get_nowait() is None


def test_store_len_counts_buffered_items():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put("a")
    store.put("b")
    assert len(store) == 2
