"""Waiter-less process completion under the fast lane.

A process that finishes with nobody waiting on it settles in place
instead of pushing a completion entry that would dispatch nothing.  It
must still look like any other processed event to late waiters, and a
failing process must still reach the calendar so that an unhandled crash
raises from ``run()``.
"""

import pytest


def _body(env, value):
    yield env.timeout(1.0)
    return value


def _events(make_env, *, fastlane, waited):
    env = make_env(fastlane=fastlane)
    proc = env.process(_body(env, 7))
    seen = []
    if waited:
        proc.callbacks.append(lambda ev: seen.append(ev.value))
    env.run()
    assert proc.value == 7
    assert seen == ([7] if waited else [])
    return env.kernel_stats()["events_scheduled"]


def test_waiterless_finish_schedules_one_entry_fewer(make_env):
    waited = _events(make_env, fastlane=True, waited=True)
    assert _events(make_env, fastlane=True, waited=False) == waited - 1
    # the reference path keeps the completion entry either way
    assert _events(make_env, fastlane=False, waited=False) == waited


def test_settled_process_is_visible_to_late_waiters(make_env):
    env = make_env(fastlane=True)
    proc = env.process(_body(env, "done"))
    env.run()
    assert proc.triggered and proc.processed and proc.ok
    assert not proc.is_alive

    assert env.run(until=proc) == "done"

    got = []

    def late():
        got.append((yield proc))

    env.process(late())
    both = env.all_of([proc])
    assert both.triggered  # settled at construction: nothing to wait for
    env.run()
    assert got == ["done"]
    assert both.value == ["done"]


def test_waiterless_failure_still_raises_from_run(make_env):
    env = make_env(fastlane=True)

    def crash():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(crash())
    with pytest.raises(ValueError, match="boom"):
        env.run()
