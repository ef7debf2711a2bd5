"""Chunked-run equivalence: driving a run in steps changes nothing.

Benchmarks and timelines drive one simulation through many successive
``run(until=t)`` / ``Simulation.run_to`` calls.  Every step boundary must
be invisible: the event order, the clock and the final summary equal
those of a single call to the same end time.
"""

import pytest

from repro.api import build_simulation, overload_config, scaling_config


def test_windowed_run_equals_single_run(make_env):
    def trace_of(stepped):
        env = make_env()
        log = []

        def ticker(period, tag):
            while True:
                yield env.timeout(period)
                log.append((env.now, tag))

        env.process(ticker(0.3, "a"))
        env.process(ticker(0.7, "b"))
        if stepped:
            bound = 0.0
            while bound < 5.0:
                bound = min(bound + 0.25, 5.0)
                env.run(until=bound)
        else:
            env.run(until=5.0)
        return log, env.now

    assert trace_of(False) == trace_of(True)


@pytest.mark.parametrize("config", [
    pytest.param(scaling_config("DynamicSubtree", 3, 0.1, seed=7),
                 id="dynamic-subtree"),
    pytest.param(overload_config(1.25, proxy=True, hotspot=True, scale=0.1,
                                 seed=7),
                 id="open-loop-proxy"),
])
def test_run_to_in_steps_equals_one_call(config):
    end = config.run_until_s
    one = build_simulation(config)
    one.run_to(end)

    stepped = build_simulation(config)
    steps = 40
    for k in range(1, steps + 1):
        stepped.run_to(end * k / steps)

    assert stepped.env.now == one.env.now == end
    assert one.summary().total_ops > 0
    assert repr(stepped.summary()) == repr(one.summary())
    assert stepped.summary() == one.summary()
