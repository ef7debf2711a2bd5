"""The kernel-backend seam: selection, fallback, provenance, parity.

Gate-token parsing and precedence live in
``tests/experiments/test_env_gates.py``; the ordering/equivalence proofs
live in the backend-parametrized hotpath, fastpath-equivalence and
chunked-run suites.  This module covers the seam itself: which class each gate value
yields, the silent fallback when the extension is missing, the
provenance fields, and the compiled ``Timeout``'s API parity with the
reference event type.
"""

import pytest

from repro.api import ExperimentConfig, build_simulation
from repro.sim import (CompiledEnvironment, Environment, EventAlreadyTriggered,
                       backend_of, compiled_viable, kernel_info,
                       make_environment)
from repro.sim import backend as backend_mod
from repro.sim.backend import (BACKEND_ENV, EVENT_TYPES,
                               compiled_unavailable_reason, resolve_kernel)

needs_compiled = pytest.mark.skipif(
    not compiled_viable(),
    reason="compiled kernel extension not built "
           "(python tools/build_kernel.py)")


class TestSelection:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        env = make_environment()
        assert type(env) is Environment
        assert backend_of(env) == "reference"

    def test_explicit_reference_gate(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "compiled")
        env = make_environment(kernel="reference")  # arg beats env var
        assert type(env) is Environment

    @needs_compiled
    def test_compiled_gate(self):
        env = make_environment(kernel="compiled")
        assert type(env) is CompiledEnvironment
        assert backend_of(env) == "compiled"

    @needs_compiled
    def test_env_var_selects_compiled(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "compiled")
        assert type(make_environment()) is CompiledEnvironment

    @needs_compiled
    def test_initial_time_and_fastlane_forwarded(self):
        env = make_environment(5.0, fastlane=False, kernel="compiled")
        assert env.now == 5.0
        assert env.kernel_stats()["fastlane"] is False


class TestFallback:
    def test_missing_extension_falls_back_silently(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_C", None)
        assert not backend_mod.compiled_viable()
        assert resolve_kernel("compiled") == "reference"
        env = make_environment(kernel="compiled")
        assert type(env) is Environment
        info = kernel_info(env)
        assert info == {"kernel_backend": "reference",
                        "compiled_viable": False}

    def test_direct_construction_raises_loudly(self, monkeypatch):
        # only the *gate* degrades silently; asking for the class when the
        # extension is missing is a programming error
        monkeypatch.setattr(backend_mod, "_C", None)
        with pytest.raises(RuntimeError, match="build it with"):
            CompiledEnvironment()

    def test_unavailable_reason_tracks_viability(self):
        if compiled_viable():
            assert compiled_unavailable_reason() is None
        else:
            assert compiled_unavailable_reason()


class TestProvenance:
    def test_kernel_info_reference(self):
        info = kernel_info(Environment())
        assert info["kernel_backend"] == "reference"
        assert info["compiled_viable"] is compiled_viable()

    @needs_compiled
    def test_kernel_info_compiled(self):
        info = kernel_info(CompiledEnvironment())
        assert info == {"kernel_backend": "compiled",
                        "compiled_viable": True}

    def test_summary_carries_backend_fields(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        cfg = ExperimentConfig(n_mds=2, scale=0.05)
        sim = build_simulation(cfg)
        sim.run_to(cfg.run_until_s)
        kernel = sim.summary().kernel
        assert kernel["kernel_backend"] == "reference"
        assert kernel["compiled_viable"] is compiled_viable()
        # the counters the bench suite keys on are still present
        assert "events_scheduled" in kernel and "pool_reuse_rate" in kernel


@needs_compiled
class TestCompiledTimeoutParity:
    """The C ``Timeout`` behaves exactly like the reference event type."""

    def test_is_an_event_for_the_kernel(self):
        env = CompiledEnvironment()
        t = env.timeout(0.5, value="x")
        assert isinstance(t, EVENT_TYPES)
        assert t.env is env
        assert t.delay == 0.5
        assert t.triggered and not t.processed
        assert t.ok and t.value == "x"

    def test_cannot_retrigger(self):
        env = CompiledEnvironment()
        t = env.timeout(0.0)
        with pytest.raises(EventAlreadyTriggered):
            t.succeed()
        with pytest.raises(EventAlreadyTriggered):
            t.fail(RuntimeError("nope"))

    def test_negative_delay_rejected(self):
        env = CompiledEnvironment()
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-1.0)
        assert env.peek() == float("inf")

    def test_direct_instantiation_blocked(self):
        from repro.sim.backend import CTimeout
        with pytest.raises(TypeError):
            CTimeout()

    def test_yieldable_from_a_process(self):
        env = CompiledEnvironment()
        seen = []

        def proc():
            got = yield env.timeout(0.25, value="tick")
            seen.append((env.now, got))

        env.process(proc())
        env.run()
        assert seen == [(0.25, "tick")]

    def test_timeout_freelist_reuse_counted(self):
        env = CompiledEnvironment(fastlane=True)

        def ticker():
            for _ in range(50):
                yield env.timeout(0.01)

        env.process(ticker())
        env.run()
        stats = env.kernel_stats()
        assert stats["pool_hits"] > 0
        assert stats["pool_reuse_rate"] > 0.5
