"""End-to-end tracing through a real simulation.

The acceptance bar for the observability subsystem:

* sampling 1.0 — every trace's span durations sum to the client-observed
  latency (spans are disjoint, nothing double-counted or missed);
* sampling 0.0 — zero traces, but latency histograms still populate, and
  the simulated results are bit-identical to a traced run (tracing must
  not perturb event ordering);
* queue-delay percentiles surface in the balancer's load snapshot.
"""

import pytest

from repro.api import ExperimentConfig, build_simulation, run_experiment


def cfg(**kw):
    base = dict(n_mds=4, scale=0.1, warmup_s=0.5, duration_s=2.0, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


def fingerprint(summary):
    return (summary.total_ops, summary.total_served, summary.total_forwards,
            summary.hit_rate, summary.mean_latency_s)


class TestFullSampling:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(cfg(trace_sample_rate=1.0, trace_buffer=65536))

    def test_every_completed_request_is_traced(self, result):
        assert len(result.traces) == result.summary.total_ops

    def test_span_sum_matches_client_latency(self, result):
        # spans are designed disjoint; any gap/overlap shows up here
        for trace in result.traces:
            assert trace.unaccounted_s == pytest.approx(0.0, abs=1e-9), \
                f"trace {trace.trace_id} ({trace.op}): " \
                f"{trace.by_stage()} vs latency {trace.latency_s}"

    def test_traces_start_with_submit_hop_and_end_with_reply(self, result):
        for trace in result.traces[:200]:
            assert trace.spans[0].name == "net.hop"
            assert trace.spans[-1].name == "net.reply"

    def test_expected_stage_mix_appears(self, result):
        stages = set()
        for trace in result.traces:
            stages.update(span.name for span in trace.spans)
        assert {"net.hop", "node.cpu", "net.reply"} <= stages
        assert "osd.read" in stages          # cold caches miss at first
        assert "journal.append" in stages    # mutations commit

    def test_cache_hits_recorded_as_notes(self, result):
        assert any(t.notes.get("cache.hit") for t in result.traces)

    def test_per_op_percentiles_reported(self, result):
        by_op = result.summary.latency_by_op
        assert "stat" in by_op and "open" in by_op
        for summary in by_op.values():
            assert summary.count > 0
            assert summary.p50_s <= summary.p95_s <= summary.p99_s
        total = sum(s.count for s in by_op.values())
        assert total == result.summary.latency.count


class TestSamplingOff:
    def test_no_traces_but_histograms_populate(self):
        result = run_experiment(cfg(trace_sample_rate=0.0))
        assert result.traces == []
        assert result.summary.latency.count == result.summary.total_ops
        assert result.summary.latency.p99_s > 0

    def test_tracing_does_not_perturb_the_simulation(self):
        # same seed, rates 0.0 and 1.0: identical simulated outcomes
        off = run_experiment(cfg(trace_sample_rate=0.0))
        on = run_experiment(cfg(trace_sample_rate=1.0))
        assert fingerprint(off.summary) == fingerprint(on.summary)

    def test_runs_are_reproducible(self):
        a = run_experiment(cfg())
        b = run_experiment(cfg())
        assert fingerprint(a.summary) == fingerprint(b.summary)


class TestFractionalSampling:
    def test_samples_roughly_the_requested_fraction(self):
        result = run_experiment(cfg(trace_sample_rate=0.2,
                                    trace_buffer=65536))
        total = result.summary.total_ops
        assert 0.1 * total < len(result.traces) < 0.35 * total


class TestQueueDelaySnapshot:
    def test_balancer_snapshot_carries_percentiles(self):
        sim = build_simulation(cfg())
        sim.run_to(2.0)
        snapshot = sim.cluster.balancer.last_snapshot
        assert len(snapshot) == 4
        assert sum(n.queue_delay_samples for n in snapshot) > 0
        for node in snapshot:
            assert node.queue_delay_p50_s <= node.queue_delay_p99_s

    def test_cluster_queue_delay_summaries(self):
        sim = build_simulation(cfg())
        sim.run_to(1.0)
        per_node = sim.cluster.queue_delay_summaries()
        assert len(per_node) == 4
        assert sum(s.count for s in per_node) > 0


class TestJsonlExport:
    def test_run_experiment_exports(self, tmp_path):
        from repro.api import read_jsonl

        path = str(tmp_path / "out.jsonl")
        result = run_experiment(cfg(trace_sample_rate=1.0,
                                    trace_buffer=65536), jsonl_path=path)
        assert result.jsonl_path == path
        back = read_jsonl(path)
        assert len(back) == len(result.traces)
        assert back[0].spans  # spans survive the round trip
