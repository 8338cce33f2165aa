"""Finite-buffer link model: tail-drop with retransmit, and tail stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import SimulationError, SpecError
from repro.netsim.messages import SIZE_CLASS_EDGES, size_class_label
from repro.netsim.simulator import NetworkSimulator
from repro.netsim.stats import tail_summary
from repro.topology import Mesh, Torus


def _random_load(sim, n=200, max_size=4000, nodes=16, seed=1):
    """Inject a fixed seeded batch of cross traffic (pre-scheduled sends)."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        a, b = (int(x) for x in rng.integers(0, nodes, size=2))
        while b == a:
            b = int(rng.integers(0, nodes))
        sim.send(a, b, float(rng.integers(64, max_size)), at=float(i) * 0.4)


class TestConstruction:
    def test_buffer_knobs_validated(self, kernel):
        topo = Mesh((4,))
        with pytest.raises(SimulationError, match="buffer_bytes"):
            NetworkSimulator(topo, buffer_bytes=0.0, kernel=kernel)
        with pytest.raises(SimulationError, match="buffer_bytes"):
            NetworkSimulator(topo, buffer_bytes=float("inf"), kernel=kernel)
        with pytest.raises(SimulationError, match="retry_jitter"):
            NetworkSimulator(topo, retry_jitter=-1.0, kernel=kernel)
        with pytest.raises(SimulationError, match="stall_window"):
            NetworkSimulator(topo, stall_window=0.0, kernel=kernel)
        sim = NetworkSimulator(topo, buffer_bytes=1024.0, kernel=kernel)
        assert sim.buffer_bytes == 1024.0
        assert NetworkSimulator(topo, kernel=kernel).buffer_bytes is None


class TestDropPolicy:
    def test_overflow_drops_and_retransmits_to_delivery(self, kernel):
        sim = NetworkSimulator(Torus((4, 4)), bandwidth=50.0,
                               buffer_bytes=4096.0, max_retries=64, unroutable_policy="drop",
                               kernel=kernel)
        _random_load(sim)
        sim.run()
        stats = sim.stats
        assert stats.buffer_drops > 0
        assert stats.retransmits >= stats.buffer_drops - stats.dropped
        assert stats.count + stats.dropped == 200
        assert sim.in_flight == 0

    def test_retry_exhaustion_follows_unroutable_policy(self, kernel):
        def build(policy):
            sim = NetworkSimulator(
                Torus((4, 4)), bandwidth=10.0, buffer_bytes=512.0,
                max_retries=0,
                unroutable_policy=policy,
                kernel=kernel,
            )
            _random_load(sim, n=80, max_size=500)
            return sim

        sim = build("drop")
        sim.run()
        assert sim.stats.dropped > 0
        assert sim.stats.dropped_bytes > 0
        with pytest.raises(SimulationError, match="buffer overflow"):
            build("raise").run()

    def test_overflow_counters_profiled(self, kernel):
        prof = obs.enable()
        try:
            sim = NetworkSimulator(Torus((4, 4)), bandwidth=50.0,
                                   buffer_bytes=4096.0,
                                   max_retries=64,
                                   unroutable_policy="drop", kernel=kernel)
            _random_load(sim)
            sim.run()
            counters = prof.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters["netsim.buffer_drops"] == sim.stats.buffer_drops
        assert counters["netsim.retransmits"] == sim.stats.retransmits


class TestNicChannels:
    def test_nic_channels_not_buffered(self, kernel):
        """NIC serialization stages queue without buffer admission — only
        network links are capacity-limited."""
        sim = NetworkSimulator(Mesh((4,)), bandwidth=100.0,
                               nic_bandwidth=10.0, buffer_bytes=128.0,
                               kernel=kernel)
        # Many small messages from one node: they all pile into nic_out:0
        # (2,000 B against a 128 B buffer), whose queue is unbounded; the
        # slow NIC then trickles them into a link that never backs up.
        for i in range(20):
            sim.send(0, 1, 100.0)
        sim.run()
        assert sim.link_queue_peaks()[("nic_out", 0)] == 19
        assert sim.stats.count == 20
        assert sim.stats.buffer_drops == 0
        assert sim.stats.dropped == 0


class TestDeterminism:
    def test_jittered_retransmits_bit_identical_per_seed(self, kernel):
        def run(seed):
            sim = NetworkSimulator(Torus((4, 4)), bandwidth=50.0,
                                   buffer_bytes=2048.0,
                                   max_retries=64,
                                   retry_jitter=0.5, seed=seed,
                                   unroutable_policy="drop", kernel=kernel)
            _random_load(sim)
            sim.run()
            return sim.stats.snapshot()

        a, b = run(7), run(7)
        assert a == b
        assert a["retransmits"] > 0  # the stochastic path actually ran
        assert run(8) != a  # and the seed actually matters


class TestTailStats:
    def test_size_class_labels(self):
        assert size_class_label(0) == "<=1KiB"
        assert size_class_label(1) == "<=16KiB"
        assert size_class_label(len(SIZE_CLASS_EDGES)) == ">256KiB"

    def test_percentiles_and_classes(self, kernel):
        sim = NetworkSimulator(Mesh((4,)), kernel=kernel)
        sim.send(0, 1, 512.0)
        sim.send(0, 1, 2048.0)
        sim.send(0, 1, 300_000.0)
        sim.run()
        pct = sim.stats.percentiles()
        assert set(pct) == {"p50", "p99", "p999"}
        assert pct["p50"] <= pct["p99"] <= pct["p999"]
        rows = sim.stats.class_summary()
        assert [r["class"] for r in rows] == ["<=1KiB", "<=16KiB", ">256KiB"]
        assert all(r["count"] == 1 for r in rows)

    def test_tail_summary_shape(self, kernel):
        sim = NetworkSimulator(Torus((4, 4)), bandwidth=50.0,
                               buffer_bytes=4096.0, max_retries=64,
                               unroutable_policy="drop", kernel=kernel)
        _random_load(sim)
        sim.run()
        tail = tail_summary(sim, iteration_times=[1.0, 2.0, 1.5])
        assert tail["delivered"] == sim.stats.count
        assert tail["latency"]["p50"] <= tail["latency"]["p999"]
        assert tail["classes"]
        assert tail["iterations"]["count"] == 3
        assert tail["iterations"]["max"] == 2.0

    def test_empty_simulation_tail_summary(self, kernel):
        sim = NetworkSimulator(Mesh((4,)), kernel=kernel)
        tail = tail_summary(sim)
        assert tail["delivered"] == 0
        assert tail["latency"]["p999"] == 0.0
        assert tail["classes"] == []
        assert "iterations" not in tail


class TestEngineIntegration:
    def test_netsim_request_merges_des_metrics(self):
        from repro.engine import MappingEngine, MappingRequest

        result = MappingEngine().run(MappingRequest(
            graph="mesh2d:4x4;bytes=2048",
            topology="torus:4x4",
            mapper="TopoLB",
            seed=0,
            netsim={"buffer_bytes": 2048.0, "overload_policy": "drop",
                    "iterations": 2, "bandwidth": 200.0},
        ))
        for key in ("des_makespan_us", "des_p50_us", "des_p99_us",
                    "des_p999_us", "des_delivered", "des_dropped",
                    "des_retransmits", "des_buffer_drops"):
            assert key in result.metrics
        assert result.metrics["des_delivered"] > 0

    @pytest.mark.parametrize("policy", ["ecn", "credit"])
    def test_only_drop_overload_policy_accepted(self, policy):
        from repro.engine import MappingRequest

        with pytest.raises(SpecError, match="'overload_policy' must be 'drop'"):
            MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                           netsim={"overload_policy": policy})

    def test_unknown_netsim_key_rejected(self):
        from repro.engine import MappingEngine, MappingRequest

        with pytest.raises(SpecError, match="netsim key"):
            MappingEngine().run(MappingRequest(
                graph="mesh2d:4x4",
                topology="torus:4x4",
                netsim={"bufsz": 1024},
            ))

    @pytest.mark.parametrize("knobs", [
        {"iterations": "abc"},
        {"buffer_bytes": "x"},
        {"seed": 1.5},
        {"iterations": 2.0},
        {"max_retries": True},
        {"bandwidth": None},
        {"overload_policy": 1},
    ])
    def test_non_numeric_netsim_value_rejected(self, knobs):
        from repro.engine import MappingEngine, MappingRequest

        (key,) = knobs
        with pytest.raises(SpecError, match=f"netsim key '{key}'"):
            MappingEngine().run(MappingRequest(
                graph="mesh2d:4x4",
                topology="torus:4x4",
                netsim=knobs,
            ))


class TestCli:
    def test_buffer_flags_reported(self, tmp_path, capsys):
        from repro.cli import main
        from repro.taskgraph import mesh2d_pattern, save_taskgraph

        path = tmp_path / "app.json"
        save_taskgraph(mesh2d_pattern(4, 4, message_bytes=2048), path)
        rc = main(["--taskgraph", str(path), "--topology", "torus:4x4",
                   "--simulate-iters", "2", "--buffer-bytes", "2048"])
        assert rc == 0
        out = capsys.readouterr().out
        for key in ("des_p999_us", "des_dropped", "des_retransmits",
                    "des_buffer_drops"):
            assert key in out

    def test_buffer_bytes_requires_des_mode(self, tmp_path, capsys):
        """The flow estimator has no buffer model, and no flag selects it
        instead of the DES any more."""
        from repro.cli import main
        from repro.taskgraph import mesh2d_pattern, save_taskgraph

        path = tmp_path / "app.json"
        save_taskgraph(mesh2d_pattern(4, 4), path)
        with pytest.raises(SystemExit) as exc:
            main(["--taskgraph", str(path), "--topology", "torus:4x4",
                  "--netsim-mode", "flow", "--buffer-bytes", "1024"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --netsim-mode" in (
            capsys.readouterr().err)

    def test_buffer_bytes_requires_a_replay(self, tmp_path, capsys):
        from repro.cli import main
        from repro.taskgraph import mesh2d_pattern, save_taskgraph

        path = tmp_path / "app.json"
        save_taskgraph(mesh2d_pattern(4, 4), path)
        with pytest.raises(SystemExit) as exc:
            main(["--taskgraph", str(path), "--topology", "torus:4x4",
                  "--buffer-bytes", "4096"])
        assert exc.value.code == 2
        assert "--buffer-bytes needs a network replay" in (
            capsys.readouterr().err)

    def test_credit_policy_is_not_a_choice(self, tmp_path):
        from repro.cli import main
        from repro.taskgraph import mesh2d_pattern, save_taskgraph

        path = tmp_path / "app.json"
        save_taskgraph(mesh2d_pattern(4, 4), path)
        with pytest.raises(SystemExit) as exc:
            main(["--taskgraph", str(path), "--topology", "torus:4x4",
                  "--simulate-iters", "1", "--buffer-bytes", "4096",
                  "--overload-policy", "credit"])
        assert exc.value.code == 2
