"""Instrumentation contract tests: exact counters and the free disabled path.

The counter values asserted here are hand-checked against the algorithms:

* TopoLB places exactly one task per cycle, so ``topolb.cycles == n``; each
  task-graph edge triggers exactly one fest update when its first endpoint
  is placed, so ``topolb.neighbor_updates == num_edges``.
* TopoCentLB likewise runs one cycle per task, and bumps a selection key
  once per edge (the unplaced endpoint's, when its partner is placed), so
  ``topocentlb.key_updates == num_edges``.
* A 2-node path with 20 simultaneous messages on a slow link backs up a
  19-deep FIFO: one saturation crossing, 19 enqueues, 20 transmissions.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import (
    Mesh,
    RefineTopoLB,
    TopoCentLB,
    TopoLB,
    Torus,
    obs,
    mesh2d_pattern,
)
from repro.netsim import NetworkSimulator
from repro.netsim.stats import link_summary


@pytest.fixture
def prof():
    with obs.profiled() as p:
        yield p


class TestTopoLBCounters:
    def test_hand_checked_mesh4x4(self, prof):
        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4))
        TopoLB().map(graph, topo)
        c = prof.counters
        assert c["topolb.cycles"] == 16  # one placement per cycle
        assert c["topolb.neighbor_updates"] == graph.num_edges == 24
        # Repair work is bounded by what went stale.
        assert c["topolb.reserve_hits"] >= 0
        assert c["topolb.reserve_exhaustions"] >= 0
        assert c["topolb.rows_rebuilt"] <= 16 * 16
        total, count = prof.timers["topolb.map"]
        assert count == 1
        assert total > 0

    def test_counters_accumulate_across_runs(self, prof):
        graph, topo = mesh2d_pattern(3, 3), Mesh((3, 3))
        mapper = TopoLB()
        mapper.map(graph, topo)
        mapper.map(graph, topo)
        assert prof.counters["topolb.cycles"] == 18
        assert prof.timers["topolb.map"][1] == 2


class TestTopoCentLBCounters:
    def test_hand_checked_mesh4x4(self, prof):
        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4))
        TopoCentLB().map(graph, topo)
        c = prof.counters
        assert c["topocentlb.cycles"] == 16
        assert c["topocentlb.key_updates"] == graph.num_edges == 24
        # The connected stencil needs exactly one seed.
        assert c["topocentlb.seed_placements"] == 1


class TestRefineCounters:
    def test_sweeps_and_swap_accounting(self, prof):
        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4))
        RefineTopoLB(base=TopoLB()).map(graph, topo)
        c = prof.counters
        assert c["refine.sweeps"] >= 1
        assert c["refine.swaps_accepted"] >= 0
        assert c["refine.swaps_rejected"] >= 0
        # Every evaluated candidate is either accepted or rejected.
        assert (c["refine.swaps_accepted"] + c["refine.swaps_rejected"]) > 0
        assert "refine.refine" in prof.timers


class TestRefineTotals:
    """The ``refine.*`` totals: consistent, and kernel-free.

    Every kernel visits the same permutation and accepts the same swaps
    (bit-identity is enforced by the equivalence suite), so the totals must
    be identical no matter which kernel produced them.
    """

    def _instance(self):
        from repro.mapping import RandomMapper

        graph = mesh2d_pattern(6, 6, message_bytes=256)
        topo = Torus((6, 6))
        # A random start leaves many improving swaps, so several sweeps run
        # and the accepted counts are nontrivial.
        return RandomMapper(seed=3).map(graph, topo)

    def _totals(self, kernel, start):
        with obs.profiled() as prof:
            RefineTopoLB(kernel=kernel, seed=1).refine(start)
        return {k: v for k, v in prof.counters.items()
                if k in ("refine.sweeps", "refine.swaps_accepted",
                         "refine.swaps_rejected", "refine.pairs_evaluated")}

    @pytest.mark.parametrize("kernel", ("reference", "vectorized"))
    def test_totals_are_consistent(self, kernel):
        start = self._instance()
        n = start.graph.num_tasks
        c = self._totals(kernel, start)
        assert c["refine.sweeps"] >= 2
        assert c["refine.swaps_accepted"] > 0
        # Each visit weighs one task against its n - 1 candidate partners.
        visits = c["refine.swaps_accepted"] + c["refine.swaps_rejected"]
        assert c["refine.pairs_evaluated"] == visits * (n - 1)
        # Convergence (not the sweep cap) ended the run after a quiet
        # sweep, so every sweep visited all n tasks.
        if c["refine.sweeps"] < 10:
            assert visits == c["refine.sweeps"] * n

    def test_totals_are_kernel_independent(self):
        start = self._instance()
        reference = self._totals("reference", start)
        assert len(reference) == 4
        assert self._totals("vectorized", start) == reference


class TestDisabledPath:
    def test_disabled_path_allocates_nothing_in_obs(self):
        """With profiling off, ``Mapper.map`` touches no obs-layer code that
        allocates: a traced run shows zero allocations from repro/obs files."""
        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((4, 4))
        mapper = TopoLB()
        mapper.map(graph, topo)  # warm caches outside the trace
        assert obs.active() is None

        tracemalloc.start(10)
        try:
            before = tracemalloc.take_snapshot()
            mapper.map(graph, topo)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        obs_filter = tracemalloc.Filter(True, "*repro/obs/*")
        stats = after.filter_traces([obs_filter]).compare_to(
            before.filter_traces([obs_filter]), "lineno"
        )
        leaked = [s for s in stats if s.size_diff > 0 or s.count_diff > 0]
        assert leaked == []

    def test_disabled_mapper_records_nothing_later(self):
        """A mapper run before ``enable()`` must not write into a profiler
        installed afterwards."""
        graph, topo = mesh2d_pattern(3, 3), Mesh((3, 3))
        TopoLB().map(graph, topo)
        with obs.profiled() as prof:
            pass
        assert prof.counters == {}


class TestNetsimInstrumentation:
    def _saturate(self):
        """20 simultaneous 100-byte messages across one slow link."""
        sim = NetworkSimulator(Mesh((2,)), bandwidth=1.0)
        for _ in range(20):
            sim.send(0, 1, 100.0)
        sim.run()
        return sim

    def test_saturation_and_queue_counters(self, prof):
        sim = self._saturate()
        c = prof.counters
        assert c["netsim.messages"] == 20
        assert c["netsim.transmissions"] == 20
        assert c["netsim.delivered"] == 20
        assert c["netsim.enqueues"] == 19  # first message transmits directly
        assert c["netsim.max_queue_depth"] == 19
        assert c["netsim.saturation_events"] == 1  # one crossing, FIFO never drains
        assert sim.link_queue_peaks()[(0, 1)] == 19

    @pytest.mark.parametrize("kernel", ("reference", "vectorized"))
    @pytest.mark.parametrize("messages, crossings", [(8, 0), (9, 1)],
                             ids=["below", "at"])
    def test_saturation_counted_at_threshold(self, kernel, messages,
                                             crossings):
        """A crossing counts when a FIFO first grows to 8 messages."""
        with obs.profiled() as prof:
            sim = NetworkSimulator(Mesh((2,)), bandwidth=1.0, kernel=kernel)
            for _ in range(messages):
                sim.send(0, 1, 100.0)
            sim.run()
        assert prof.counters["netsim.max_queue_depth"] == messages - 1
        assert prof.counters.get("netsim.saturation_events", 0) == crossings

    def test_link_summary_reports_the_run(self, prof):
        sim = self._saturate()
        summary = link_summary(sim)
        assert summary["links_used"] == 1
        assert summary["total_bytes"] == 2000.0
        assert summary["max_queue_depth"] == 19

    def test_local_messages_counted_separately(self, prof):
        sim = NetworkSimulator(Mesh((2,)))
        sim.send(0, 0, 50.0)
        sim.run()
        assert prof.counters["netsim.messages"] == 1
        assert prof.counters["netsim.local_messages"] == 1
        assert "netsim.transmissions" not in prof.counters

    def test_profiler_snapshot_is_construction_time(self):
        """Enabling profiling after the simulator exists records nothing —
        the documented snapshot-at-construction contract."""
        sim = NetworkSimulator(Mesh((2,)))
        with obs.profiled() as prof:
            sim.send(0, 1, 100.0)
            sim.run()
        assert prof.counters == {}


class TestPipelineTimers:
    def test_two_phase_records_phase_timers(self, prof):
        from repro.mapping.pipeline import TwoPhaseMapper

        graph, topo = mesh2d_pattern(4, 4, message_bytes=256), Torus((2, 2))
        TwoPhaseMapper(mapper=TopoLB()).map(graph, topo)
        for name in ("pipeline.partition", "pipeline.coalesce", "pipeline.map"):
            assert name in prof.timers, name
