"""End-to-end integration tests across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EstimatorOrder,
    IdentityMapper,
    MultilevelPartitioner,
    RandomMapper,
    RefineTopoLB,
    TopoCentLB,
    TopoLB,
    Torus,
    TwoPhaseMapper,
    coalesce,
    expected_random_hops_per_byte,
    hop_bytes,
    leanmd_taskgraph,
    mesh2d_pattern,
    per_link_loads,
    topology_from_spec,
)
from repro.netsim import IterativeApplication, NetworkSimulator
from repro.runtime import ChareArray, LBDatabase, simulate_strategy


class TestFullPipeline:
    def test_measure_balance_simulate(self, tmp_path):
        """The complete Charm++-style workflow: instrument a program, dump
        its load database, replay strategies offline, migrate, and verify
        the execution improves in the network simulator."""
        topo = topology_from_spec("torus:4x4")
        p = topo.num_nodes

        # 1. run an instrumented "program": 64 chares in a 2D-jacobi pattern
        arr = ChareArray(64, p)
        pattern = mesh2d_pattern(8, 8, message_bytes=512)

        def body(c):
            arr.work(c, 1.0)
            for nbr in pattern.neighbors(c):
                arr.send(c, nbr, 512.0)

        arr.run_iteration(body)

        # 2. dump and replay under strategies (Section 5.1 mechanism)
        dump = tmp_path / "step0.json"
        arr.database.dump(dump)
        random_report = simulate_strategy(dump, topo, "RandomLB", seed=0)
        topolb_report = simulate_strategy(dump, topo, "TopoLB", seed=0)
        assert topolb_report["hop_bytes"] < random_report["hop_bytes"]

        # 3. migrate to the TopoLB placement
        from repro.engine.specs import mapper_from_spec

        placement = mapper_from_spec("TopoLB", 0).map(
            LBDatabase.load(dump).to_taskgraph(), topo
        ).assignment
        arr.migrate(placement)
        assert len(np.unique(arr.placement)) == p

        # 4. both placements replayed through the DES: TopoLB finishes faster
        graph = arr.database.to_taskgraph()
        times = {}
        for name, assign in (("random", np.random.default_rng(0).permutation(
                np.repeat(np.arange(p), 4))), ("topolb", placement)):
            from repro.mapping import Mapping

            sim = NetworkSimulator(topo, bandwidth=50.0, alpha=0.1)
            app = IterativeApplication(
                Mapping(graph, topo, assign), sim, iterations=5,
                message_bytes=512.0, compute_time=1.0,
            )
            times[name] = app.run().total_time
        assert times["topolb"] < times["random"]

    def test_two_phase_end_to_end_leanmd(self):
        """LeanMD through partition+map+refine; every stage's invariants."""
        p = 16
        topo = Torus((4, 4))
        graph = leanmd_taskgraph(p, cells_shape=(4, 4, 4))

        tp = TwoPhaseMapper(
            partitioner=MultilevelPartitioner(seed=0),
            mapper=TopoLB(order=EstimatorOrder.SECOND),
            refiner=RefineTopoLB(seed=0),
        )
        mapping = tp.map(graph, topo)

        # expansion consistency
        assert (mapping.assignment == tp.last_group_mapping.assignment[tp.last_groups]).all()
        # group-level hop-bytes equals original-graph hop-bytes (intra-group
        # edges map to distance 0 either way)
        quotient = coalesce(graph, tp.last_groups, p)
        assert hop_bytes(
            quotient, topo, tp.last_group_mapping.assignment
        ) == pytest.approx(mapping.hop_bytes)
        # beats a random group placement
        rand = RandomMapper(seed=1).map(quotient, topo)
        assert tp.last_group_mapping.hop_bytes < rand.hop_bytes

    def test_link_load_reduction_is_the_mechanism(self):
        """The paper's causal chain: lower hop-bytes => lower per-link load
        => lower contention. Check the middle link of the chain."""
        topo = Torus((4, 4, 4))
        g = mesh2d_pattern(8, 8, message_bytes=1000)
        random_loads = per_link_loads(g, topo, RandomMapper(seed=0).map(g, topo).assignment)
        topolb_loads = per_link_loads(g, topo, TopoLB().map(g, topo).assignment)
        assert max(topolb_loads.values()) < max(random_loads.values())
        assert sum(topolb_loads.values()) < sum(random_loads.values())

    def test_hops_per_byte_to_latency_correlation(self):
        """Across mappers, DES latency rank-orders with static hops/byte."""
        topo = Torus((4, 4))
        g = mesh2d_pattern(4, 4, message_bytes=2000)
        results = []
        for mapper in (RandomMapper(seed=2), TopoCentLB(), IdentityMapper()):
            mapping = mapper.map(g, topo)
            sim = NetworkSimulator(topo, bandwidth=50.0, alpha=0.1)
            app = IterativeApplication(mapping, sim, iterations=5,
                                       message_bytes=1000.0, compute_time=1.0)
            results.append((mapping.hops_per_byte, app.run().mean_message_latency))
        results.sort()
        latencies = [lat for _, lat in results]
        assert latencies == sorted(latencies)

    def test_spec_strings_cover_experiments(self):
        for spec, p in (("torus:8x8", 64), ("mesh:8x8x8", 512), ("hypercube:6", 64)):
            assert topology_from_spec(spec).num_nodes == p

    def test_expected_random_formula_vs_simulation(self):
        """Cross-check the analytic E[hops/byte] against the DES-observed
        hops/byte of a random mapping (they must agree exactly: same routes)."""
        topo = Torus((4, 4))
        g = mesh2d_pattern(4, 4)
        mapping = RandomMapper(seed=5).map(g, topo)
        sim = NetworkSimulator(topo, bandwidth=100.0)
        app = IterativeApplication(mapping, sim, iterations=1,
                                   message_bytes=100.0, compute_time=0.0)
        res = app.run()
        assert res.hops_per_byte == pytest.approx(mapping.hops_per_byte)
        # and the analytic expectation is in the right ballpark
        assert mapping.hops_per_byte == pytest.approx(
            expected_random_hops_per_byte(topo), rel=0.5
        )
