"""Tests of the benchmark itself: statistics, inputs, spans and checks."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import report, run, tracing, workloads
from perfbench.measure import tail_percentile

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------- tail percentile
@pytest.mark.parametrize("n, label", [
    (20, "p50"), (99, "p50"), (100, "p90"), (999, "p90"), (1000, "p99"),
    (10_000, "p99.9"), (100_000, "p99.99"),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label):
    samples = [float(i) for i in range(1, n + 1)]
    got_label, value, count = tail_percentile(samples[::-1])
    assert (got_label, count) == (label, n)
    assert sum(1 for s in samples if s > value) >= 10


@pytest.mark.parametrize("n", [0, 1, 19])
def test_no_tail_below_twenty_samples(n):
    assert tail_percentile([1.0] * n) is None


# ------------------------------------------------------------------ generator
def _head(wl, n):
    out = []
    stream = wl.stream()
    for _ in range(n):
        item = next(stream)
        if isinstance(item, dict):
            out.append(json.dumps(item, sort_keys=True))
        else:
            kind, req = item
            out.append((kind, req.mapper, req.seed, req.topology,
                        json.dumps(req.netsim, sort_keys=True),
                        req.flow_metrics, req.validate))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    def make(seed):
        wl = workloads.WORKLOADS[name](seed, probe=None)
        wl.graph = object()
        return wl

    assert _head(make(7), 30) == _head(make(7), 30)
    assert _head(make(7), 30) != _head(make(8), 30)


def test_service_stream_has_one_cold_request_in_every_five():
    wl = workloads.ServiceDup80(3)
    stream = wl.stream()
    seen, cold = set(), []
    for _ in range(1000):
        seed = next(stream)["seed"]
        cold.append(seed not in seen)
        seen.add(seed)
    assert all(sum(cold[i:i + 5]) == 1 for i in range(0, 1000, 5))


def test_multilevel_runs_cover_the_seed_pool():
    wl = workloads.Multilevel110k(5, probe=None)
    wl.graph = object()
    stream = wl.stream()
    seeds = [next(stream)[1].seed for _ in wl.seed_pool]
    assert sorted(seeds) == sorted(wl.seed_pool)


# ---------------------------------------------------------------------- spans
def _small_engine_run():
    from repro.engine.core import MappingEngine, MappingRequest

    return MappingEngine().run(MappingRequest(
        graph="mesh2d:8x8;bytes=64", topology="torus:4x4",
        mapper="multilevel:inner=topolb;stop=4", seed=1,
        flow_metrics=True, validate="cheap",
    ))


def test_self_times_are_nonnegative_and_children_fit_in_parent():
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        _small_engine_run()
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    selfs = tracing.self_times(spans)
    assert all(v >= -1e-9 for v in selfs.values())
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    for pid, total in children.items():
        assert total <= by_id[pid].duration + 1e-9
    names = {s.name for s in spans}
    assert {"engine.run", "multilevel.map", "partition.coarsen",
            "refine.refine", "flow.evaluate", "validate.cheap"} <= names


def test_functions_are_patched_where_the_caller_looks_them_up():
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        _small_engine_run()
    by_id = {s.id: s for s in tracer.spans}
    coarsen = [s for s in tracer.spans if s.name == "partition.coarsen"]
    assert coarsen, "coarsen_toward called through hierarchical was not traced"
    assert all(by_id[s.parent].name == "multilevel.map" for s in coarsen)


def test_service_spans_nest_per_connection():
    from repro.service.daemon import ServiceConfig
    from repro.service.http import ThreadedServer

    body = {"graph": "mesh2d:4x4;bytes=64", "topology": "torus:4x4",
            "mapper": "topolb", "seed": 1}
    tracer = tracing.Tracer()
    with ThreadedServer(ServiceConfig(jobs=0)) as url:
        with tracing.install(tracer):
            first = workloads.post(url, body)
            second = workloads.post(url, body)
    assert (first["cached"], second["cached"]) == (False, True)
    by_id = {s.id: s for s in tracer.spans}
    submits = [s for s in tracer.spans if s.name == "service.submit"]
    assert len(submits) == 2
    assert all(by_id[s.parent].name == "http.handle" for s in submits)
    keys = [s for s in tracer.spans if s.name == "cache.key"]
    assert all(by_id[s.parent].name == "service.submit" for s in keys)
    assert all(v >= -1e-9 for v in tracing.self_times(tracer.spans).values())


def test_wrappers_are_removed_before_untraced_runs():
    from repro.engine.core import MappingEngine
    from repro.mapping import hierarchical
    from repro.partition import coarsening

    original_run = MappingEngine.__dict__["run"]
    original_coarsen = coarsening.coarsen_toward
    assert tracing.wrapped_names() == []
    with tracing.install(tracing.Tracer()):
        wrapped = tracing.wrapped_names()
        assert "repro.mapping.hierarchical.coarsen_toward" in wrapped
        assert "repro.engine.core.MappingEngine.run" in wrapped
        with pytest.raises(RuntimeError, match="still installed"):
            run._untraced(None, 1.0, 0.0)
    assert tracing.wrapped_names() == []
    assert MappingEngine.__dict__["run"] is original_run
    assert hierarchical.coarsen_toward is original_coarsen
    assert coarsening.coarsen_toward is original_coarsen


def test_modules_imported_while_traced_get_originals_back(monkeypatch):
    defining = importlib.import_module("repro.taskgraph.coalesce")
    original = defining.coalesce
    late = types.ModuleType("repro._imported_while_traced")
    with tracing.install(tracing.Tracer()):
        late.coalesce = defining.coalesce  # what `from ... import` binds
        monkeypatch.setitem(sys.modules, late.__name__, late)
        assert late.coalesce is not original
    assert late.coalesce is original
    assert tracing.wrapped_names() == []


# --------------------------------------------------------------------- checks
def _fake_result(graph, topology, **metrics):
    from repro.mapping.metrics import metrics_block

    assignment = np.arange(graph.num_tasks) % topology.num_nodes
    block = metrics_block(graph, topology, assignment)
    block.update(metrics)
    return types.SimpleNamespace(assignment=assignment, metrics=block)


def test_wrong_hop_bytes_and_lost_des_messages_fail_the_check():
    from repro.engine.core import graph_from_spec
    from repro.topology.factory import topology_from_spec

    wl = workloads.DesContention(0, probe=None)
    wl.graph = graph_from_spec("mesh3d:4x4x4;bytes=64")
    wl.topology = topology_from_spec("torus:4x4x4")
    sent = 2 * wl.graph.num_edges * wl.iterations
    good = _fake_result(wl.graph, wl.topology, des_delivered=sent - 3,
                        des_dropped=3)
    bad_hops = _fake_result(wl.graph, wl.topology, des_delivered=sent,
                            des_dropped=0)
    bad_hops.metrics["hop_bytes"] += 1.0
    lost = _fake_result(wl.graph, wl.topology, des_delivered=sent - 1,
                        des_dropped=0)
    window = workloads.Window(
        [workloads.Outcome(i, "random", 0.1, None, r)
         for i, r in enumerate((good, bad_hops, lost))], 0.3, 0.3)
    wl.check(window)
    errors = [o.error for o in window.outcomes]
    assert errors[0] is None
    assert "hop_bytes" in errors[1]
    assert "delivered" in errors[2]


# ------------------------------------------------------------- the contract
def test_benchmark_json_names_the_code_s_workloads_and_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == report.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == report.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leanmd_pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
