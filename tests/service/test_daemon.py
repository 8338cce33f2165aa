"""MappingService core: submit/coalesce/backpressure/error-replay/metrics.

All tests but the dead-worker one run the service with ``jobs=0`` (thread
executor in-process) so no pool spins up; each wraps its scenario in
``asyncio.run`` since the suite has no async test plugin.
"""

import asyncio
import os
import time

import pytest

from repro import obs
from repro.engine import MappingRequest
from repro.service import BackpressureError, MappingService, ServiceConfig
from repro.service.daemon import ServiceRequestError, parse_request_body

BODY = {"graph": "mesh2d:6x6;bytes=1024", "topology": "torus:6x6",
        "mapper": "topolb", "seed": 0}


def _config(**overrides):
    base = dict(jobs=0, batch_size=4, timeout=10.0)
    base.update(overrides)
    return ServiceConfig(**base)


async def _with_service(config, scenario):
    service = MappingService(config)
    await service.start()
    try:
        return await scenario(service)
    finally:
        await service.stop()


def run(scenario, **config_overrides):
    return asyncio.run(_with_service(_config(**config_overrides), scenario))


# ------------------------------------------------------------- body parsing
@pytest.mark.parametrize("body,match", [
    ([1, 2], "JSON object"),
    ({**BODY, "mystery": 1}, "unknown request field"),
    ({"topology": "torus:4x4"}, "'graph' must be a spec string"),
    ({"graph": "mesh2d:4x4"}, "'topology' must be a spec string"),
    ({**BODY, "seed": "zero"}, "seed must be an integer"),
    ({**BODY, "seed": True}, "seed must be an integer"),
    ({**BODY, "kernel": "reference"}, "unknown request field"),
    ({**BODY, "netsim": "fast"}, "netsim must be an object"),
    ({**BODY, "validate": "always"}, "validate must be one of"),
])
def test_parse_request_body_rejects(body, match):
    with pytest.raises(ServiceRequestError, match=match):
        parse_request_body(body)


def test_parse_request_body_defaults():
    request, wait = parse_request_body(
        {"graph": "mesh2d:4x4", "topology": "torus:4x4"}
    )
    assert wait is True
    assert request.mapper == "TopoLB"
    assert request.seed == 0
    assert request.validate == "off"


# ------------------------------------------------------------ miss/hit path
def test_miss_then_hit_serves_identical_result():
    async def scenario(service):
        first = await service.submit(dict(BODY))
        second = await service.submit(dict(BODY))
        return first, second, service.cache.stats()

    first, second, stats = run(scenario)
    assert first["status"] == second["status"] == "done"
    assert first["cached"] is False and second["cached"] is True
    assert first["id"] == second["id"]
    assert first["result"]["assignment"] == second["result"]["assignment"]
    assert first["result"]["metrics"] == second["result"]["metrics"]
    assert stats["hits"] == 1 and stats["misses"] >= 1


def test_wait_false_returns_pending_then_result_polls_done():
    async def scenario(service):
        reply = await service.submit({**BODY, "wait": False})
        assert reply["status"] == "pending"
        key = reply["id"]
        for _ in range(200):
            polled = await service.result(key)
            if polled["status"] == "done":
                return reply, polled
            await asyncio.sleep(0.05)
        raise AssertionError("request never completed")

    reply, polled = run(scenario)
    assert polled["id"] == reply["id"]
    assert polled["result"]["metrics"]["hop_bytes"] > 0


def test_unknown_key_polls_to_none():
    async def scenario(service):
        return await service.result("0" * 64)

    assert run(scenario) is None


def test_duplicate_inflight_submissions_coalesce():
    async def scenario(service):
        a = await service.submit({**BODY, "wait": False})
        b = await service.submit({**BODY, "wait": False})
        assert a["id"] == b["id"]
        counters = service.profiler.snapshot()["counters"]
        # One enqueue, one coalesce — not two computations.
        assert counters["service.coalesced"] == 1
        while (await service.result(a["id"]))["status"] != "done":
            await asyncio.sleep(0.05)
        return service.profiler.snapshot()["counters"]

    counters = run(scenario)
    assert counters["service.misses"] == 1


# ------------------------------------------------------------- backpressure
def test_full_queue_rejects_with_retry_after():
    async def scenario(service):
        # Park the batcher so enqueued misses cannot drain: the queue depth
        # is then fully controlled by submissions.
        service._batcher.cancel()
        try:
            await service._batcher
        except asyncio.CancelledError:
            pass
        service._batcher = None
        for seed in range(2):
            reply = await service.submit(
                {**BODY, "seed": seed, "wait": False}
            )
            assert reply["status"] == "pending"
        with pytest.raises(BackpressureError) as err:
            await service.submit({**BODY, "seed": 99, "wait": False})
        assert err.value.retry_after == pytest.approx(2.5)
        counters = service.profiler.snapshot()["counters"]
        assert counters["service.rejected"] == 1

        # Duplicates of an already-inflight key coalesce instead of being
        # rejected — backpressure only applies to *new* work.
        reply = await service.submit({**BODY, "seed": 0, "wait": False})
        assert reply["status"] == "pending"

    run(scenario, queue_limit=2, retry_after=2.5)


# -------------------------------------------------------------- error paths
def test_bad_request_raises_service_request_error():
    async def scenario(service):
        with pytest.raises(ServiceRequestError):
            await service.submit({**BODY, "mapper": "NoSuchMapperLB"})
        return service.profiler.snapshot()["counters"]

    counters = run(scenario)
    assert counters["service.bad_requests"] == 1


def test_deterministic_failure_is_replayed_not_recomputed():
    bad = {**BODY, "netsim": {"no_such_knob": 1}}

    async def scenario(service):
        first = await service.submit(dict(bad))
        assert first["status"] == "error"
        assert "no_such_knob" in first["error"]
        second = await service.submit(dict(bad))
        polled = await service.result(first["id"])
        return first, second, polled, service.profiler.snapshot()["counters"]

    first, second, polled, counters = run(scenario)
    assert second["status"] == polled["status"] == "error"
    assert second["error"] == first["error"]
    assert counters["service.errors"] == 1       # computed exactly once
    assert counters["service.error_hits"] == 1   # then answered from record


def test_poisoned_request_does_not_take_down_batchmates():
    async def scenario(service):
        good = service.submit(dict(BODY))
        bad = service.submit({**BODY, "netsim": {"no_such_knob": 1}})
        return await asyncio.gather(good, bad)

    good, bad = run(scenario)
    assert good["status"] == "done"
    assert bad["status"] == "error"


class ExitingMapper:
    """Kill the pool worker that runs it, as a segfault or the OOM killer would."""

    def map(self, graph, topology):
        os._exit(1)


def test_dead_pool_worker_fails_only_its_batch():
    """The broken pool is replaced, so the next miss is served."""
    crash = MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                           mapper=ExitingMapper())

    async def scenario(service):
        # Enqueued directly: submit() takes spec strings, not a live mapper.
        crashed = asyncio.get_running_loop().create_future()
        service._inflight["crash"] = crashed
        service._queue.put_nowait(("crash", crash, time.perf_counter()))
        outcome = await crashed
        reply = await service.submit(dict(BODY))
        return outcome, reply, service.profiler.snapshot()["counters"]

    outcome, reply, counters = run(scenario, jobs=1)
    assert outcome["ok"] is False
    assert outcome["kind"] == "BrokenProcessPool"
    assert reply["status"] == "done"
    assert counters["service.pool_restarts"] == 1


# ------------------------------------------------------------------ metrics
def test_metrics_profile_is_valid_and_complete():
    async def scenario(service):
        await service.submit(dict(BODY))
        await service.submit(dict(BODY))
        return service.metrics_profile(), service.healthz()

    profile, health = run(scenario)
    obs.validate_profile(profile)
    counters = profile["counters"]
    assert counters["service.requests"] == 2
    assert counters["service.hits"] == 1
    assert counters["service.misses"] == 1
    assert counters["service.cache.entries"] == 1
    assert counters["service.latency_hit_samples"] == 1
    assert counters["service.latency_miss_samples"] == 1
    assert counters["service.latency_hit_p50_us"] > 0
    assert counters["service.latency_miss_p50_us"] > 0
    assert health["status"] == "ok"
    assert health["requests"] == 2
    assert health["queue_depth"] == 0


def test_stop_resolves_inflight_futures():
    async def scenario(service):
        service._batcher.cancel()
        try:
            await service._batcher
        except asyncio.CancelledError:
            pass
        service._batcher = None
        reply = await service.submit({**BODY, "wait": False})
        future = service._inflight[reply["id"]]
        await service.stop()
        assert future.done()
        assert future.result()["kind"] == "shutdown"

    asyncio.run(_with_service(_config(), scenario))


@pytest.mark.parametrize("argv", [
    ["--timeout", "nan"], ["--timeout", "inf"],
    ["--retry-after", "nan"], ["--retry-after", "-inf"],
    ["--jobs", "-1"],
])
def test_serve_rejects_bad_numbers_at_parse_time(argv):
    """A non-finite timeout or Retry-After, or a negative pool size, is a
    usage error before the daemon starts, not a 422 or 500 per request."""
    from repro.service.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
