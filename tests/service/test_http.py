"""HTTP transport: routes, status codes, and the ThreadedServer harness."""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.service import ServiceConfig, ThreadedServer

BODY = {"graph": "mesh2d:6x6;bytes=1024", "topology": "torus:6x6",
        "mapper": "topolb", "seed": 0}


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(ServiceConfig(jobs=0, batch_size=4,
                                      timeout=10.0)) as url:
        yield url


def _call(url, method="GET", body=None):
    """(status, headers, parsed JSON) without raising on 4xx."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, dict(reply.headers), json.load(reply)
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.load(err)


def test_map_miss_then_hit(server):
    status, _, first = _call(f"{server}/map", "POST", dict(BODY))
    assert status == 200
    assert first["status"] == "done" and first["cached"] is False
    assert first["result"]["metrics"]["hop_bytes"] > 0

    status, _, second = _call(f"{server}/map", "POST", dict(BODY))
    assert status == 200
    assert second["cached"] is True
    assert second["id"] == first["id"]
    assert second["result"] == first["result"]


def test_map_wait_false_then_poll(server):
    body = {**BODY, "seed": 41, "wait": False}
    status, _, reply = _call(f"{server}/map", "POST", body)
    assert status == 202
    assert reply["status"] == "pending"
    for _ in range(200):
        status, _, polled = _call(f"{server}/result/{reply['id']}")
        if status == 200:
            assert polled["status"] == "done"
            assert polled["result"]["metrics"]["hop_bytes"] > 0
            return
        assert status == 202
    raise AssertionError("poll never reached done")


def test_result_unknown_is_404(server):
    status, _, reply = _call(f"{server}/result/{'0' * 64}")
    assert status == 404
    assert "unknown" in reply["error"]


@pytest.mark.parametrize("rid", ["../secret", "..%2Fsecret", "0" * 63,
                                 "A" * 64, "0" * 64 + ".json"])
def test_result_id_is_a_cache_key_or_404(tmp_path, rid):
    """``/result/<id>`` reads only files the cache wrote: an id that is not
    64 lowercase hex digits is 404 before the cache is asked."""
    (tmp_path / "secret.json").write_text('{"payload": {"leaked": true}}')
    (tmp_path / "cache").mkdir()
    for name in ("0" * 63, "A" * 64, "0" * 64 + ".json"):
        (tmp_path / "cache" / f"{name}.json").write_text(
            '{"payload": {"leaked": true}}')
    with ThreadedServer(ServiceConfig(jobs=0,
                                      cache_dir=tmp_path / "cache")) as url:
        before = _call(f"{url}/healthz")[2]["cache"]
        status, reply = _raw(url, f"GET /result/{rid} HTTP/1.1\r\n\r\n".encode())
        assert (status, reply) == (404, {"error": "unknown result id"})
        assert _call(f"{url}/healthz")[2]["cache"] == before


@pytest.mark.parametrize("raw", [b"{not json", b""])
def test_map_malformed_json_is_400(server, raw):
    request = urllib.request.Request(
        f"{server}/map", data=raw, method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=30)
    assert err.value.code == 400


def _raw(url, request: bytes, half_close=False) -> tuple[int, dict]:
    """Send ``request`` bytes as they are, then maybe shut the sending side;
    (status, parsed JSON) of the reply, or (0, {}) when the server closes
    without one."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    with socket.create_connection((host, int(port)), timeout=30) as conn:
        conn.sendall(request)
        if half_close:
            conn.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    if not reply:
        return 0, {}
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


@pytest.mark.parametrize("length", [b"-5", b"five", b"1.5", b"\xb2"])
def test_map_bad_content_length_is_400(server, length):
    body = json.dumps(BODY).encode()
    status, reply = _raw(server, b"POST /map HTTP/1.1\r\nContent-Length: "
                         + length + b"\r\n\r\n" + body)
    assert status == 400
    assert "Content-Length" in reply["error"]


@pytest.mark.parametrize("line", [b"GET", b"\r\n"])
def test_short_request_line_is_400(server, line):
    status, reply = _raw(server, line.rstrip() + b"\r\n\r\n")
    assert status == 400
    assert "request line" in reply["error"]


def _post_map(url, body: bytes) -> tuple[int, dict]:
    return _raw(url, b"POST /map HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                % len(body) + body)


def test_header_line_over_64_kib_is_400(server):
    status, reply = _raw(server, b"GET /healthz HTTP/1.1\r\nX-Pad: "
                         + b"a" * 70_000 + b"\r\n\r\n")
    assert status == 400
    assert "64 KiB" in reply["error"]


def test_body_shorter_than_its_content_length_is_400(server):
    status, reply = _raw(server, b"POST /map HTTP/1.1\r\nContent-Length: "
                         b"100\r\n\r\n{}", half_close=True)
    assert status == 400
    assert "body ended after 2 of 100 bytes" in reply["error"]


def test_deeply_nested_json_body_is_400(server):
    status, reply = _post_map(server, b"[" * 100_000)
    assert status == 400
    assert "invalid JSON body" in reply["error"]


def test_seed_past_the_integer_digit_limit_is_400(server):
    body = json.dumps({**BODY, "seed": "SEED"}).encode()
    status, reply = _post_map(server, body.replace(b'"SEED"', b"9" * 5000))
    assert status == 400
    assert "invalid JSON body" in reply["error"]


@pytest.mark.parametrize("field", ["flow_metrics", "wait"])
@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_map_non_boolean_flag_is_400(server, field, value):
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, field: value})
    assert status == 400
    assert f"{field} must be a JSON boolean" in reply["error"]


def test_map_unknown_field_is_400(server):
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "mystery": 1})
    assert status == 400
    assert "unknown request field" in reply["error"]


def test_map_unknown_mapper_is_400(server):
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "mapper": "NoSuchMapperLB"})
    assert status == 400


def test_map_kernel_field_is_400(server):
    """The mapper picks its own kernel; a body naming one is refused."""
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "kernel": "reference"})
    assert status == 400
    assert "unknown request field(s) ['kernel']" in reply["error"]


def test_map_deterministic_failure_is_422(server):
    body = {**BODY, "netsim": {"no_such_knob": 1}}
    status, _, reply = _call(f"{server}/map", "POST", body)
    assert status == 422
    assert reply["status"] == "error"
    assert "no_such_knob" in reply["error"]
    # The error record also answers polls.
    status, _, polled = _call(f"{server}/result/{reply['id']}")
    assert status == 422


def test_map_nan_netsim_knob_is_4xx(server):
    # json.dumps writes the NaN literal, which the server's json.loads takes.
    body = {**BODY, "netsim": {"bandwidth": float("nan")}}
    status, _, reply = _call(f"{server}/map", "POST", body)
    assert status == 422
    assert reply["status"] == "error"
    assert "must be finite" in reply["error"]


def test_map_overflowing_clock_is_422_in_valid_json(server):
    """``alpha`` 1e308 passes validation, then a replay event would land at
    t=inf: the request fails instead of answering ``Infinity`` and ``NaN``,
    which are not JSON."""
    body = json.dumps({**BODY, "netsim": {"alpha": 1e308}}).encode()
    request = urllib.request.Request(f"{server}/map", data=body, method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=60)
    assert err.value.code == 422
    raw = err.value.read()
    assert b"NaN" not in raw and b"Infinity" not in raw
    assert "cannot schedule an event at t=inf" in json.loads(raw)["error"]


@pytest.mark.parametrize("iterations", [10 ** 12, 10 ** 8])
def test_map_oversized_netsim_iterations_is_400_at_once(server, iterations):
    start = time.perf_counter()
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "netsim": {"iterations": iterations}})
    assert status == 400, reply
    assert "capped at 10,000 iterations" in reply["error"]
    assert time.perf_counter() - start < 1.0


def test_map_overload_policy_other_than_drop_is_400(server):
    body = {**BODY, "netsim": {"overload_policy": "ecn"}}
    status, _, reply = _call(f"{server}/map", "POST", body)
    assert status == 400
    assert "'overload_policy' must be 'drop'" in reply["error"]
    body = {**BODY, "netsim": {"overload_policy": "drop", "iterations": 1}}
    status, _, reply = _call(f"{server}/map", "POST", body)
    assert status == 200
    assert reply["result"]["metrics"]["des_delivered"] > 0


def test_map_des_replay_of_a_zero_byte_edge_is_200(server, tmp_path):
    """A zero-weight edge is valid and carries no traffic: the DES replay
    sends nothing on it instead of failing the request."""
    from repro.taskgraph import TaskGraph
    from repro.taskgraph.io import save_taskgraph

    path = tmp_path / "zero.json"
    save_taskgraph(TaskGraph(4, [(0, 1, 0.0), (1, 2, 8.0), (2, 3, 8.0)]),
                   path)
    body = {"graph": f"file:{path}", "topology": "torus:2x2",
            "mapper": "topolb", "netsim": {"iterations": 2}}
    status, _, reply = _call(f"{server}/map", "POST", body)
    assert status == 200, reply
    assert reply["result"]["metrics"]["des_delivered"] == 8


@pytest.mark.parametrize("graph", ["ring:16;bytes=-1", "mesh2d:4x4;bytes=nan"])
def test_map_invalid_graph_is_400(server, graph):
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "graph": graph, "mapper": "random"})
    assert status == 400
    assert "finite" in reply["error"] or "non-negative" in reply["error"]


def test_map_missing_graph_file_is_400(server, tmp_path):
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "graph": f"file:{tmp_path / 'no.json'}"})
    assert status == 400
    assert "cannot read graph" in reply["error"]


@pytest.mark.parametrize("doc", [
    '{"format": "repro-taskgraph-v1", "num_tasks": 2}',
    '{"format": "repro-taskgraph-v1", "num_tasks": 2, '
    '"edges": [[0, 1, NaN]], "vertex_weights": [1.0, 1.0]}',
    '{"format": "repro-taskgraph-v1", "num_tasks": 2, '
    '"edges": [[0, 99999999999999999999, 1.0]], "vertex_weights": [1.0, 1.0]}',
    '{"format": "repro-taskgraph-v1", "num_tasks": 2.5, '
    '"edges": [[0, 1, 1.0]], "vertex_weights": [1.0, 1.0]}',
], ids=["missing-fields", "nan-edge", "overflowing-endpoint", "fractional-count"])
def test_map_malformed_graph_file_is_400(server, tmp_path, doc):
    path = tmp_path / "app.json"
    path.write_text(doc)
    status, _, reply = _call(f"{server}/map", "POST",
                             {**BODY, "graph": f"file:{path}"})
    assert status == 400
    assert "task-graph" in reply["error"] or "finite" in reply["error"]


@pytest.mark.parametrize("graph", ["alltoall:100000",
                                   "random:100000;p=0.00001"])
def test_map_oversized_graph_spec_is_400_at_once(server, graph):
    """Keying the request sizes the spec instead of building it."""
    start = time.perf_counter()
    status, _, reply = _call(f"{server}/map", "POST", {**BODY, "graph": graph})
    assert status == 400, reply
    assert "capped" in reply["error"]
    assert time.perf_counter() - start < 1.0


_DUMP_HEAD = '"format": "repro-lbdump-v1", "steps": 1, "placement": [0, 0]'


@pytest.mark.parametrize("doc", [
    '[1]',
    '{"format": "repro-lbdump-v1"}',
    '{' + _DUMP_HEAD + ', "num_objects": "two", "loads": [1, 1], '
    '"comm": []}',
    '{' + _DUMP_HEAD + ', "num_objects": 2, "loads": [1, 1], '
    '"comm": [[0, 1]]}',
], ids=["not-an-object", "missing-fields", "non-numeric-count", "short-comm-row"])
def test_map_malformed_lbdump_is_400(server, tmp_path, doc):
    """A malformed LB dump is the client's error: the engine raises
    TaskGraphError and the service answers 400, as for a bad ``file:``."""
    from repro.engine import MappingEngine, MappingRequest
    from repro.exceptions import TaskGraphError

    path = tmp_path / "dump.json"
    path.write_text(doc)
    graph = f"lbdump:{path}"
    with pytest.raises(TaskGraphError, match="LB dump|lbdump"):
        MappingEngine().run(MappingRequest(graph=graph, topology="torus:2x2",
                                           mapper="topolb"))
    status, _, reply = _call(f"{server}/map", "POST", {**BODY, "graph": graph})
    assert status == 400, reply
    assert "LB dump" in reply["error"] or "lbdump" in reply["error"]


def test_method_mismatches_are_405(server):
    assert _call(f"{server}/map")[0] == 405
    assert _call(f"{server}/healthz", "POST", {})[0] == 405
    assert _call(f"{server}/metrics", "POST", {})[0] == 405


def test_unknown_route_is_404(server):
    assert _call(f"{server}/nope")[0] == 404


def test_healthz_reports_cache_and_queue(server):
    status, _, health = _call(f"{server}/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert set(health["cache"]) == {"hits", "misses", "disk_hits",
                                    "evictions", "entries"}
    assert health["jobs"] == 0


def test_metrics_is_valid_profile(server):
    status, _, profile = _call(f"{server}/metrics")
    assert status == 200
    obs.validate_profile(profile)
    assert profile["counters"]["service.requests"] >= 2


def test_shutdown_route_stops_the_server():
    with ThreadedServer(ServiceConfig(jobs=0)) as url:
        server_obj_status, _, reply = _call(f"{url}/shutdown", "POST", {})
        assert server_obj_status == 200
        assert reply["status"] == "shutting-down"
        # The serving loop exits on its own; subsequent connects fail once
        # the socket closes.
        for _ in range(100):
            try:
                _call(f"{url}/healthz")
            except (urllib.error.URLError, ConnectionError, OSError):
                break
            import time
            time.sleep(0.05)
        else:
            raise AssertionError("server kept accepting after /shutdown")
