"""Contract of ``_serve_batch``, the service's pool-worker entry point.

Each request in a batch runs exactly once through
:func:`repro.utils.guard.guarded_call` and comes back as its own outcome:
requests are seeded, so a failure would only repeat and nothing is retried.
A ``ValidationError`` outcome looks like every other failure kind, in
process ("serial") and from a pool worker ("pooled") alike, and the
exception survives the pickle round-trip back from the worker. On the main
thread the per-request deadline turns a request that overruns into a
``timeout`` outcome.
"""

import pickle
import time

from repro.engine import MappingRequest
from repro.exceptions import ValidationError
from repro.service.daemon import _serve_batch
from repro.taskgraph import mesh2d_pattern


# --------------------------------------------------------- failure injectors
class FlakyMapper:
    """Fail on every call (after a long sleep for ``"sleepy"``), appending
    one line per call to a file.

    Top-level class so pooled requests carrying it still pickle; the attempt
    file is the cross-process attempt counter.
    """

    def __init__(self, attempts_path, exc_factory_name):
        self.attempts_path = str(attempts_path)
        self.exc_factory_name = exc_factory_name

    def map(self, graph, topology):
        with open(self.attempts_path, "a") as fh:
            fh.write("attempt\n")
        if self.exc_factory_name == "validation":
            raise ValidationError(
                "injected", "deterministic invariant violation",
                spec={"mapper": "FlakyMapper"},
            )
        if self.exc_factory_name == "sleepy":
            time.sleep(30.0)
        raise RuntimeError("transient failure (injected)")


def _attempts(path) -> int:
    try:
        return len(path.read_text().splitlines())
    except FileNotFoundError:
        return 0


def _flaky_request(tmp_path, kind):
    attempts = tmp_path / "attempts.txt"
    request = MappingRequest(
        graph=mesh2d_pattern(4, 4, message_bytes=1024), topology="torus:4x4",
        mapper=FlakyMapper(attempts, kind),
    )
    return request, attempts


# ------------------------------------------------ ValidationError runs once
def test_serial_validation_error_not_retried(tmp_path):
    request, attempts = _flaky_request(tmp_path, "validation")
    [outcome] = _serve_batch([request], None)
    assert not outcome["ok"]
    assert outcome["kind"] == "ValidationError"
    assert outcome["error"].startswith("ValidationError: ")
    assert _attempts(attempts) == 1


def test_pooled_validation_error_not_retried(tmp_path, serve_in_pool):
    request, attempts = _flaky_request(tmp_path, "validation")
    [outcome] = serve_in_pool([request])
    assert outcome["kind"] == "ValidationError"
    assert outcome["error"].startswith("ValidationError: ")
    assert _attempts(attempts) == 1


def test_validation_error_pickle_round_trip():
    exc = ValidationError(
        "injectivity", "two tasks share processor 3",
        spec={"mapper": "topolb"}, replay="repro-validate ...",
        details={"processor": 3},
    )
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, ValidationError)
    assert str(clone) == str(exc)
    assert clone.invariant == "injectivity"
    assert clone.details == {"processor": 3}


def test_pooled_spec_error_is_reported(serve_in_pool):
    [outcome] = serve_in_pool(
        [MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                        mapper="NopeLB")],
    )
    assert not outcome["ok"]
    assert outcome["kind"] == "SpecError"


# ------------------------------------------------------ per-request deadline
def test_deadline_times_out_a_request_on_the_main_thread(tmp_path):
    request, attempts = _flaky_request(tmp_path, "sleepy")
    t0 = time.perf_counter()
    [outcome] = _serve_batch([request], timeout=0.2)
    assert time.perf_counter() - t0 < 5.0
    assert not outcome["ok"]
    assert outcome["kind"] == "timeout"
    assert outcome["error"] == "timed out after 0.2s"
    assert _attempts(attempts) == 1
