"""Retry contract of a batch of mapping requests run by ``_serve_batch``,
the service's pool-worker entry point.

Each request in a batch is retried up to ``retries`` times on a transient
failure, while ``ValidationError`` — a deterministic invariant violation —
fails fast without consuming the budget, in process ("serial") and from a
pool worker ("pooled") alike, and survives the pickle round-trip back from
the worker.
"""

import pickle
from repro.engine import MappingRequest
from repro.exceptions import ValidationError
from repro.service.daemon import _serve_batch
from repro.taskgraph import mesh2d_pattern


# --------------------------------------------------------- failure injectors
class FlakyMapper:
    """Raise ``exc`` on every attempt, appending one line per call to a file.

    Top-level class so pooled requests carrying it still pickle; the attempt
    file is the cross-process attempt counter.
    """

    def __init__(self, attempts_path, exc_factory_name):
        self.attempts_path = str(attempts_path)
        self.exc_factory_name = exc_factory_name

    def map(self, graph, topology, allowed=None):
        with open(self.attempts_path, "a") as fh:
            fh.write("attempt\n")
        if self.exc_factory_name == "validation":
            raise ValidationError(
                "injected", "deterministic invariant violation",
                spec={"mapper": "FlakyMapper"},
            )
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


# -------------------------------------------------- ValidationError fail-fast
def test_serial_validation_error_not_retried(tmp_path):
    request, attempts = _flaky_request(tmp_path, "validation")
    [outcome] = _serve_batch([request], 5, 0.0, None)
    assert not outcome["ok"]
    assert outcome["kind"] == "ValidationError"
    assert _attempts(attempts) == 1  # fail fast: the budget was not consumed


def test_serial_transient_error_still_retried(tmp_path):
    request, attempts = _flaky_request(tmp_path, "transient")
    [outcome] = _serve_batch([request], 2, 0.0, None)
    assert not outcome["ok"]
    assert outcome["kind"] == "RuntimeError"
    assert _attempts(attempts) == 3  # initial attempt + both retries


def test_pooled_validation_error_not_retried(tmp_path, serve_in_pool):
    request, attempts = _flaky_request(tmp_path, "validation")
    [outcome] = serve_in_pool([request], retries=5)
    assert outcome["kind"] == "ValidationError"
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


def test_pooled_spec_error_still_respects_retry_budget(serve_in_pool):
    # Non-validation deterministic errors keep the documented behavior: they
    # consume the budget, then come back as that request's error outcome.
    [outcome] = serve_in_pool(
        [MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                        mapper="NopeLB")],
        retries=1,
    )
    assert not outcome["ok"]
    assert outcome["kind"] == "SpecError"
