"""Typed exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without swallowing unrelated bugs.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "TaskGraphError",
    "PartitionError",
    "MappingError",
    "SimulationError",
    "SpecError",
    "ProfileError",
    "ValidationError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Invalid topology construction or query (bad shape, unknown node...)."""


class TaskGraphError(ReproError):
    """Invalid task graph construction or query."""


class PartitionError(ReproError):
    """Partitioning failed or was given inconsistent inputs."""


class MappingError(ReproError):
    """Mapping failed or was given inconsistent inputs."""


class SimulationError(ReproError):
    """Network/application simulation error (causality violation, bad trace)."""


class SpecError(ReproError):
    """A textual spec string (e.g. ``"torus:8x8"``) could not be parsed."""


class ProfileError(ReproError):
    """A profile artifact failed schema validation or could not be read."""


class ValidationError(ReproError):
    """A mapping violated an invariant of :mod:`repro.validate`.

    Structured so tooling (and the next bugfix PR) can start from the exact
    failing oracle instead of a prose report:

    ``invariant``
        The machine-readable invariant name (e.g. ``"injectivity"``,
        ``"kernel-differential"``, ``"golden-drift"``).
    ``spec``
        The ``graph``/``topology``/``mapper``/``seed``/``kernel`` context the
        violation occurred under (whatever subset was known).
    ``replay``
        A ``repro-validate`` command line reproducing the failure, when the
        run was fully spec-described.
    ``details``
        Free-form diagnostic values (observed vs expected numbers, offending
        indices, ...).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        spec: dict | None = None,
        replay: str | None = None,
        details: dict | None = None,
    ):
        self.invariant = str(invariant)
        self.message = str(message)
        self.spec = dict(spec or {})
        self.replay = replay
        self.details = dict(details or {})
        text = f"invariant {self.invariant!r} violated: {message}"
        if self.spec:
            shown = ", ".join(
                f"{k}={v!r}" for k, v in self.spec.items() if v is not None
            )
            if shown:
                text += f" [{shown}]"
        if replay:
            text += f"\nreplay: {replay}"
        super().__init__(text)

    def __reduce__(self):
        # The default Exception reduction calls ``type(self)(*self.args)``,
        # which cannot rebuild the two-positional-argument signature — and a
        # ValidationError must survive the pickle round-trip through a
        # process pool.
        return (
            _rebuild_validation_error,
            (self.invariant, self.message, self.spec, self.replay,
             self.details),
        )


def _rebuild_validation_error(invariant, message, spec, replay, details):
    """Unpickle helper for :class:`ValidationError`."""
    return ValidationError(
        invariant, message, spec=spec, replay=replay, details=details
    )
