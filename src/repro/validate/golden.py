"""Golden-regression corpus: pinned graph x topology x mapper triples.

Each ``tests/golden/*.json`` file records one fully spec-described mapping
run — the three specs, the seed, the exact assignment, and the exact
canonical metrics block. :func:`check_golden` replays the triple through the
:class:`~repro.engine.MappingEngine` (at any validation level) and raises a structured ``golden-drift``
:class:`~repro.exceptions.ValidationError` if anything moved.

Regenerate *intentionally* with ``repro-validate --regenerate --golden
tests/golden`` after a deliberate behaviour change, and say so in the commit
message — EXPERIMENTS.md numbers likely moved too (see docs/VALIDATION.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "GOLDEN_FORMAT",
    "iter_golden_paths",
    "load_golden",
    "write_golden",
    "check_golden",
]

GOLDEN_FORMAT = "repro-golden-v1"

_REQUIRED_KEYS = ("format", "graph", "topology", "mapper", "seed",
                  "assignment", "metrics")


def iter_golden_paths(root: Path) -> list[Path]:
    """All corpus files under ``root`` (a directory or one ``.json`` file),
    but not the paper experiments' pins beside them (``experiments.json``)."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(p for p in root.glob("*.json") if p.name != "experiments.json")


def load_golden(path: Path) -> dict:
    """Read and structurally validate one golden document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(
            "golden-format", f"cannot read golden {path}: {exc}",
            spec={"golden": str(path)},
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != GOLDEN_FORMAT:
        raise ValidationError(
            "golden-format",
            f"{path} is not a {GOLDEN_FORMAT} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else None!r})",
            spec={"golden": str(path)},
        )
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ValidationError(
            "golden-format", f"{path} is missing keys {missing}",
            spec={"golden": str(path)},
        )
    return doc


def _graph_spec(spec: str, root: Path) -> str:
    """``spec``, with a relative ``file:``/``lbdump:`` path taken relative
    to ``root``, the golden document's directory: the corpus replays from
    any working directory."""
    kind, sep, rest = spec.partition(":")
    if kind in ("file", "lbdump") and sep and not Path(rest).is_absolute():
        return f"{kind}:{root / rest}"
    return spec


def _run_triple(doc: dict, *, validate: str, root: Path):
    from repro.engine import MappingEngine, MappingRequest

    return MappingEngine().run(MappingRequest(
        graph=_graph_spec(doc["graph"], root),
        topology=doc["topology"],
        mapper=doc["mapper"],
        seed=doc["seed"],
        validate=validate,
        flow_metrics=bool(doc.get("flow_metrics", False)),
        netsim=doc.get("netsim"),
    ))


def write_golden(path: Path, *, graph: str, topology: str, mapper: str,
                 seed: int = 0, flow_metrics: bool = False,
                 netsim: dict | None = None) -> dict:
    """Run the triple at ``--validate full`` and pin its outputs to ``path``.

    A relative ``file:`` or ``lbdump:`` graph path is taken relative to
    ``path``'s directory, at write and at replay.

    With ``flow_metrics=True`` the engine also runs the flow-level
    contention estimator and the pinned metrics block gains the ``flow_*``
    keys — drift in the route accounting or the makespan bound then trips
    the corpus even when the assignment itself is unchanged. ``netsim`` (a
    ``MappingRequest.netsim`` knob dict, e.g. ``{"buffer_bytes": 4096,
    "overload_policy": "drop"}``) additionally pins the buffered DES replay's
    ``des_*`` percentile/overload metrics — the finite-buffer timing model
    itself becomes regression-guarded.
    """
    result = _run_triple(
        {"graph": graph, "topology": topology, "mapper": mapper, "seed": seed,
         "flow_metrics": flow_metrics, "netsim": netsim},
        validate="full", root=Path(path).parent,
    )
    doc = {
        "format": GOLDEN_FORMAT,
        "graph": graph,
        "topology": topology,
        "mapper": mapper,
        "seed": seed,
        "assignment": result.assignment.tolist(),
        "metrics": result.metrics,
    }
    if flow_metrics:
        doc["flow_metrics"] = True
    if netsim is not None:
        doc["netsim"] = netsim
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def check_golden(path: Path, *, level: str = "full") -> dict:
    """Replay one golden triple and compare against its pinned outputs.

    Runs the engine with per-request validation at ``level`` (so every
    invariant and oracle fires *before* the drift comparison), then checks
    the assignment and each metric for exact equality — the corpus exists to
    catch one-ULP drift, not just wrong answers. Returns the engine's
    metrics block on success.
    """
    doc = load_golden(path)
    spec = {
        "golden": str(path),
        "graph": doc["graph"],
        "topology": doc["topology"],
        "mapper": doc["mapper"],
        "seed": doc["seed"],
    }
    from repro.validate.core import replay_command

    replay = replay_command(_graph_spec(doc["graph"], Path(path).parent),
                            doc["topology"], doc["mapper"], doc["seed"], level)
    result = _run_triple(doc, validate=level, root=Path(path).parent)

    pinned = np.asarray(doc["assignment"], dtype=np.int64)
    if not np.array_equal(result.assignment, pinned):
        diff = np.flatnonzero(result.assignment != pinned)
        raise ValidationError(
            "golden-drift",
            f"assignment drifted from {path} at {len(diff)} tasks "
            f"(first: {diff[:8].tolist()}); if intentional, regenerate with "
            f"'repro-validate --regenerate --golden {Path(path).parent}'",
            spec=spec, replay=replay,
            details={"differing_tasks": int(len(diff))},
        )
    for key, want in doc["metrics"].items():
        got = result.metrics.get(key)
        if got != want:
            raise ValidationError(
                "golden-drift",
                f"metric {key!r} drifted from {path}: pinned {want!r}, "
                f"got {got!r}; if intentional, regenerate with "
                f"'repro-validate --regenerate --golden {Path(path).parent}'",
                spec=spec, replay=replay,
                details={"metric": key, "pinned": want, "got": got},
            )
    return result.metrics
