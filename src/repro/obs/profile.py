"""The ``repro-profile-v1`` artifact: schema, validation, I/O, reporting.

A profile is one JSON document capturing everything a run's
:class:`~repro.obs.core.Profiler` observed — per-phase wall times, mapper
repair counters, netsim per-link load summaries — in a stable schema so the
``BENCH_*.json`` trajectory can diff baselines across PRs.

``PROFILE_SCHEMA`` is a standard JSON-Schema (draft-07) document; it is
enforced here by a built-in validator covering the subset the schema uses
(no external dependency), and any installed ``jsonschema`` package will
accept the same documents (the test suite cross-checks this).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.exceptions import ProfileError
from repro.obs.core import Profiler

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_SCHEMA",
    "build_profile",
    "validate_profile",
    "save_profile",
    "load_profile",
    "summarize_profile",
]

PROFILE_FORMAT = "repro-profile-v1"

#: JSON-Schema (draft-07) for the profile artifact.
PROFILE_SCHEMA: dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro profile artifact (repro-profile-v1)",
    "type": "object",
    "required": ["format", "command", "counters", "timers"],
    "additionalProperties": False,
    "properties": {
        "format": {"const": PROFILE_FORMAT},
        "command": {"type": "string"},
        "counters": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "timers": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["total_s", "count"],
                "additionalProperties": False,
                "properties": {
                    "total_s": {"type": "number", "minimum": 0},
                    "count": {"type": "integer", "minimum": 0},
                },
            },
        },
        "netsim": {
            "type": "object",
            "required": ["links_used", "total_bytes", "max_link_bytes", "top_links"],
            "additionalProperties": False,
            "properties": {
                "mode": {"type": "string", "enum": ["des", "flow"]},
                "links_used": {"type": "integer", "minimum": 0},
                "total_bytes": {"type": "number", "minimum": 0},
                "max_link_bytes": {"type": "number", "minimum": 0},
                "mean_utilization": {"type": "number", "minimum": 0},
                "max_utilization": {"type": "number", "minimum": 0},
                "max_queue_depth": {"type": "integer", "minimum": 0},
                "sim_time_us": {"type": "number", "minimum": 0},
                "makespan_lower_bound_us": {"type": "number", "minimum": 0},
                "top_links": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        # "busy_us" on a DES summary, "messages" on a flow
                        # one; both report "link" and "bytes".
                        "required": ["link", "bytes"],
                        "additionalProperties": False,
                        "properties": {
                            "link": {"type": "string"},
                            "bytes": {"type": "number", "minimum": 0},
                            "busy_us": {"type": "number", "minimum": 0},
                            "messages": {"type": "integer", "minimum": 0},
                            "max_queue_depth": {"type": "integer", "minimum": 0},
                        },
                    },
                },
                # Tail-latency report of a finite-buffer (or any DES) run,
                # as produced by repro.netsim.stats.tail_summary.
                "tail": {
                    "type": "object",
                    "required": ["delivered", "latency"],
                    "additionalProperties": False,
                    "properties": {
                        "delivered": {"type": "integer", "minimum": 0},
                        "dropped": {"type": "integer", "minimum": 0},
                        "retransmits": {"type": "integer", "minimum": 0},
                        "buffer_drops": {"type": "integer", "minimum": 0},
                        "latency": {
                            "type": "object",
                            "required": ["p50", "p99", "p999"],
                            "additionalProperties": False,
                            "properties": {
                                "p50": {"type": "number", "minimum": 0},
                                "p99": {"type": "number", "minimum": 0},
                                "p999": {"type": "number", "minimum": 0},
                                "mean": {"type": "number", "minimum": 0},
                                "max": {"type": "number", "minimum": 0},
                            },
                        },
                        "classes": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "required": ["class", "count"],
                                "additionalProperties": False,
                                "properties": {
                                    "class": {"type": "string"},
                                    "count": {"type": "integer", "minimum": 0},
                                    "p50": {"type": "number", "minimum": 0},
                                    "p99": {"type": "number", "minimum": 0},
                                    "p999": {"type": "number", "minimum": 0},
                                    "max": {"type": "number", "minimum": 0},
                                },
                            },
                        },
                        "iterations": {
                            "type": "object",
                            "required": ["count"],
                            "additionalProperties": False,
                            "properties": {
                                "count": {"type": "integer", "minimum": 0},
                                "p50": {"type": "number", "minimum": 0},
                                "p99": {"type": "number", "minimum": 0},
                                "max": {"type": "number", "minimum": 0},
                                "mean": {"type": "number", "minimum": 0},
                            },
                        },
                    },
                },
            },
        },
        "context": {"type": "object"},
    },
}


# --------------------------------------------------------------------- build
def build_profile(
    profiler: Profiler,
    command: str,
    context: dict[str, Any] | None = None,
    netsim: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble (and validate) a profile document from a profiler's data.

    ``context`` is free-form run metadata (strategy, topology spec, seed...);
    ``netsim`` is a per-link load summary as produced by
    :func:`repro.netsim.stats.link_summary`.
    """
    profile: dict[str, Any] = {
        "format": PROFILE_FORMAT,
        "command": command,
        **profiler.snapshot(),
    }
    if netsim is not None:
        profile["netsim"] = netsim
    if context is not None:
        profile["context"] = context
    validate_profile(profile)
    return profile


# ------------------------------------------------------------------ validate
def validate_profile(profile: Any) -> None:
    """Check ``profile`` against :data:`PROFILE_SCHEMA`; raise :class:`ProfileError`.

    Uses a built-in validator for the JSON-Schema subset the schema needs, so
    validation works with no third-party packages installed.
    """
    errors: list[str] = []
    _validate(profile, PROFILE_SCHEMA, "$", errors)
    if errors:
        raise ProfileError(
            "profile does not match repro-profile-v1: " + "; ".join(errors[:5])
        )


def _validate(value: Any, schema: dict[str, Any], path: str, errors: list[str]) -> None:
    """Recursive validator for the schema subset PROFILE_SCHEMA uses."""
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return

    stype = schema.get("type")
    if stype == "object":
        if not isinstance(value, dict):
            errors.append(f"{path}: expected object, got {type(value).__name__}")
            return
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                _validate(item, props[key], f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                _validate(item, extra, f"{path}.{key}", errors)
    elif stype == "array":
        if not isinstance(value, list):
            errors.append(f"{path}: expected array, got {type(value).__name__}")
            return
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: more than {schema['maxItems']} items")
        item_schema = schema.get("items")
        if item_schema:
            for i, item in enumerate(value):
                _validate(item, item_schema, f"{path}[{i}]", errors)
    elif stype == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected number, got {type(value).__name__}")
        elif "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    elif stype == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(f"{path}: expected integer, got {type(value).__name__}")
        elif "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    elif stype == "string":
        if not isinstance(value, str):
            errors.append(f"{path}: expected string, got {type(value).__name__}")


# ----------------------------------------------------------------------- I/O
def save_profile(profile: dict[str, Any], path: str | Path) -> None:
    """Validate and write ``profile`` as JSON."""
    validate_profile(profile)
    Path(path).write_text(json.dumps(profile, indent=1, sort_keys=True))


def load_profile(path: str | Path) -> dict[str, Any]:
    """Read and validate a profile JSON; raise :class:`ProfileError` on failure."""
    try:
        profile = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path} is not valid JSON: {exc}") from exc
    validate_profile(profile)
    return profile


# -------------------------------------------------------------------- report
def summarize_profile(profile: dict[str, Any]) -> str:
    """Human-readable summary of a profile (the ``repro-map --stats`` report)."""
    validate_profile(profile)
    lines = [f"profile: {profile['command']}"]

    context = profile.get("context")
    if context:
        ctx = ", ".join(f"{k}={v}" for k, v in sorted(context.items()))
        lines.append(f"context: {ctx}")

    timers = profile.get("timers", {})
    if timers:
        lines.append("")
        lines.append("phase wall times:")
        width = max(len(name) for name in timers)
        by_total = sorted(timers.items(), key=lambda kv: -kv[1]["total_s"])
        for name, cell in by_total:
            lines.append(
                f"  {name.ljust(width)}  {cell['total_s'] * 1e3:10.3f} ms"
                f"  x{cell['count']}"
            )

    counters = profile.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            value = counters[name]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name.ljust(width)}  {shown}")

    netsim = profile.get("netsim")
    if netsim:
        lines.append("")
        lines.append(
            f"netsim: {netsim['links_used']} links carried "
            f"{netsim['total_bytes']:.6g} bytes"
            + (
                f" over {netsim['sim_time_us']:.6g} us"
                if "sim_time_us" in netsim
                else ""
            )
            + (
                f", makespan >= {netsim['makespan_lower_bound_us']:.6g} us"
                if "makespan_lower_bound_us" in netsim
                else ""
            )
        )
        if "max_utilization" in netsim:
            lines.append(
                f"  utilization mean={netsim.get('mean_utilization', 0):.3f} "
                f"max={netsim['max_utilization']:.3f}"
            )
        if netsim["top_links"]:
            flow = netsim.get("mode") == "flow"
            lines.append("  hottest links (bytes / messages):" if flow
                         else "  hottest links (bytes / busy us):")
            for entry in netsim["top_links"]:
                tail = entry["messages"] if flow else entry["busy_us"]
                lines.append(
                    f"    {entry['link']:<16} {entry['bytes']:>12.6g}"
                    f"  {tail:>10.4g}"
                )
        tail_block = netsim.get("tail")
        if tail_block:
            lat = tail_block["latency"]
            lines.append(
                f"  tail: {tail_block['delivered']} delivered, latency "
                f"p50={lat['p50']:.6g} p99={lat['p99']:.6g} "
                f"p999={lat['p999']:.6g} us"
            )
            overload_bits = []
            for key in ("dropped", "retransmits", "buffer_drops"):
                if tail_block.get(key):
                    overload_bits.append(f"{key}={tail_block[key]}")
            if overload_bits:
                lines.append("  overload: " + " ".join(overload_bits))
            for row in tail_block.get("classes", []):
                lines.append(
                    f"    {row['class']:<10} n={row['count']:<7} "
                    f"p50={row['p50']:.6g} p99={row['p99']:.6g} "
                    f"p999={row['p999']:.6g}"
                )
            its = tail_block.get("iterations")
            if its:
                lines.append(
                    f"  iteration tails: n={its['count']} "
                    f"p50={its['p50']:.6g} p99={its['p99']:.6g} "
                    f"max={its['max']:.6g} us"
                )
    return "\n".join(lines)
