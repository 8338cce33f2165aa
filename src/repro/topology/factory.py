"""Spec-string topology construction, e.g. ``topology_from_spec("torus:8x8x8")``.

Experiment configuration files and the CLI describe machines as short
strings; this module is the single parsing point.
"""

from __future__ import annotations

from repro.exceptions import SpecError, TopologyError
from repro.topology.base import Topology
from repro.topology.dragonfly import Dragonfly
from repro.topology.fattree import FatTree
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh
from repro.topology.torus import Torus

__all__ = ["topology_from_spec"]


def _parse_keyvals(params: str, keys: tuple[str, ...], kind: str) -> dict[str, int]:
    """Parse ``key=value;key=value`` with integer values, all keys required."""
    options: dict[str, int] = {}
    for item in params.split(";"):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise SpecError(
                f"bad {kind} option {item!r}; expected key=value with key "
                f"in {keys}"
            )
        try:
            options[key] = int(value)
        except ValueError as exc:
            raise SpecError(f"bad {kind} option value {item!r}") from exc
    missing = [key for key in keys if key not in options]
    if missing:
        raise SpecError(f"{kind} spec {params!r} is missing {missing}")
    return options


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(part) for part in text.split("x"))
    except ValueError as exc:
        raise SpecError(f"bad shape {text!r}: {exc}") from exc
    if not shape:
        raise SpecError(f"bad shape {text!r}")
    return shape


def topology_from_spec(spec: str) -> Topology:
    """Build a topology from a ``kind:params`` spec string.

    Supported kinds::

        mesh:<e1>x<e2>[x...]       e.g. mesh:16x16, mesh:8x8x8
        torus:<e1>x<e2>[x...]      e.g. torus:4x4x4
        hypercube:<dim>            e.g. hypercube:10  (1024 processors)
        fattree:<arity>x<levels>   e.g. fattree:4x3   (64 processors)
        fattree:arity=..;levels=.. e.g. fattree:arity=2;levels=3
        dragonfly:groups=..;routers=..;hosts=..
                                   e.g. dragonfly:groups=4;routers=4;hosts=2

    Raises :class:`~repro.exceptions.SpecError` on anything else.
    """
    if ":" not in spec:
        raise SpecError(f"topology spec {spec!r} must look like 'kind:params'")
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    params = params.strip()
    if kind == "mesh":
        return Mesh(_parse_shape(params))
    if kind == "torus":
        return Torus(_parse_shape(params))
    if kind == "hypercube":
        try:
            return Hypercube(int(params))
        except ValueError as exc:
            raise SpecError(f"bad hypercube dim {params!r}") from exc
    if kind == "fattree":
        if "=" in params:
            opts = _parse_keyvals(params, ("arity", "levels"), "fattree")
            try:
                return FatTree(opts["arity"], opts["levels"])
            except TopologyError as exc:
                raise SpecError(f"bad fattree spec {params!r}: {exc}") from exc
        shape = _parse_shape(params)
        if len(shape) != 2:
            raise SpecError(f"fattree spec needs arity x levels, got {params!r}")
        return FatTree(shape[0], shape[1])
    if kind == "dragonfly":
        opts = _parse_keyvals(params, ("groups", "routers", "hosts"), "dragonfly")
        try:
            return Dragonfly(opts["groups"], opts["routers"], opts["hosts"])
        except TopologyError as exc:
            raise SpecError(f"bad dragonfly spec {params!r}: {exc}") from exc
    raise SpecError(f"unknown topology kind {kind!r}")
