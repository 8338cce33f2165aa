"""Spec-string mapper construction — the single strategy-resolution path.

Mirrors :mod:`repro.topology.factory`: a mapper is named by a short
``kind[:key=value;key=value...]`` string, e.g. ::

    topolb                              second-order TopoLB, paper defaults
    topolb:order=3;selection=volume     ablation configuration
    refine:base=topolb;passes=3         TopoLB + 3 swap sweeps
    pipeline:partitioner=greedy;inner=topolb
    pipeline:inner=topolb,order=3;refine=on

Option values that are themselves mapper specs (``refine:base=...``,
``pipeline:inner=...``, ``multilevel:inner=...``) use ``,`` instead of ``;``
to separate their own options — one nesting level, which covers every
composition the paper uses (``pipeline`` already owns the partition and
refine stages, so nothing needs a nested pipeline). Every ``,`` segment of
such a value belongs to the nested spec; options of the enclosing kind
follow a ``;`` (``multilevel:inner=topolb,order=3;levels=auto``).

The classic Charm++ strategy names (``TopoLB``, ``RefineTopoLB``,
``GreedyLB``, ...) remain valid everywhere a spec is accepted: they are
aliases in :data:`STRATEGY_SPECS`, each expanding to its canonical spec
string. :func:`mapper_from_spec` is therefore the one entry point the CLI,
the experiment scripts, and the runtime registry all resolve through.

Canonical form (:func:`canonical_mapper_spec`) keeps exactly the options the
caller gave, normalized and in registry order, so
``parse(canonical(parse(s)))`` is a fixed point and recorded specs replay
byte-for-byte.

Everything raises :class:`~repro.exceptions.SpecError` on malformed input;
messages start with ``unknown strategy`` for unknown names so callers
migrating from the old registry keep their error handling.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.exceptions import SpecError

__all__ = [
    "OptionSpec",
    "MapperKind",
    "MAPPER_KINDS",
    "STRATEGY_SPECS",
    "parse_mapper_spec",
    "canonical_mapper_spec",
    "mapper_from_spec",
    "describe_mappers",
]


# --------------------------------------------------------------------- values
def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SpecError(f"expected an integer, got {text!r}") from exc


def _parse_positive_int(text: str) -> int:
    value = _parse_int(text)
    if value < 1:
        raise SpecError(f"expected a positive integer, got {text!r}")
    return value


def _parse_nonnegative_int(text: str) -> int:
    value = _parse_int(text)
    if value < 0:
        raise SpecError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_levels(text: str) -> object:
    if text.strip().lower() == "auto":
        return "auto"
    return _parse_positive_int(text)


def _parse_flag(text: str) -> bool:
    low = text.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise SpecError(f"expected on/off, got {text!r}")


@dataclass(frozen=True)
class OptionSpec:
    """One accepted ``key=value`` option of a mapper kind."""

    name: str
    doc: str
    default: str
    #: raw string -> parsed value; raises SpecError on bad input.
    parse: Callable[[str], object] = field(repr=False)
    #: closed vocabulary, when there is one (documentation + validation).
    choices: tuple[str, ...] | None = None
    #: parsed value -> canonical string (identity-ish by default).
    canon: Callable[[object], str] = field(default=str, repr=False)

    def parse_value(self, text: str) -> object:
        text = text.strip()
        if self.choices is not None:
            low = text.lower()
            if low not in self.choices:
                raise SpecError(
                    f"bad value {text!r} for option {self.name!r}; "
                    f"expected one of {self.choices}"
                )
            return low
        try:
            return self.parse(text)
        except SpecError as exc:
            raise SpecError(f"bad value for option {self.name!r}: {exc}") from None


def _choice(name: str, doc: str, default: str, *choices: str) -> OptionSpec:
    return OptionSpec(name, doc, default, parse=str, choices=choices)


def _int_opt(name: str, doc: str, default: str) -> OptionSpec:
    return OptionSpec(name, doc, default, parse=_parse_positive_int)


def _flag_opt(name: str, doc: str, default: str) -> OptionSpec:
    return OptionSpec(
        name, doc, default, parse=_parse_flag,
        canon=lambda v: "on" if v else "off",
    )


def _parse_nested(text: str) -> "ParsedSpec":
    # A nested value is a mapper spec whose separators are ',' instead of
    # ':'/';' (e.g. ``topolb,order=3``), so it can sit inside the enclosing
    # spec's own option list. The explicit ':' form is accepted too.
    text = text.strip()
    if ":" in text:
        inner = text.replace(",", ";")
    else:
        head, sep, rest = text.partition(",")
        inner = head + (":" + rest.replace(",", ";") if sep else "")
    return parse_mapper_spec(inner)


def _canon_nested(parsed: object) -> str:
    return parsed.canonical.replace(":", ",").replace(";", ",")


def _nested_opt(name: str, doc: str, default: str) -> OptionSpec:
    # The value is itself a mapper spec; parse eagerly so errors surface at
    # parse time, canonicalize recursively.
    return OptionSpec(name, doc, default, parse=_parse_nested, canon=_canon_nested)


# ---------------------------------------------------------------------- kinds
@dataclass(frozen=True)
class ParsedSpec:
    """A validated mapper spec: kind + explicitly-given options."""

    kind: str
    options: dict[str, object]
    canonical: str

    def build(self, seed: int | None = None, kernel: str | None = None):
        """Instantiate the mapper (see :func:`mapper_from_spec`).

        ``kernel`` (``None`` = the production kernel) reaches every mapper
        the spec builds, nested ones included. Only the full-tier
        ``kernel-differential`` oracle and the tests pass ``"reference"``.
        """
        from repro.mapping.kernels import resolve_kernel

        return MAPPER_KINDS[self.kind].build(
            self.options, seed, resolve_kernel(kernel)
        )


@dataclass(frozen=True)
class MapperKind:
    """A registered mapper kind: its options and its builder."""

    kind: str
    doc: str
    options: tuple[OptionSpec, ...]
    #: (parsed options, seed, kernel) -> Mapper. Seed conventions match the
    #: old runtime registry exactly (bit-for-bit): mappers that used
    #: ``seed or 0`` still do, RandomMapper still takes the raw seed. The
    #: kernel is the build argument, passed on to every mapper built inside
    #: this one.
    build: Callable[[dict[str, object], int | None, str], object] = field(
        repr=False
    )

    def option(self, name: str) -> OptionSpec:
        for opt in self.options:
            if opt.name == name:
                return opt
        raise SpecError(
            f"unknown option {name!r} for mapper kind {self.kind!r}; "
            f"accepted: {tuple(o.name for o in self.options) or '(none)'}"
        )


def _build_random(opts, seed, kernel):
    from repro.mapping.random_map import RandomMapper

    return RandomMapper(seed=seed)


def _build_identity(opts, seed, kernel):
    from repro.mapping.random_map import IdentityMapper

    return IdentityMapper()


def _build_topolb(opts, seed, kernel):
    from repro.mapping.estimation import EstimatorOrder
    from repro.mapping.topolb import TopoLB

    return TopoLB(
        order=EstimatorOrder(int(opts.get("order", 2))),
        selection=str(opts.get("selection", "gain")),
        kernel=kernel,
    )


def _build_topocentlb(opts, seed, kernel):
    from repro.mapping.topocentlb import TopoCentLB

    return TopoCentLB(kernel=kernel)


def _build_refine(opts, seed, kernel):
    from repro.mapping.refine import RefineTopoLB

    base = opts.get("base")
    return RefineTopoLB(
        base=base.build(seed, kernel) if base is not None else None,
        max_sweeps=int(opts.get("passes", 10)),
        seed=seed or 0,
        kernel=kernel,
    )


def _build_anneal(opts, seed, kernel):
    from repro.mapping.annealing import SimulatedAnnealingMapper

    return SimulatedAnnealingMapper(
        steps=int(opts.get("steps", 20_000)), seed=seed or 0
    )


def _build_recursive(opts, seed, kernel):
    from repro.mapping.recursive_embedding import RecursiveEmbeddingMapper

    return RecursiveEmbeddingMapper(seed=seed or 0)


def _build_linear(opts, seed, kernel):
    from repro.mapping.linear_order import LinearOrderingMapper

    return LinearOrderingMapper()


def _build_hybrid(opts, seed, kernel):
    from repro.mapping.hybrid import HybridTopoLB

    return HybridTopoLB(
        num_blocks=int(opts.get("blocks", 8)), seed=seed or 0, kernel=kernel
    )


def _build_pipeline(opts, seed, kernel):
    from repro.mapping.pipeline import TwoPhaseMapper
    from repro.mapping.refine import RefineTopoLB

    if opts.get("partitioner") == "greedy":
        from repro.partition.greedy import GreedyPartitioner

        partitioner = GreedyPartitioner()
    else:
        from repro.partition.multilevel import MultilevelPartitioner

        partitioner = MultilevelPartitioner()
    inner = opts.get("inner")
    if inner is not None:
        mapper = inner.build(seed, kernel)
    else:
        from repro.mapping.estimation import EstimatorOrder
        from repro.mapping.topolb import TopoLB

        mapper = TopoLB(order=EstimatorOrder.SECOND, kernel=kernel)
    refiner = (
        RefineTopoLB(seed=seed or 0, kernel=kernel)
        if opts.get("refine") else None
    )
    return TwoPhaseMapper(partitioner=partitioner, mapper=mapper, refiner=refiner)


def _build_multilevel(opts, seed, kernel):
    from repro.mapping.hierarchical import HierarchicalMapper

    inner = opts.get("inner")
    return HierarchicalMapper(
        inner=inner.build(seed, kernel) if inner is not None else None,
        levels=opts.get("levels", "auto"),
        refine_window=int(opts.get("refine_window", 2)),
        stop=int(opts.get("stop", 1024)),
        seed=seed or 0,
        kernel=kernel,
    )


#: kind -> MapperKind. Option order here *is* canonical order.
MAPPER_KINDS: dict[str, MapperKind] = {
    kind.kind: kind
    for kind in (
        MapperKind(
            "random", "uniformly random placement (the paper's baseline)",
            (), _build_random,
        ),
        MapperKind(
            "identity", "task i on processor i (control row)",
            (), _build_identity,
        ),
        MapperKind(
            "topolb", "the paper's TopoLB heuristic (Algorithm 1)",
            (
                _choice("order", "estimation-function order (Section 4.3)",
                        "2", "1", "2", "3"),
                _choice("selection", "per-cycle task-selection rule",
                        "gain", "gain", "max_cost", "volume"),
            ),
            _build_topolb,
        ),
        MapperKind(
            "topocentlb", "Baba et al.'s greedy placed-volume heuristic",
            (), _build_topocentlb,
        ),
        MapperKind(
            "refine", "RefineTopoLB pairwise-swap refiner (Section 5.2.3)",
            (
                _nested_opt("base", "mapper producing the initial mapping "
                            "(a spec with ',' separators)", "none"),
                _int_opt("passes", "maximum full sweeps over the tasks", "10"),
            ),
            _build_refine,
        ),
        MapperKind(
            "anneal", "simulated-annealing mapper",
            (_int_opt("steps", "annealing steps", "20000"),),
            _build_anneal,
        ),
        MapperKind(
            "recursive", "recursive graph-bisection embedding",
            (), _build_recursive,
        ),
        MapperKind(
            "linear", "space-filling linear-ordering mapper",
            (), _build_linear,
        ),
        MapperKind(
            "hybrid", "blocked hybrid TopoLB",
            (_int_opt("blocks", "number of blocks", "8"),),
            _build_hybrid,
        ),
        MapperKind(
            "pipeline", "partition -> coalesce -> map -> (refine) -> expand",
            (
                _choice("partitioner", "phase-1 partitioner",
                        "multilevel", "multilevel", "greedy"),
                _nested_opt("inner", "phase-2 mapper "
                            "(a spec with ',' separators)", "topolb"),
                _flag_opt("refine", "apply RefineTopoLB to the group mapping",
                          "off"),
            ),
            _build_pipeline,
        ),
        MapperKind(
            "multilevel", "hierarchical coarsen -> map -> uncoarsen mapper "
            "for machines beyond the dense-table limit",
            (
                _nested_opt("inner", "coarsest-level mapper "
                            "(a spec with ',' separators)", "topolb"),
                OptionSpec("levels", "machine-coarsening level cap, or auto",
                           "auto", parse=_parse_levels),
                OptionSpec("refine_window",
                           "RefineTopoLB sweeps per uncoarsening level "
                           "(0 disables)", "2", parse=_parse_nonnegative_int),
                _int_opt("stop", "machine size the inner mapper runs at",
                         "1024"),
            ),
            _build_multilevel,
        ),
    )
}


#: Charm++ strategy name -> canonical spec string. These stay the public
#: names on the CLI and in reports; each is nothing but a spelling of a spec.
STRATEGY_SPECS: dict[str, str] = {
    "RandomLB": "pipeline:inner=random",
    "GreedyLB": "pipeline:partitioner=greedy;inner=random",
    "TopoCentLB": "pipeline:inner=topocentlb",
    "TopoLB": "pipeline:inner=topolb",
    "TopoLB1": "pipeline:inner=topolb,order=1",
    "TopoLB3": "pipeline:inner=topolb,order=3",
    "RefineTopoLB": "pipeline:inner=topolb;refine=on",
    "RefineTopoLB3": "pipeline:inner=topolb,order=3;refine=on",
    "AnnealLB": "pipeline:inner=anneal",
    "RecursiveEmbedLB": "pipeline:inner=recursive",
    "LinearOrderLB": "pipeline:inner=linear",
    "HybridTopoLB": "pipeline:inner=hybrid",
    "MultilevelLB": "multilevel:inner=topolb",
}


# -------------------------------------------------------------------- parsing
def parse_mapper_spec(spec: str) -> ParsedSpec:
    """Parse and validate a mapper spec (or strategy alias) string.

    Returns a :class:`ParsedSpec` whose ``canonical`` field round-trips:
    parsing it again yields an equal spec.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise SpecError(f"mapper spec must be a non-empty string, got {spec!r}")
    spec = spec.strip()
    alias = STRATEGY_SPECS.get(spec)
    if alias is not None:
        return parse_mapper_spec(alias)

    kind_text, _, params = spec.partition(":")
    kind_name = kind_text.strip().lower()
    kind = MAPPER_KINDS.get(kind_name)
    if kind is None:
        raise SpecError(
            f"unknown strategy or mapper kind {kind_text.strip()!r}; "
            f"strategies: {sorted(STRATEGY_SPECS)}; "
            f"kinds: {sorted(MAPPER_KINDS)}"
        )

    options: dict[str, object] = {}
    for item in params.split(";"):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        if not sep:
            raise SpecError(
                f"bad option {item!r} in {spec!r}; expected key=value"
            )
        opt = kind.option(key)  # raises SpecError on unknown keys
        if key in options:
            raise SpecError(f"duplicate option {key!r} in {spec!r}")
        options[key] = opt.parse_value(value)

    canonical = kind_name
    given = [opt for opt in kind.options if opt.name in options]
    if given:
        canonical += ":" + ";".join(
            f"{opt.name}={opt.canon(options[opt.name])}" for opt in given
        )
    return ParsedSpec(kind_name, options, canonical)


def canonical_mapper_spec(spec: str) -> str:
    """The canonical spelling of ``spec`` (aliases expand to their spec)."""
    return parse_mapper_spec(spec).canonical


def mapper_from_spec(spec: str, seed: int | None = None):
    """Build a mapper from a spec string or Charm++ strategy alias.

    The single resolution path: the CLI, the experiment scripts, the runtime
    registry, and :class:`repro.engine.MappingEngine` all end up here.
    """
    return parse_mapper_spec(spec).build(seed)


def describe_mappers() -> list[str]:
    """Human-readable registry listing for ``repro-map --list-strategies``."""
    lines = ["strategies (aliases, usable anywhere a spec is):"]
    for name in sorted(STRATEGY_SPECS):
        lines.append(f"  {name:<18} = {STRATEGY_SPECS[name]}")
    lines.append("")
    lines.append("mapper kinds (spec grammar: kind[:key=value;key=value...]):")
    for kind_name in sorted(MAPPER_KINDS):
        kind = MAPPER_KINDS[kind_name]
        lines.append(f"  {kind_name:<12} {kind.doc}")
        for opt in kind.options:
            vocab = "|".join(opt.choices) if opt.choices else "<value>"
            lines.append(
                f"      {opt.name}={vocab}  (default {opt.default}) — {opt.doc}"
            )
    return lines
