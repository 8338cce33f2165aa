"""Spec-string registry tests: grammar, errors, canonicalization."""

import pytest

from repro.engine import (
    MAPPER_KINDS,
    STRATEGY_SPECS,
    canonical_mapper_spec,
    describe_mappers,
    mapper_from_spec,
    parse_mapper_spec,
)
from repro.exceptions import SpecError


ROUND_TRIP_SPECS = [
    "random",
    "identity",
    "topolb",
    "topolb:order=3",
    "topolb:order=1;selection=max_cost",
    "topocentlb",
    "refine:passes=3",
    "refine:base=topocentlb;passes=3",
    "refine:base=topolb,order=3;passes=2",
    "anneal:steps=500",
    "recursive",
    "linear",
    "hybrid:blocks=4",
    "pipeline:inner=topolb",
    "pipeline:partitioner=greedy;inner=random",
    "pipeline:inner=topolb,order=3;refine=on",
    "multilevel",
    "multilevel:inner=topolb;levels=auto",
    "multilevel:inner=topolb,order=3;levels=3;stop=16",
]


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
def test_canonical_is_fixed_point(spec):
    canonical = canonical_mapper_spec(spec)
    assert canonical_mapper_spec(canonical) == canonical
    # and the canonical form parses back to the same kind/options
    a, b = parse_mapper_spec(spec), parse_mapper_spec(canonical)
    assert a.kind == b.kind
    assert a.canonical == b.canonical


#: Spellings the registry does not accept: no ``genetic`` kind, no
#: ``aggregate=`` or ``dtype=`` option, and options of the enclosing kind
#: follow a ';', never a ',' inside a nested value.
REJECTED_SPECS = [
    "genetic:population=10;generations=5",
    "multilevel:inner=topolb,levels=auto",
    "multilevel:inner=topolb,order=3,levels=2,refine_window=1",
    "multilevel:aggregate=mean;stop=64;kernel=reference",
    "topolb:dtype=float32",
]


@pytest.mark.parametrize("spec", REJECTED_SPECS)
def test_rejected_spec_raises_spec_error(spec):
    with pytest.raises(SpecError):
        parse_mapper_spec(spec)


@pytest.mark.parametrize("spec", [
    "topolb:kernel=reference",
    "refine:passes=2;kernel=vectorized",
    "multilevel:kernel=reference",
    "refine:base=topolb,kernel=reference",
    "pipeline:inner=topolb,kernel=reference",
])
def test_kernel_is_not_a_spec_option(spec):
    """The mapper picks its own kernel; no spec can."""
    with pytest.raises(SpecError, match=r"unknown option 'kernel'.*accepted"):
        parse_mapper_spec(spec)


def test_registry_contents_are_pinned():
    assert sorted(MAPPER_KINDS) == [
        "anneal", "hybrid", "identity", "linear", "multilevel",
        "pipeline", "random", "recursive", "refine", "topocentlb",
        "topolb",
    ]
    assert sorted(STRATEGY_SPECS) == [
        "AnnealLB", "GreedyLB", "HybridTopoLB", "LinearOrderLB",
        "MultilevelLB", "RandomLB", "RecursiveEmbedLB", "RefineTopoLB",
        "RefineTopoLB3", "TopoCentLB", "TopoLB", "TopoLB1", "TopoLB3",
    ]


@pytest.mark.parametrize("alias", sorted(STRATEGY_SPECS))
def test_alias_expands_to_its_spec(alias):
    assert canonical_mapper_spec(alias) == canonical_mapper_spec(
        STRATEGY_SPECS[alias]
    )


def test_whitespace_and_case_are_normalized():
    assert canonical_mapper_spec("  TOPOLB : Order = 3 ") == "topolb:order=3"


def test_unknown_kind_mentions_strategies_and_kinds():
    with pytest.raises(SpecError, match="unknown strategy"):
        parse_mapper_spec("MagicLB")


def test_unknown_option_key():
    with pytest.raises(SpecError, match="unknown option"):
        parse_mapper_spec("topolb:wat=1")


def test_bad_option_value():
    with pytest.raises(SpecError, match="bad value"):
        parse_mapper_spec("topolb:order=seven")
    with pytest.raises(SpecError, match="bad value"):
        parse_mapper_spec("refine:passes=-1")
    with pytest.raises(SpecError, match="bad value"):
        parse_mapper_spec("topolb:selection=best")


def test_duplicate_option_rejected():
    with pytest.raises(SpecError, match="duplicate option"):
        parse_mapper_spec("topolb:order=2;order=3")


def test_missing_equals_rejected():
    with pytest.raises(SpecError, match="expected key=value"):
        parse_mapper_spec("topolb:order")


def test_empty_spec_rejected():
    with pytest.raises(SpecError):
        parse_mapper_spec("")
    with pytest.raises(SpecError):
        parse_mapper_spec("   ")


def test_nested_spec_errors_surface_at_parse_time():
    with pytest.raises(SpecError, match="unknown strategy"):
        parse_mapper_spec("pipeline:inner=nosuchmapper")
    with pytest.raises(SpecError, match="bad value for option"):
        parse_mapper_spec("refine:base=topolb,order=nine")


def test_nested_colon_form_accepted():
    # `inner=topolb:order=3` (with ':') means the same as the ',' form.
    a = canonical_mapper_spec("pipeline:inner=topolb:order=3")
    b = canonical_mapper_spec("pipeline:inner=topolb,order=3")
    assert a == b == "pipeline:inner=topolb,order=3"


def test_describe_mappers_covers_everything():
    text = "\n".join(describe_mappers())
    for alias in STRATEGY_SPECS:
        assert alias in text
    for kind in MAPPER_KINDS:
        assert kind in text


def test_mapper_from_spec_builds_every_kind():
    from repro.mapping.base import Mapper

    for kind in MAPPER_KINDS:
        assert isinstance(mapper_from_spec(kind, seed=0), Mapper)
    for alias in STRATEGY_SPECS:
        assert isinstance(mapper_from_spec(alias, seed=0), Mapper)
