"""repro.validate — differential validation of mappings and metrics.

The paper's entire argument rests on one number (hop-bytes, Section 3), and
the repo now computes it along four independent paths: the scalar reference
kernels, the vectorized kernels, the shared
:meth:`~repro.mapping.context.MappingContext.metrics` block, and the
per-object :attr:`~repro.mapping.base.Mapping.hop_bytes`. This package
cross-checks them continuously — the differential/metamorphic oracle layer
SimGrid-class simulators use to keep metric implementations honest:

* **invariant checkers** (``cheap`` tier) — structural facts every mapping
  must satisfy: assignment bounds, injectivity when ``n <= p``, the
  per-task additivity identity
  ``per_task_hop_bytes.sum()/2 == hop_bytes``, and
  ``hop_bytes >= hop_bytes_lower_bound``;
* **differential oracles** (``full`` tier) — independent implementations
  must agree bit-for-bit: vectorized vs ``reference`` kernels, spec-built vs
  canonically-rebuilt mappers, ``metrics_block`` vs the standalone
  :mod:`repro.mapping.metrics` functions, :class:`~repro.topology.SubTopology`
  distances vs a parent-metric recomputation, and per-link loads summing to
  hop-bytes on route-capable machines;
* **metamorphic properties** (``full`` tier) — transformations with known
  effect on the metric: task relabeling permutes assignments but preserves
  hop-bytes, doubling every edge weight exactly doubles hop-bytes, and a
  torus axis rotation leaves the metric bit-identical;
* a **golden-regression corpus** (``tests/golden/*.json``) of small
  graph x topology x mapper triples with exact pinned metric blocks, checked
  by the ``repro-validate`` CLI and the tier-1 test suite.

Every violation raises a structured
:class:`~repro.exceptions.ValidationError` naming the invariant, the spec
context, and a replayable ``repro-validate`` command. The engine enforces a
level per request: ``MappingRequest(validate="off"|"cheap"|"full")``.

See ``docs/VALIDATION.md`` for the tier definitions and the golden format.
"""

from repro.exceptions import ValidationError
from repro.validate.core import (
    VALIDATION_LEVELS,
    CheckResult,
    ValidationReport,
    replay_command,
    validate_mapping,
)
from repro.validate.golden import (
    GOLDEN_FORMAT,
    check_golden,
    iter_golden_paths,
    load_golden,
    write_golden,
)

__all__ = [
    "ValidationError",
    "VALIDATION_LEVELS",
    "CheckResult",
    "ValidationReport",
    "replay_command",
    "validate_mapping",
    "GOLDEN_FORMAT",
    "check_golden",
    "iter_golden_paths",
    "load_golden",
    "write_golden",
]
