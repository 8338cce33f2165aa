"""repro.obs — observability for the mapping and simulation hot layers.

Counters and phase timers with a zero-overhead disabled path, plus the
``repro-profile-v1`` JSON artifact that captures one run's telemetry in a
stable, schema-validated form.

Typical use::

    from repro import obs

    with obs.profiled() as prof:
        TopoLB().map(graph, topology)
    print(prof.counters["topolb.cycles"])

    profile = obs.build_profile(prof, command="my-experiment")
    obs.save_profile(profile, "BENCH_topolb.json")

Instrumented call sites fetch ``obs.active()`` once; when it is ``None``
(the default) they skip all accounting, so an un-profiled run pays nothing.
See ``docs/OBSERVABILITY.md`` for the counter/timer name registry and the
profile schema.
"""

from repro.obs.core import (
    Profiler,
    active,
    count,
    disable,
    enable,
    profiled,
    timer,
)
from repro.obs.profile import (
    PROFILE_FORMAT,
    PROFILE_SCHEMA,
    build_profile,
    load_profile,
    save_profile,
    summarize_profile,
    validate_profile,
)

__all__ = [
    "Profiler",
    "active",
    "enable",
    "disable",
    "profiled",
    "count",
    "timer",
    "PROFILE_FORMAT",
    "PROFILE_SCHEMA",
    "build_profile",
    "validate_profile",
    "save_profile",
    "load_profile",
    "summarize_profile",
]
