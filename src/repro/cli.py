"""``repro-map`` — command-line mapping of task graphs onto machines.

The tool a downstream user actually wants: feed it a task graph, a machine
spec, and a strategy name; get a placement JSON plus a quality report. One
invocation is one :class:`~repro.engine.MappingRequest` run through
:meth:`~repro.engine.MappingEngine.run`, so the report carries exactly the
engine's metrics: the canonical metrics block, the flow estimator's
``flow_*`` scalars and, with ``--simulate-iters N``, the DES replay's
``des_*`` scalars.

``--taskgraph`` takes a graph spec in the grammar of
:func:`repro.engine.graph_from_spec` (``file:app.json``, ``lbdump:dump.json``,
``mesh2d:8x8;bytes=1024``, ...); a value whose text before the first ``:``
is not a graph kind is a task-graph JSON path.

Examples::

    repro-map --taskgraph app.json --topology torus:8x8 --strategy TopoLB
    repro-map --taskgraph lbdump:dump.json --topology mesh:4x4x4 \\
              --strategy RefineTopoLB --output placement.json
    repro-map --taskgraph 'mesh2d:8x8;bytes=1024' --topology torus:8x8 \\
              --profile prof.json
    repro-map --stats prof.json
    repro-map --list-strategies

``--profile`` records per-phase wall times, mapper repair counters, and —
via a short network-simulator replay of the produced placement — per-link
load summaries, all written as a schema-validated ``repro-profile-v1``
artifact (see ``docs/OBSERVABILITY.md``). ``--stats`` renders such an
artifact as a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Map a task graph onto a machine topology (TopoLB et al.)",
    )
    parser.add_argument("--taskgraph",
                        help="graph spec, e.g. file:app.json, lbdump:dump.json "
                             "or mesh2d:8x8;bytes=1024; a plain path means "
                             "file:<path>")
    parser.add_argument("--topology", help="machine spec, e.g. torus:8x8x8")
    parser.add_argument("--strategy", default="TopoLB",
                        help="strategy name or mapper spec string, e.g. "
                             "TopoLB or pipeline:inner=topolb,order=3;refine=on "
                             "(see --list-strategies)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--output", type=Path,
                        help="write placement JSON here (default: stdout report only)")
    parser.add_argument("--profile", type=Path,
                        help="record telemetry and write a repro-profile-v1 JSON here")
    parser.add_argument("--simulate-iters", type=int, default=None,
                        help="replay N Jacobi-style iterations through the network "
                             "simulator (default: 1 when --profile is set, else 0)")
    parser.add_argument("--buffer-bytes", type=float, default=None,
                        metavar="BYTES",
                        help="finite per-link buffer capacity for the DES "
                             "replay (default: unbounded FIFO queues); a "
                             "full buffer tail-drops and the message is "
                             "retransmitted end-to-end")
    parser.add_argument("--stats", type=Path, metavar="PROFILE",
                        help="summarize an existing profile JSON and exit")
    parser.add_argument("--list-strategies", action="store_true",
                        help="print the unified mapper registry (strategy "
                             "aliases plus spec kinds and their options) and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_strategies:
        from repro.engine import describe_mappers

        try:
            print("\n".join(describe_mappers()))
        except BrokenPipeError:  # e.g. `repro-map --list-strategies | head`
            sys.stderr.close()
        return 0

    if args.stats is not None:
        from repro.obs import load_profile, summarize_profile

        try:
            print(summarize_profile(load_profile(args.stats)))
        except BrokenPipeError:  # e.g. `repro-map --stats ... | head`
            sys.stderr.close()
            return 0
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if not args.taskgraph or not args.topology:
        parser.error("--taskgraph and --topology are required "
                     "(or --list-strategies / --stats)")
    if args.simulate_iters is not None and args.simulate_iters < 0:
        parser.error("--simulate-iters must be >= 0")
    if args.buffer_bytes is not None and args.buffer_bytes <= 0:
        parser.error("--buffer-bytes must be positive")
    replays = args.simulate_iters
    if replays is None:
        replays = 1 if args.profile is not None else 0
    if args.buffer_bytes is not None and replays == 0:
        parser.error("--buffer-bytes needs a network replay "
                     "(--simulate-iters N > 0 or --profile)")

    try:
        report = run_mapping(
            _graph_spec(args.taskgraph), args.topology, args.strategy,
            args.seed, args.output, profile=args.profile,
            simulate_iters=replays, buffer_bytes=args.buffer_bytes,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    width = max(len(k) for k in report)
    for key, value in report.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{key.ljust(width)}  {shown}")
    return 0


def _graph_spec(value: str) -> str:
    """``--taskgraph`` as a graph spec: a value whose text before the first
    ``:`` is not a graph kind is a plain path, i.e. ``file:<value>``."""
    from repro.engine.core import GRAPH_KINDS

    kind, sep, _ = value.partition(":")
    if sep and kind.strip().lower() in GRAPH_KINDS:
        return value
    return f"file:{value}"


def run_mapping(graph: str, topology: str, strategy: str, seed: int,
                output: Path | None, profile: Path | None = None,
                simulate_iters: int = 0,
                buffer_bytes: float | None = None) -> dict:
    """Run one engine request; write the placement and profile if asked.

    Returns the report ``repro-map`` prints: the strategy, the problem size
    and every metric of the :class:`~repro.engine.MappingResult`.
    """
    from repro import obs
    from repro.engine import MappingEngine, MappingRequest

    netsim = None
    if simulate_iters > 0:
        netsim = {"iterations": simulate_iters}
        if buffer_bytes is not None:
            netsim["buffer_bytes"] = buffer_bytes
    result = MappingEngine().run(MappingRequest(
        graph=graph, topology=topology, mapper=strategy, seed=seed,
        flow_metrics=True, netsim=netsim, profile=profile is not None,
    ))
    report = {
        "strategy": strategy,
        "num_objects": result.metadata["num_objects"],
        "num_processors": result.metadata["num_processors"],
        **result.metrics,
    }

    if output is not None:
        output.write_text(json.dumps({
            "format": "repro-placement-v1",
            "strategy": strategy,
            "topology": topology,
            "placement": result.assignment.tolist(),
        }))
        report["placement_written"] = str(output)
    if profile is not None:
        obs.save_profile(result.profile, profile)
        report["profile_written"] = str(profile)
    return report


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
