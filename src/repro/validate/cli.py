"""``repro-validate`` — run the differential validation suite.

Two modes:

* **golden-corpus mode** — replay every pinned triple in a corpus directory
  (default ``tests/golden``) at the requested validation level, and fail on
  any invariant violation or golden drift (``full`` also rebuilds each
  mapper on the reference kernel)::

      repro-validate --golden tests/golden --validate full
      repro-validate --regenerate --golden tests/golden   # intentional only

* **single-run mode** — validate one spec-described mapping (this is the
  replay command every :class:`~repro.exceptions.ValidationError` embeds)::

      repro-validate --graph mesh2d:8x8 --topology torus:8x8 \
                     --mapper TopoLB --seed 0 --validate full

``--report`` writes a ``repro-validate-report-v1`` JSON artifact with one
record per file including the full violation text, so a red
replay ships its own diagnosis.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exceptions import ReproError, ValidationError

__all__ = ["main", "build_parser"]

REPORT_FORMAT = "repro-validate-report-v1"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-validate",
        description="Differential validation of mappings and metrics "
                    "(invariants, kernel/spec oracles, golden corpus)",
    )
    parser.add_argument("--golden", type=Path, default=None,
                        help="golden corpus directory or single file "
                             "(default: tests/golden when no --graph given)")
    parser.add_argument("--validate", choices=("cheap", "full"),
                        default="full", dest="level",
                        help="invariant tier to enforce (default: full)")
    parser.add_argument("--graph", help="graph spec for single-run mode, "
                                        "e.g. mesh2d:8x8;bytes=1024")
    parser.add_argument("--topology", help="topology spec, e.g. torus:8x8")
    parser.add_argument("--mapper", default="TopoLB",
                        help="mapper spec or strategy alias (single-run mode)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the golden corpus from current code "
                             "(intentional behaviour changes only)")
    parser.add_argument("--report", type=Path,
                        help="write a repro-validate-report-v1 JSON here")
    return parser


def _run_single(args, records: list[dict]) -> int:
    from repro.engine import MappingEngine, MappingRequest

    try:
        result = MappingEngine().run(MappingRequest(
            graph=args.graph, topology=args.topology, mapper=args.mapper,
            seed=args.seed, validate=args.level,
        ))
    except ValidationError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        records.append({"target": "single-run", "status": "violated",
                        "error": str(exc), "invariant": exc.invariant,
                        "replay": exc.replay})
        return 1
    records.append({"target": "single-run", "status": "ok",
                    "metrics": result.metrics})
    print(f"ok {args.mapper} on {args.topology}: "
          f"hop_bytes={result.metrics['hop_bytes']:g} "
          f"hops_per_byte={result.metrics['hops_per_byte']:g}")
    return 0


def _run_corpus(args, records: list[dict]) -> int:
    from repro.validate.golden import check_golden, iter_golden_paths

    root = args.golden if args.golden is not None else Path("tests/golden")
    paths = iter_golden_paths(root)
    if not paths:
        print(f"error: no golden files under {root}", file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            check_golden(path, level=args.level)
        except ValidationError as exc:
            print(f"FAIL {path} {exc}", file=sys.stderr)
            records.append({"target": str(path), "status": "violated",
                            "error": str(exc), "invariant": exc.invariant,
                            "replay": exc.replay})
            status = 1
            continue
        records.append({"target": str(path), "status": "ok"})
        print(f"ok {path}")
    return status


def _regenerate(args) -> int:
    from repro.validate.golden import iter_golden_paths, load_golden, write_golden

    root = args.golden if args.golden is not None else Path("tests/golden")
    paths = iter_golden_paths(root)
    if not paths:
        print(f"error: no golden files under {root}", file=sys.stderr)
        return 2
    for path in paths:
        doc = load_golden(path)
        write_golden(path, graph=doc["graph"], topology=doc["topology"],
                     mapper=doc["mapper"], seed=doc["seed"],
                     flow_metrics=doc.get("flow_metrics", False),
                     netsim=doc.get("netsim"))
        print(f"regenerated {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (1 on any violation)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.graph and args.golden:
        parser.error("--graph (single-run mode) and --golden are exclusive")
    if args.graph and not args.topology:
        parser.error("single-run mode needs both --graph and --topology")
    if args.regenerate and args.graph:
        parser.error("--regenerate applies to the golden corpus only")

    records: list[dict] = []
    try:
        if args.regenerate:
            return _regenerate(args)
        if args.graph:
            status = _run_single(args, records)
        else:
            status = _run_corpus(args, records)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    violations = sum(1 for r in records if r["status"] != "ok")
    print(f"{len(records) - violations}/{len(records)} validation passes ok "
          f"(level={args.level})")
    if args.report is not None:
        args.report.write_text(json.dumps({
            "format": REPORT_FORMAT,
            "level": args.level,
            "passes": len(records) - violations,
            "violations": violations,
            "records": records,
        }, indent=2) + "\n")
        print(f"report written to {args.report}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
