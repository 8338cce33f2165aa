"""Command-line entry point: ``python -m repro.experiments <id> [--full]``.

Runs one (or all) of the paper-reproduction experiments and prints the
table/series the paper reports. ``--full`` switches from the seconds-scale
quick configurations to paper-scale sweeps; ``--json`` emits machine-
readable output; ``--profile PATH`` records per-experiment wall times plus
all mapper/netsim telemetry the run produced into a schema-validated
``repro-profile-v1`` artifact — the machine-readable baseline the
``BENCH_*.json`` trajectory consumes (see ``docs/OBSERVABILITY.md``).

``--jobs N`` fans independent experiments across a process pool. Each
worker runs with its own profiler; the parent folds the per-worker
snapshots into one artifact via :meth:`repro.obs.Profiler.merge`, so the
profile a parallel run writes has the same schema (and, up to scheduling
noise in the wall times, the same content) as a serial one. Reports are
printed in submission order regardless of completion order.

The runner is crash-resilient (see ``docs/ROBUSTNESS.md``): every
experiment runs exactly once through :func:`repro.utils.guard.guarded_call`,
which captures the failure with its traceback instead of letting one
crashed experiment abort the sweep. Experiments are seeded, so a failure
replays identically and is not retried. ``--keep-going`` finishes the
remaining experiments after a failure; ``--timeout S`` is a deadline inside
whichever process runs the experiment (the parent or a pool worker), so a
timed-out experiment really stops; ``--resume PATH`` reads a previous
``--profile`` artifact and re-executes only the experiments that did not
complete in it. Failures are recorded per experiment (status, error,
traceback) in the profile's ``context.experiment_status``, and the exit
code is nonzero whenever any experiment did not finish.

``--netsim-mode flow`` swaps the per-packet network simulator for the
static flow-level contention estimator (:mod:`repro.netsim.flow`) in
``fig7_8`` and ``fig9``, the two experiments that read the mode — orders of
magnitude faster, but makespans become lower bounds and per-message
latencies lose queueing delay. ``table1``, ``fig10_11``, ``flowcheck`` and
``tailcheck`` always run the DES. The ``flowcheck`` supplementary
experiment quantifies that trade on the small-machine suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback as traceback_module
from collections.abc import Callable
from pathlib import Path

from repro.exceptions import ProfileError
from repro.experiments import (
    fig01_02,
    fig03_04,
    fig05_06,
    fig07_08,
    fig09,
    fig10_11,
    supplementary,
    table1,
)
from repro.experiments.common import NETSIM_MODE_ENV, ExperimentResult
from repro.utils.guard import guarded_call

__all__ = ["main", "EXPERIMENTS", "PAPER_EXPERIMENTS", "ExperimentOutcome"]

#: the paper's artifacts: experiment id -> run(quick, seed) callable
PAPER_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "fig1_2": fig01_02.run,
    "fig3_4": fig03_04.run,
    "fig5": lambda quick=True, seed=0: fig05_06.run(quick=quick, seed=seed, ndim=2),
    "fig6": lambda quick=True, seed=0: fig05_06.run(quick=quick, seed=seed, ndim=3),
    "fig7_8": fig07_08.run,
    "fig9": fig09.run,
    "fig10_11": fig10_11.run,
}

#: everything runnable, including supplementary studies ("all" = paper only)
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    **PAPER_EXPERIMENTS,
    "zoo": supplementary.run_zoo,
    "bounds": supplementary.run_bounds,
    "objectives": supplementary.run_objectives,
    "scaling": supplementary.run_scaling,
    "flowcheck": supplementary.run_flowcheck,
    "tailcheck": supplementary.run_tailcheck,
}

#: Environment hook for fault-injection testing (CI exercises it): a
#: comma-separated list of experiment ids that raise instead of running.
FAIL_ENV = "REPRO_EXPERIMENTS_FAIL"


@dataclasses.dataclass
class ExperimentOutcome:
    """What happened to one experiment of a sweep."""

    exp_id: str
    status: str  # "ok" | "failed" | "timeout" | "skipped"
    result: ExperimentResult | None = None
    snapshot: dict | None = None
    error: str | None = None
    traceback: str | None = None
    resumed: bool = False  # ok carried over from a --resume profile


def _run_one(exp_id: str, quick: bool, seed: int, profiled: bool):
    """Worker body: run one experiment, return ``(result, snapshot | None)``.

    Module-level (not a closure) so a process pool can ship it by name; the
    experiment is looked up from :data:`EXPERIMENTS` inside the worker
    because several registry entries are lambdas, which do not pickle.
    """
    from repro import obs

    inject = os.environ.get(FAIL_ENV, "")
    if inject and exp_id in {part.strip() for part in inject.split(",")}:
        raise RuntimeError(
            f"injected failure for experiment {exp_id!r} (${FAIL_ENV})"
        )

    prof = obs.enable() if profiled else None
    try:
        with obs.timer(f"experiment.{exp_id}"):
            result = EXPERIMENTS[exp_id](quick=quick, seed=seed)
        return result, prof.snapshot() if prof is not None else None
    finally:
        if prof is not None:
            obs.disable()


def _load_completed(resume_path: Path) -> set[str]:
    """Experiment ids recorded as completed in a previous profile artifact."""
    from repro import obs

    doc = obs.load_profile(resume_path)
    status_map = (doc.get("context") or {}).get("experiment_status") or {}
    return {
        exp_id
        for exp_id, record in status_map.items()
        if isinstance(record, dict) and record.get("status") == "ok"
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (0 = every experiment ok)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the TopoLB paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale sweeps instead of quick configurations",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("--profile", type=Path,
                        help="record telemetry and write a repro-profile-v1 JSON here")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes (default: 1)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="wall-clock deadline per experiment, enforced "
                             "inside the process that runs it")
    parser.add_argument("--keep-going", action="store_true",
                        help="continue the sweep past a failed experiment "
                             "(failures are still reported and reflected in "
                             "the exit code)")
    parser.add_argument("--resume", type=Path, metavar="PROFILE",
                        help="skip experiments recorded as completed in a "
                             "previous --profile artifact")
    parser.add_argument("--netsim-mode", choices=("des", "flow"), default=None,
                        help="network evaluation for fig7_8 and fig9 (the "
                             "other simulator-backed experiments always run "
                             "the DES): 'des' replays per-packet, 'flow' "
                             "uses the static flow-level estimator (fast; "
                             "makespans are lower bounds — see "
                             "docs/ARCHITECTURE.md). Default: "
                             f"${NETSIM_MODE_ENV} or 'des'.")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.netsim_mode is not None:
        # Experiments read the mode from the environment (netsim_mode()), so
        # worker processes spawned by --jobs inherit it automatically.
        os.environ[NETSIM_MODE_ENV] = args.netsim_mode

    from repro import obs

    ids = list(PAPER_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    quick = not args.full
    prof = obs.Profiler() if args.profile is not None else None
    profiled = prof is not None

    outcomes: dict[str, ExperimentOutcome] = {}
    if args.resume is not None:
        try:
            completed = _load_completed(args.resume)
        except (ProfileError, OSError) as exc:
            parser.error(f"--resume {args.resume}: {exc}")
        for exp_id in ids:
            if exp_id in completed:
                outcomes[exp_id] = ExperimentOutcome(exp_id, "ok", resumed=True)
    to_run = [exp_id for exp_id in ids if exp_id not in outcomes]

    aborted = False
    pool, futures = None, {}
    if args.jobs > 1 and len(to_run) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(to_run)))
    try:
        if pool is not None:
            futures = {
                exp_id: pool.submit(guarded_call, _run_one, exp_id, quick,
                                    args.seed, profiled, timeout=args.timeout)
                for exp_id in to_run
            }
        for exp_id in to_run:
            if aborted:
                outcomes[exp_id] = ExperimentOutcome(
                    exp_id, "skipped",
                    error="not run: earlier experiment failed "
                          "(use --keep-going to finish the sweep)",
                )
                continue
            if pool is None:
                call = guarded_call(_run_one, exp_id, quick, args.seed,
                                    profiled, timeout=args.timeout)
            else:
                try:
                    call = futures[exp_id].result()
                except Exception as exc:  # noqa: BLE001 - dead worker, pickling
                    call = {
                        "ok": False,
                        "kind": type(exc).__name__,
                        "error": f"[{exp_id}] {type(exc).__name__}: {exc}",
                        "traceback": traceback_module.format_exc(),
                    }
            if call["ok"]:
                result, snap = call["value"]
                outcome = ExperimentOutcome(exp_id, "ok", result=result,
                                            snapshot=snap)
            else:
                status = "timeout" if call["kind"] == "timeout" else "failed"
                outcome = ExperimentOutcome(exp_id, status, error=call["error"],
                                            traceback=call["traceback"])
            outcomes[exp_id] = outcome
            if outcome.status != "ok" and not args.keep_going:
                aborted = True
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    # ---- report in submission order; merge telemetry deterministically ----
    failed_ids: list[str] = []
    for exp_id in ids:
        outcome = outcomes[exp_id]
        if outcome.status == "ok" and not outcome.resumed:
            print(outcome.result.to_json() if args.json else outcome.result.to_text())
            print()
            if prof is not None and outcome.snapshot is not None:
                prof.merge(outcome.snapshot)
        elif outcome.resumed:
            print(
                f"== {exp_id}: skipped (completed in {args.resume}) ==",
                file=sys.stderr,
            )
        else:
            failed_ids.append(exp_id)
            print(
                f"== {exp_id}: {outcome.status.upper()}: {outcome.error} ==",
                file=sys.stderr,
            )
            if outcome.traceback:
                print(outcome.traceback, file=sys.stderr)
    if failed_ids:
        print(f"failed experiments: {', '.join(failed_ids)}", file=sys.stderr)

    if prof is not None:
        experiment_status: dict[str, dict] = {}
        for exp_id in ids:
            outcome = outcomes[exp_id]
            record: dict = {"status": outcome.status}
            if outcome.resumed:
                record["resumed_from"] = str(args.resume)
            if outcome.error is not None:
                record["error"] = outcome.error
            if outcome.traceback is not None:
                record["traceback"] = outcome.traceback
            experiment_status[exp_id] = record
        doc = obs.build_profile(
            prof,
            command="repro-experiments " + " ".join(ids),
            context={
                "experiments": ids,
                "seed": args.seed,
                "quick": quick,
                "jobs": args.jobs,
                "experiment_status": experiment_status,
            },
        )
        obs.save_profile(doc, args.profile)
        print(f"profile written to {args.profile}", file=sys.stderr)
    return 1 if any(outcomes[e].status != "ok" for e in ids) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
