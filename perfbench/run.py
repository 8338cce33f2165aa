"""Run one benchmark workload against the program in ``src/``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload leanmd_pipeline --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs half the time untraced and half with spans around each
layer's entry point (see ``perfbench/tracing.py``) and the program's own
``repro.obs`` counters on, and reports the per-layer metrics, the span
table and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 1 when any output check failed and 2 when the program cannot be
found or imported.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is repeated this many times per run; ``setup_s`` takes the median.
SETUP_REPEATS = 3


def _prepare(root: Path) -> None:
    """Point imports at ``root/src`` and keep every build output in the checkout."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    build = root / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(build / "native")
    os.environ["TMPDIR"] = str(build / "tmp")
    sys.path[:0] = [str(src), str(root)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _untraced(wl, seconds, setup_s):
    from perfbench import measure, report, tracing

    leftover = tracing.wrapped_names()
    if leftover:
        raise RuntimeError(f"span wrappers still installed: {leftover}")
    window = wl.run(seconds, wl.quality_n)
    rss = measure.peak_rss_mb()
    wl.check(window)
    return [window], report.end_to_end(wl, window, setup_s, rss)


def _traced(wl, seconds):
    from repro import obs

    from perfbench import report, tracing, workloads

    serves_http = isinstance(wl, workloads.ServiceDup80)
    base = wl.run(seconds / 2, 1)
    if serves_http:
        wl.setup()  # the traced half starts from an empty cache too
    tracer = tracing.Tracer()
    prof = obs.enable()
    try:
        with tracing.install(tracer):
            window = wl.run(seconds / 2, 1)
    finally:
        obs.disable()
    leftover = tracing.wrapped_names()
    if leftover:
        raise RuntimeError(f"span wrappers not removed: {leftover}")
    extra, service_timers = {}, {}
    if serves_http:
        doc = wl.metrics()
        for key in ("coalesced", "rejected", "queue_depth_max"):
            extra[f"service.{key}"] = doc["counters"].get(f"service.{key}", 0)
        service_timers = doc["timers"]
    wl.check(base)
    wl.check(window)
    extra["trace.overhead_ms"] = (window.class_p50() - base.class_p50()) * 1e3
    if "hit_ratio" in window.extra:
        extra["cache.hit_ratio"] = window.extra["hit_ratio"]
    if "overhead_s" in base.extra:
        extra["service.overhead_ms"] = base.extra["overhead_s"] * 1e3
    metrics = report.per_layer(
        tracer.spans, prof.counters, len(window.outcomes), extra)
    lines = ["spans (traced half):", *report.span_table(tracer.spans)]
    levels = report.level_table(tracer.spans)
    if levels:
        lines += ["multilevel phases by level:", *levels]
    lines.append("repro.obs timers (flat; nested phases double-count):")
    lines += [
        f"  {name:<28} total {total:9.4f} s"
        for name, (total, _) in sorted(prof.timers.items())
    ]
    if service_timers:
        lines.append("daemon timers from GET /metrics (traced half):")
        lines += [
            f"  {name:<28} calls {cell['count']:>6}  total {cell['total_s']:9.4f} s"
            for name, cell in sorted(service_timers.items())
        ]
    return [base, window], metrics, lines


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare(ROOT)
    try:
        import repro
        from perfbench import measure, report, workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    probe = measure.Probe()
    import_scale = measure.PROBE_REF_S / probe.seconds()
    t0 = time.perf_counter()
    workloads.native_kernel_ready()
    native_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload](args.seed, probe)
    reps = []
    try:
        before = probe.seconds()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            spent = time.perf_counter() - t0
            after = probe.seconds()
            reps.append(spent * probe.scale(before, after))
            before = after
        setup_s = (import_s + native_s) * import_scale + statistics.median(reps)
        if args.trace:
            windows, metrics, lines = _traced(wl, args.seconds)
            names = report.PER_LAYER
        else:
            windows, metrics = _untraced(wl, args.seconds, setup_s)
            names, lines = report.END_TO_END, []
    finally:
        wl.close()

    outcomes = [o for w in windows for o in w.outcomes]
    failed = [o for o in outcomes if o.error is not None]
    head = f"{args.workload} seed={args.seed}"
    print(f"# {head} seconds={args.seconds:g} trace={args.trace}")
    print(f"# fingerprint {json.dumps(measure.fingerprint(), sort_keys=True)}")
    print(f"# setup (wall): import {import_s:.4f} s, native kernel "
          f"{native_s:.4f} s; inputs at reference speed "
          f"{', '.join(f'{r:.4f}' for r in reps)} s")
    units = {name: unit for name, unit, _ in names}
    for name, unit, _ in names:
        print(f"{args.workload:<16} {name:<28} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        for name, value, unit in report.extra_lines(wl, windows[0]):
            shown = value if isinstance(value, str) else f"{value:14.6g}"
            print(f"{args.workload:<16} {name:<28} {shown:>14} {unit}")
    for line in lines:
        print(line)
    for o in failed[:5]:
        print(f"check failed: request {o.index} ({o.kind}): {o.error}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
