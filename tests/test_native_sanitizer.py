"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer,
and under the compiler's warnings.

A subprocess that preloads ``libasan`` builds both C files with
``-fsanitize=address,undefined`` into a temporary directory, installs that
build as the process's kernels, and runs the tests that drive every compiled
entry point: the 16 DES digests on the compiled body, the DES differential
at benchmark scale and on random small closed loops (a fixed small number
of examples), the closed loop that ends in final drops, the event queue's
cases (one instant, a drained and refilled instant, exact times, many live
instants, bounded runs, a clock that overflows), and subsets of the
mapper and partitioner equivalence suites, and the differential tests of
the phase-1 entry points, of the flow estimator's grid link loads, of
TopoLB's and TopoCentLB's cycle loops and of RefineTopoLB's cost table and
sweep, on int32 tables, on their float64 copies, on fractional metrics and
on grid machines' per-axis tables (with the grid kind's argument checks),
and of the sweep over an int32 cost table against its float64 copy (with
the dtype choice and the cost table's argument checks). An
out-of-bounds access or undefined behaviour aborts the run with the
sanitizer's report, which names the file and line. A second build, with the
production flags plus ``-Wall -Wextra -Werror``, fails on any warning.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mapping import _native

ROOT = Path(__file__).resolve().parents[1]

#: The DES differential's examples in the sanitized run.
EXAMPLES = 8

#: -O0 keeps the instrumented build fast to compile; -g1 gives the reports
#: their file:line.
SANITIZE = ("-O0", "-g1", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")

TESTS = ["tests/netsim/test_des_digest.py", "tests/netsim/test_des_kernel.py",
         "tests/netsim/test_des_differential.py",
         "tests/mapping/test_kernel_equivalence.py",
         "tests/partition/test_partition_equivalence.py",
         "tests/netsim/test_flow.py"]
SELECT = ("(des_digest and not reference) or (bodies_agree and seed1)"
          " or closed_loops or once_per_final_drop"
          " or (kernel_equivalence and gain and torus8x4x4)"
          " or (ThirdOrderPaths and (underfull or lane))"
          " or (RefineEquivalence and incremental) or sparse_random_phase1"
          " or compiled_bisector or compiled_refine_pass"
          " or compiled_recursion or compiled_link_loads"
          " or topocent or refine_random or refine_sweeper"
          " or int32_table or grid_kind or bad_grids"
          " or int32_cost or CostTableDtype or bad_cost_tables"
          " or QueueByInstant or overflowing_clock")

SCRIPT = """
import sys

import pytest
from hypothesis import settings

from repro.mapping import _native

# Caps the DES differential at a fixed small example count.
settings.register_profile("sanitized", max_examples={examples})
settings.load_profile("sanitized")

_native._cached = _native._build({flags!r}, outdir={outdir!r})
sys.exit(pytest.main({args!r}))
"""


def _libasan() -> str | None:
    cc = _native._compiler()
    if cc is None:
        return None
    path = subprocess.run([cc, "-print-file-name=libasan.so"],
                          capture_output=True, text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


@pytest.mark.skipif(_libasan() is None, reason="no libasan for the compiler")
def test_compiled_kernels_are_clean_under_asan_and_ubsan(tmp_path):
    # --capture=sys leaves fd 2 alone, so a sanitizer's report reaches us.
    args = ["-x", "-p", "no:cacheprovider", "--capture=sys", *TESTS,
            "-k", SELECT]
    code = SCRIPT.format(flags=SANITIZE, outdir=str(tmp_path), args=args,
                         examples=EXAMPLES)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_NATIVE"}
    env.update(LD_PRELOAD=_libasan(), ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    report = (run.stdout + run.stderr)[-6000:]
    assert run.returncode == 0, report
    assert " passed" in run.stdout and "deselected" in run.stdout, report


@pytest.mark.skipif(_native._compiler() is None, reason="no C compiler")
def test_compiled_kernels_build_without_warnings(tmp_path):
    """Both C files compile with the production flags, whose -O3 flow
    analysis finds maybe-uninitialized reads, under -Wall -Wextra -Werror;
    a warning fails the build with the compiler's message."""
    _native._build(("-Wall", "-Wextra", "-Werror"), outdir=str(tmp_path))
