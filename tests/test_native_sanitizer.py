"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

A subprocess that preloads ``libasan`` builds both C files with
``-fsanitize=address,undefined`` into a temporary directory, installs that
build as the process's kernels, and runs the tests that drive every compiled
entry point: the 20 DES digests on the compiled body, the DES differential
at benchmark scale, and subsets of the mapper and partitioner equivalence
suites. An out-of-bounds access or undefined behaviour aborts the run with
the sanitizer's report, which names the file and line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mapping import _native

ROOT = Path(__file__).resolve().parents[1]

#: -O0 keeps the instrumented build fast to compile; -g1 gives the reports
#: their file:line.
SANITIZE = ("-O0", "-g1", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")

TESTS = ["tests/netsim/test_des_digest.py", "tests/netsim/test_des_kernel.py",
         "tests/mapping/test_kernel_equivalence.py",
         "tests/partition/test_partition_equivalence.py"]
SELECT = ("(des_digest and not reference) or (bodies_agree and seed1)"
          " or (kernel_equivalence and gain and torus8x4x4)"
          " or (RefineEquivalence and incremental) or sparse_random_phase1")

SCRIPT = """
import sys

import pytest

from repro.mapping import _native

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
    code = SCRIPT.format(flags=SANITIZE, outdir=str(tmp_path), args=args)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_NATIVE"}
    env.update(LD_PRELOAD=_libasan(), ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    report = (run.stdout + run.stderr)[-6000:]
    assert run.returncode == 0, report
    assert " passed" in run.stdout and "deselected" in run.stdout, report
