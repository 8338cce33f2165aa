"""Source guards: deletions and single paths that must stay that way.

Each test greps the package source for a pattern that a removed code path or
a bypass of the one sanctioned path would reintroduce. A match fails with the
offending ``path:line`` so the message says where to look.
"""

from __future__ import annotations

import functools
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _grep(pattern: str, *paths: str, suffix: str | None = None) -> list[str]:
    """``grep -rnE pattern paths`` over text files, relative to ``SRC``."""
    regex = re.compile(pattern)
    hits = []
    for rel in paths:
        root = SRC / rel
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if suffix is not None and path.suffix != suffix:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            for lineno, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}")
    return hits


class TestStrategyResolution:
    """The engine registry is the only strategy table."""

    def test_no_strategy_dict_outside_engine(self):
        hits = _grep(r"STRATEGIES\s*[:=]\s*\{", ".", suffix=".py")
        assert [h for h in hits if not h.startswith("repro/engine/")] == []

    def test_no_ad_hoc_strategy_dispatch(self):
        # Callers resolve strategies through mapper_from_spec directly.
        assert _grep(r"get_strategy|run_strategy", ".") == []

    def test_service_does_not_reach_into_experiments(self):
        # The service guards its work with repro.utils.guard, not the
        # experiment runner's internals.
        assert _grep(r"repro.experiments", "service") == []


def test_cli_and_lbsim_replay_go_through_engine():
    """repro-map, which is also the LBSim replay (``lbdump:`` specs), maps
    and measures through the engine: it replays no network, round-trips no
    LB database and assembles no profile of its own."""
    hits = _grep(
        r"metrics_block\(|NetworkSimulator\(|get_strategy\(",
        "cli.py",
    )
    hits += _grep(
        r"replay_closed_loop|flow_evaluate|build_profile|obs\.enable"
        r"|LBDatabase",
        "cli.py",
    )
    assert hits == []


def test_no_paths_that_no_paper_run_reaches():
    """Task graphs carry no coordinates, no mapper orders tasks along a
    space-filling curve, and an LB dump is replayed by the engine's
    ``lbdump:`` spec, not by a chare-array model or a wrapper of its own."""
    assert _grep(
        r"attach_coords|\bSFCMapper\b|\bChareArray\b|simulate_strategy"
        r"|compare_strategies",
        ".", suffix=".py",
    ) == []


@pytest.mark.parametrize("rel", ["experiments", "cli.py"])
def test_no_netsim_mode_knob(rel):
    """How a network is evaluated is not a process-global knob: no
    environment variable or mode switch picks the DES or the flow
    estimator."""
    assert _grep(r"REPRO_NETSIM_MODE|netsim_mode", rel) == []


@pytest.mark.parametrize("rel", ["netsim", "cli.py"])
def test_one_des_model(rel):
    """No credit flow control, no trace replayer, no per-request DES knobs,
    no ECN pacing, no store-and-forward links, no open-loop traffic
    generator and no collectives."""
    pattern = (
        r"credit|retry_timeout|saturation_depth|ecn_threshold"
        r"|TraceReplayer|jacobi_trace"
        r"|(?i:\becn\b)|\bOverloadPolicy\b|\bLinkModel\b"
        r"|\bstore_and_forward\b|\brun_open_loop\b|\ballreduce\b"
    )
    assert _grep(pattern, rel) == []


@pytest.mark.parametrize("rel", ["netsim", "mapping/_native.py", "runtime"])
def test_no_simulated_failures(rel):
    """The simulated machine stays healthy while it runs: no link or node
    fault injection in either DES body, and no node-failure schedule in the
    dynamic load-balancing driver."""
    pattern = (
        r"schedule_link_failure|schedule_node_failure|fail_link|fail_node"
        r"|faulted|des_fail|RC_FAULT|node_failures"
    )
    assert _grep(pattern, rel) == []


def test_no_degraded_machines():
    """The machines are pristine: no fault set, no degraded topology or
    ``degraded:`` spec, and no allowed-processor mask for a mapper to
    resolve. A mapper places n <= p tasks by its class, not by a mask."""
    pattern = r"DegradedTopology|FaultSet|resolve_allowed|allowed_mask|degraded:"
    assert _grep(pattern, ".") == []


def test_one_pool_supervisor():
    """Only ``repro.utils.pool`` holds a process pool, so no module grows a
    second copy of the broken-pool replacement."""
    hits = _grep(r"ProcessPoolExecutor|BrokenProcessPool", ".", suffix=".py")
    assert [h for h in hits if not h.startswith("repro/utils/pool.py:")] == []


def test_partitioner_walks_csr_lists():
    """Phase-1 loops read ``csr_lists``, not a per-vertex accessor call."""
    assert _grep(r"\.neighbors\(|\.neighbor_slice\(", "partition") == []


def test_no_addressable_heap():
    """TopoCentLB and LinearOrderLB select by a first-maximum scan over a
    key array; the addressable heap they used is deleted, and nothing
    imports it back."""
    assert not (SRC / "utils" / "priority_queue.py").exists()
    assert _grep(r"priority_queue|AddressableM(ax|in)Heap", ".") == []


#: The matrix products left in the result-deciding packages, by file: how
#: many ``@`` operators each holds, and why.
MATMUL_SITES = {
    # Dense BLAS products, to become ordered sums in ROADMAP item 22 step 2.
    "repro/mapping/topolb.py": (2, "TopoLB's free-set row sums"),
    "repro/mapping/topocentlb.py": (2, "TopoCentLB's cost row"),
    "repro/mapping/incremental.py": (2, "the rebalancer's move deltas"),
    # scipy.sparse CSR products: one row-by-row order on every host.
    "repro/mapping/refine.py": (1, "the reference cost table"),
    "repro/mapping/annealing.py": (1, "the annealer's cost table"),
}


@functools.cache
def _code_tokens(*rels: str) -> list[tuple[str, list[tokenize.TokenInfo]]]:
    """``(path, tokens)`` per Python file under ``rels``, comments dropped.
    A string or docstring is one token, so no text inside it matches."""
    skip = (tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER)
    files = []
    for rel in rels:
        for path in sorted((SRC / rel).rglob("*.py")):
            with path.open("rb") as fh:
                tokens = [t for t in tokenize.tokenize(fh.readline)
                          if t.type not in skip]
            files.append((str(path.relative_to(SRC.parent)), tokens))
    return files


class TestHostIndependentResults:
    """No sum whose order BLAS or the CPU's SIMD level picks, and no sort
    whose ties they break, in the packages that compute results (see
    docs/VALIDATION.md, "Results do not depend on the host")."""

    PACKAGES = ("mapping", "netsim", "partition")

    def test_no_blas_dot(self):
        hits = [
            f"{rel}:{tok.start[0]}: {tok.line.strip()}"
            for rel, tokens in _code_tokens(*self.PACKAGES)
            for prev, tok in zip(tokens, tokens[1:])
            if prev.string == "." and tok.string in ("dot", "matmul", "inner", "vdot")
        ]
        assert hits == []

    def test_every_argsort_is_stable(self):
        nesting = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}
        hits = []
        for rel, tokens in _code_tokens(*self.PACKAGES):
            for i, tok in enumerate(tokens):
                if tok.string != "argsort":
                    continue
                depth, args = 0, []
                for t in tokens[i + 1:]:
                    depth += nesting.get(t.string, 0)
                    args.append(t.string.replace("'", '"'))
                    if depth == 0:
                        break
                if 'kind = "stable"' not in " ".join(args):
                    hits.append(f"{rel}:{tok.start[0]}: {tok.line.strip()}")
        assert hits == []

    def test_matmul_only_at_the_listed_sites(self):
        found: dict[str, int] = {}
        for rel, tokens in _code_tokens(*self.PACKAGES):
            for prev, tok in zip(tokens, tokens[1:]):
                # A decorator's ``@`` opens a line; a product's follows an
                # operand.
                if tok.string == "@" and prev.type not in (tokenize.NEWLINE,
                                                           tokenize.NL):
                    found[rel] = found.get(rel, 0) + 1
        assert found == {rel: n for rel, (n, _) in MATMUL_SITES.items()}
