"""The result-cache key's algorithm fingerprint.

``ALGORITHM_FINGERPRINT`` (``repro.service.cache``) is sha256 over the
canonical JSON of every ``tests/golden/*.json`` file and the ``DIGESTS`` of
``tests/netsim/test_des_digest.py``: whatever moves a pinned result moves
the fingerprint, and with it every result-cache key, so the service never
serves a result computed by an older algorithm.

Regenerate (after a change of results is accepted and its pins rewritten)
with::

    PYTHONPATH=src python tests/service/test_fingerprint.py
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path

from repro.engine import MappingRequest
from repro.service import ResultCache, request_cache_key
from repro.service import cache as cache_module

ROOT = Path(__file__).resolve().parents[2]
REGENERATE = "PYTHONPATH=src python tests/service/test_fingerprint.py"


def _des_digests() -> dict[str, str]:
    """The ``DIGESTS`` literal of the DES digest test, read without
    importing (and so without collecting) that module."""
    tree = ast.parse((ROOT / "tests/netsim/test_des_digest.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "DIGESTS"):
            return ast.literal_eval(node.value)
    raise AssertionError("tests/netsim/test_des_digest.py defines no DIGESTS")


def compute_fingerprint() -> str:
    pins = {path.name: json.loads(path.read_text())
            for path in sorted((ROOT / "tests/golden").glob("*.json"))}
    pins["des_digests"] = _des_digests()
    canon = json.dumps(pins, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def test_fingerprint_matches_the_pins():
    want = compute_fingerprint()
    assert cache_module.ALGORITHM_FINGERPRINT == want, (
        "a pinned result changed, so ALGORITHM_FINGERPRINT in "
        "src/repro/service/cache.py is stale; set it to the value printed "
        f"by `{REGENERATE}` ({want})"
    )


def test_disk_entry_misses_after_the_fingerprint_changes(tmp_path,
                                                         monkeypatch):
    """An entry a restarted daemon finds on disk was written under the old
    fingerprint; once the algorithm changes it must miss, not be served."""
    req = MappingRequest(graph="mesh2d:4x4", topology="torus:4x4",
                         mapper="topolb", seed=0)
    ResultCache(disk_dir=tmp_path).put(request_cache_key(req),
                                       {"assignment": [0]})
    assert ResultCache(disk_dir=tmp_path).get(request_cache_key(req)) \
        == {"assignment": [0]}

    monkeypatch.setattr(cache_module, "ALGORITHM_FINGERPRINT", "0" * 64)
    restarted = ResultCache(disk_dir=tmp_path)
    assert restarted.get(request_cache_key(req)) is None
    assert restarted.stats()["misses"] == 1


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(compute_fingerprint())
