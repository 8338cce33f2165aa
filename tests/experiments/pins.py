"""Pinned result rows of the paper experiments.

``tests/golden/experiments.json`` holds, for the hop-bytes figures
(``fig1_2``, ``fig3_4``, ``fig5``, ``fig6``) and the DES-driven
experiments (``table1``, ``fig7_8``, ``fig9``, ``fig10_11``,
``tailcheck``), the full result rows of the
shrunken configuration the shape tests run, every float stored as its
``repr`` (so every bit is pinned and a failure shows a readable diff), and
a sha256 of the canonical JSON of those rows. The shape tests check their
own rows against the pins, so pinning costs no extra run time.

Regenerate (only when a change of results is intended, and say in
EXPERIMENTS.md which paper numbers moved) with::

    PYTHONPATH=src python -m tests.experiments.pins
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path

PIN_FILE = Path(__file__).resolve().parents[1] / "golden" / "experiments.json"

#: Experiment id -> the shrunken configuration the shape tests run: the
#: ``run`` keywords, plus module constants patched for the run (upper case).
CONFIGS: dict[str, dict] = {
    "fig1_2": {"quick": True, "QUICK_SIDES": [8, 16]},
    "fig3_4": {"quick": True, "QUICK_SIDES": [4, 6]},
    "fig5": {"quick": True, "ndim": 2, "QUICK_P_2D": [18, 64]},
    "fig6": {"quick": True, "ndim": 3, "QUICK_P_3D": [27, 64]},
    "table1": {"quick": True, "side": 4, "iterations": 10},
    "fig7_8": {"quick": True, "QUICK_BANDWIDTHS": [100.0, 1000.0]},
    "fig9": {"quick": True, "QUICK_BANDWIDTHS": [50.0, 200.0]},
    "fig10_11": {"quick": True, "QUICK_SHAPES": [[4, 4, 4]]},
    "tailcheck": {"quick": True, "seed": 0},
}


def _runner(exp_id: str):
    from repro.experiments import (fig01_02, fig03_04, fig05_06, fig07_08,
                                   fig09, fig10_11, supplementary, table1)

    return {"fig1_2": (fig01_02, fig01_02.run),
            "fig3_4": (fig03_04, fig03_04.run),
            "fig5": (fig05_06, fig05_06.run), "fig6": (fig05_06, fig05_06.run),
            "table1": (table1, table1.run), "fig7_8": (fig07_08, fig07_08.run),
            "fig9": (fig09, fig09.run), "fig10_11": (fig10_11, fig10_11.run),
            "tailcheck": (supplementary, supplementary.run_tailcheck)}[exp_id]


def run_pinned(exp_id: str):
    """Run ``exp_id`` at its pinned configuration; its ExperimentResult."""
    module, run = _runner(exp_id)
    config = CONFIGS[exp_id]
    patched = {k: v for k, v in config.items() if k.isupper()}
    saved = {k: getattr(module, k) for k in patched}
    try:
        for key, value in patched.items():
            setattr(module, key, tuple(tuple(v) if isinstance(v, list) else v
                                       for v in value))
        return run(**{k: v for k, v in config.items() if not k.isupper()})
    finally:
        for key, value in saved.items():
            setattr(module, key, value)


def canonical(rows: list[dict]) -> list[dict]:
    """``rows`` with every float as its ``repr`` and every integer an int."""
    def value(v):
        if isinstance(v, (bool, str)):
            return v
        if isinstance(v, numbers.Integral):
            return int(v)
        return repr(float(v))

    return [{k: value(v) for k, v in row.items()} for row in rows]


def digest(rows: list[dict]) -> str:
    """sha256 of the canonical JSON of pinned rows."""
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_pinned(exp_id: str, rows: list[dict]) -> None:
    """Assert that ``rows`` are exactly ``exp_id``'s pinned rows."""
    entry = json.loads(PIN_FILE.read_text())[exp_id]
    assert entry["config"] == CONFIGS[exp_id]
    assert entry["sha256"] == digest(entry["rows"]), "edited pin file"
    assert canonical(rows) == entry["rows"], (
        f"{exp_id} rows moved; if intentional, regenerate with "
        "'PYTHONPATH=src python -m tests.experiments.pins'")


def regenerate() -> None:
    """Rewrite the pin file from the current code."""
    doc = {}
    for exp_id, config in CONFIGS.items():
        rows = canonical(run_pinned(exp_id).rows)
        doc[exp_id] = {"id": exp_id, "config": config, "rows": rows,
                       "sha256": digest(rows)}
    PIN_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE}")


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    regenerate()
