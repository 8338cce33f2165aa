"""Make ``repro`` (from ``src/``) and ``perfbench`` importable for the tests.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
