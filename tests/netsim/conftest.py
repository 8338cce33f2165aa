"""The simulator's two bodies, for the tests that run under both."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.mapping.kernels import KERNELS


@pytest.fixture(params=KERNELS, scope="module")
def kernel(request) -> str:
    """``"vectorized"`` (the compiled event core, or its reference fallback
    without a C compiler) and ``"reference"`` (the Python event loop)."""
    return request.param


def pytest_collection_modifyitems(items):
    """Runs on the production body keep each test's established id; only the
    reference body's runs carry a ``reference`` id. (pytest passes every
    collected item to this hook, hence the directory check.)"""
    here = Path(__file__).parent
    for item in items:
        callspec = getattr(item, "callspec", None)
        if (callspec is None or here not in item.path.parents
                or callspec.params.get("kernel") != "vectorized"):
            continue
        rest = "-".join(part for part in callspec.id.split("-")
                        if part != "vectorized")
        name = f"{item.originalname}[{rest}]" if rest else item.originalname
        item._nodeid = item._nodeid[: -len(item.name)] + name
        item.name = name
