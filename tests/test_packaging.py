"""Every data file in the package is listed as package data, so an
installed symcover finds its table and fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "symcover"


def test_every_data_file_is_package_data():
    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["symcover"]
    listed = {path for pattern in globs for path in SRC.glob(pattern)}
    data = {
        path for path in SRC.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert data, "no data files found"
    assert data <= listed, sorted(str(p.relative_to(SRC)) for p in data - listed)
