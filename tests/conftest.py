"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def src_env() -> dict[str, str]:
    """The environment for a Python subprocess, with this checkout's src
    first on PYTHONPATH: it imports the sumsetlab under test, installed or
    not."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
