"""The package metadata takes its version from sumsetlab.__version__, the
one version literal."""

import ast
from pathlib import Path

import pytest

import sumsetlab

tomllib = pytest.importorskip("tomllib")  # Python 3.11 on

ROOT = Path(__file__).resolve().parents[1]


def test_version_is_read_from_the_package():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "sumsetlab.__version__"}


def test_version_is_a_literal():
    # setuptools reads a literal assignment without importing the package
    tree = ast.parse((ROOT / "src" / "sumsetlab" / "__init__.py").read_text())
    values = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
              and isinstance(node.value, ast.Constant)]
    assert values == [sumsetlab.__version__]
