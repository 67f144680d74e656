"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import mvle

MODULES = sorted(
    path for path in Path(mvle.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports are compiler
    directives and are skipped.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "x: np.ndarray = os.path.sep\n"
    )
    assert unused_imports(source) == ["dataclass", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


LAPACK_ROOTS = ("scipy.linalg", "scipy.sparse.linalg")


def lapack_imports(source: str) -> set[str]:
    """The SciPy LAPACK modules that the imports of ``source`` name.

    ``from scipy import linalg`` names ``scipy.linalg``, and
    ``from scipy.linalg import eigh`` names ``scipy.linalg`` too.
    """
    def under_root(name):
        return any(name == root or name.startswith(root + ".") for root in LAPACK_ROOTS)

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if under_root(alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if under_root(node.module):
                found.add(node.module)
            else:
                found.update(f"{node.module}.{alias.name}" for alias in node.names
                             if under_root(f"{node.module}.{alias.name}"))
    return found


def test_lapack_checker_resolves_every_import_form():
    source = (
        "import scipy.linalg\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "from scipy import linalg, special\n"
        "from scipy.sparse import csgraph, linalg as sla\n"
        "from scipy.spatial.distance import cdist\n"
        "def f():\n"
        "    from scipy.sparse.linalg import eigsh\n"
    )
    assert lapack_imports(source) == {
        "scipy.linalg", "scipy.linalg.lapack", "scipy.sparse.linalg",
    }


def test_scipy_lapack_stays_off_the_scoring_path():
    # SciPy's OpenBLAS threads slow NumPy's BLAS for a while after each SciPy
    # LAPACK call, so such calls stay in the fits: the linear baselines'
    # generalized eigensolve and the embedding's certified Lanczos.
    found = {path.name: lapack_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: mods for name, mods in found.items() if mods} == {
        "baselines.py": {"scipy.linalg"},
        "linalg.py": {"scipy.linalg.lapack", "scipy.sparse.linalg"},
    }
