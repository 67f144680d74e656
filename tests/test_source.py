"""Static checks on the package source."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvle"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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


NON_CODE_TOKENS = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold Python tokens.

    Blank lines, comment lines and the docstrings of the module, its classes
    and its functions are left out; a token that spans lines counts each.
    """
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE_TOKENS:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def test_code_line_counter():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n"
        "class A:\n"
        "    'Class docstring.'\n"
        "\n"
        "    def f(self):\n"
        '        """Method docstring."""\n'
        '        text = """a string\n'
        'that spans lines"""\n'
        "        return (text,\n"
        "                os.sep)\n"
    )
    assert code_lines(source) == 7


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
    # LAPACK call, so such calls stay in the fits, and in one module: the
    # linear baselines' generalized eigensolve and the embedding's certified
    # Lanczos both live in linalg.
    found = {path.name: lapack_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {name: mods for name, mods in found.items() if mods} == {
        "linalg.py": {
            "scipy.linalg", "scipy.linalg.blas", "scipy.linalg.lapack", "scipy.sparse.linalg",
        },
    }


def module_level_scipy_imports(source: str) -> list[str]:
    """The SciPy modules that ``source`` imports outside any function body.

    Imports under ``if``, ``try`` and class bodies run when the module loads,
    so they count; imports inside functions do not.
    """
    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                yield node.module
            yield from walk(ast.iter_child_nodes(node))

    names = walk(ast.parse(source).body)
    return sorted({name for name in names if name == "scipy" or name.startswith("scipy.")})


def test_scipy_import_checker_skips_function_bodies():
    source = (
        "import numpy as np\n"
        "import scipy\n"
        "try:\n"
        "    from scipy.special import expit\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    from scipy import linalg\n"
        "def f():\n"
        "    from scipy.sparse.linalg import eigsh\n"
        "    def g():\n"
        "        import scipy.linalg\n"
    )
    assert module_level_scipy_imports(source) == ["scipy", "scipy.special"]


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"], ids=lambda path: path.name)
def test_scipy_is_imported_only_inside_functions(path):
    # Loading SciPy takes longer than a whole small fit; every command that
    # runs none of its solvers starts without it.
    assert module_level_scipy_imports(path.read_text(encoding="utf-8")) == []


if __name__ == "__main__":
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'src/mvle':16} {total:5}")
