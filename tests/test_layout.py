"""Source-layout rules, checked on the syntax tree of ``src/qcorrkit`` and ``scripts``.

The X-state path works on six numbers per state and its entry maps, so
dense linear algebra there would be a regression: eigensolves and
Kronecker products belong to the reference routes in ``oracles.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcorrkit"

#: modules on the X-state path: none may diagonalize or build a kron
X_STATE_PATH = ("states", "channels", "measures", "optimize", "sweep", "dataset", "closed_forms")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _dense(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return last == "kron" or (last.startswith("eig") and "linalg" in name)


@pytest.mark.parametrize("module", X_STATE_PATH)
def test_x_state_path_has_no_eigensolve_or_kron(module):
    found = []
    for node in ast.walk(_tree(PACKAGE / f"{module}.py")):
        if isinstance(node, ast.Attribute) and _dense(_dotted(node)):
            found.append(f"line {node.lineno}: {_dotted(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if _dense(f"{node.module}.{a.name}")]
    assert not found, f"{module}.py uses dense linear algebra: {found}"


@pytest.mark.parametrize("module", ["sweep", "dataset"])
def test_no_private_measure_names_outside_measures(module):
    # the sweep and the dataset reach the measures through the public
    # stack-taking correlation_vector and normalize, never their private kernels
    found = []
    for node in ast.walk(_tree(PACKAGE / f"{module}.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "measures":
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and _dotted(node).split(".")[-2:-1] == ["measures"]:
            if node.attr.startswith("_"):
                found.append(f"line {node.lineno}: {_dotted(node)}")
    assert not found, f"{module}.py uses private names of measures: {found}"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.stem if p.parent == PACKAGE else f"scripts/{p.stem}",
)
def test_no_unused_imports(path):
    unused = _unused_imports(_tree(path))
    assert not unused, f"{path.name} imports names it never uses: {unused}"
