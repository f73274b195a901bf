"""Source-layout rules, checked on the syntax tree of ``src/qcorrkit`` and ``scripts``.

The X-state path works on six numbers per state and its entry maps, so
dense linear algebra there would be a regression: eigensolves and
Kronecker products belong to the reference routes in ``oracles.py``.
Every public name of the package, and every public method and property
of a public class, needs a caller in ``src``, ``scripts`` or ``bench``,
and so does every defaulted parameter of a public function, every
defaulted field of a public dataclass and every CLI flag; tests alone
do not keep a name or a setting alive.  No module
imports scipy, which only the tests use, and ``sweep.csv_text`` is the
only CSV writer, and ``exceptions._unit_interval`` the only function
that spells the unit-interval message.  Every array a module holds for
all its callers is read-only.
"""

import argparse
import ast
import functools
import importlib
import shlex
from pathlib import Path

import numpy as np
import pytest

from qcorrkit.channels import WmrMode
from qcorrkit.cli import build_parser
from qcorrkit.optimize import _grid_factors

from conftest import readme_commands

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


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy(module):
    # scipy is a test dependency; the package runs on numpy alone
    found = []
    for node in ast.walk(_tree(PACKAGE / f"{module}.py")):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, f"{module}.py imports scipy: {found}"


def test_no_csv_writer_outside_csv_text():
    # sweep.csv_text spells every CSV the program writes; a csv.writer or
    # DictWriter elsewhere would be a second spelling of the same bytes
    writers = {"writer", "DictWriter"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and _dotted(node) in {f"csv.{w}" for w in writers}:
                found.append(f"{path.name} line {node.lineno}: {_dotted(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                found += [f"{path.name} line {node.lineno}: from csv import {a.name}"
                          for a in node.names if a.name in writers]
    assert not found, f"CSV writers outside sweep.csv_text: {found}"


def _strings_by_function(node: ast.AST, owner: str | None = None):
    """(innermost enclosing function or None, text) of every string constant under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield owner, node.value
    for child in ast.iter_child_nodes(node):
        yield from _strings_by_function(child, owner)


def test_one_function_spells_the_unit_interval_message():
    # every parameter lies in [0, 1] or [0, 1): a second function spelling
    # the message would be a second copy of the check that raises it
    spellers = sorted({
        f"{path.name}: {owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, text in _strings_by_function(_tree(path))
        if "outside [0, 1" in text
    })
    assert len(spellers) == 1, f"unit-interval messages spelled in more than one place: {spellers}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_level_arrays_are_read_only(module):
    # a module's arrays are shared by every caller: one in-place write
    # would corrupt them for the rest of the process
    writable = []
    for name, value in vars(importlib.import_module(f"qcorrkit.{module}")).items():
        members = value if isinstance(value, (tuple, list)) else (value,)
        writable += [name for m in members if isinstance(m, np.ndarray) and m.flags.writeable]
    assert not writable, f"{module}.py holds writable arrays: {writable}"


@pytest.mark.parametrize("mode", [WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT])
def test_cached_grid_factors_are_read_only(mode):
    factors = _grid_factors(mode)
    assert factors is _grid_factors(mode)
    assert not factors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        factors[0, 0, 0] = 0.0
    # real factors for the real part of sigma: a complex cache would double it
    assert factors.dtype == np.float64
    assert factors.shape == (1001, 4, 4)


def _complex_chain(module: str) -> list[str]:
    """Where ``module`` calls or imports a complex entry map or names a complex
    dtype, whatever the spelling."""
    entry_maps = {"apply_wm", "apply_cad", "apply_qmr", "wmr_pipeline"}
    complex_names = {"complex", "complex64", "complex128", "complexfloating", "cdouble", "csingle"}
    found = []
    for node in ast.walk(_tree(PACKAGE / f"{module}.py")):
        if isinstance(node, ast.Call) and _dotted(node.func).rsplit(".", 1)[-1] in entry_maps:
            found.append(f"line {node.lineno}: calls {_dotted(node.func)}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name in entry_maps | complex_names]
        elif isinstance(node, ast.Name) and node.id in complex_names:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in complex_names:
            found.append(f"line {node.lineno}: {_dotted(node)}")
        elif isinstance(node, ast.Constant) and (isinstance(node.value, complex)
                                                 or node.value in complex_names):
            found.append(f"line {node.lineno}: {node.value!r}")
    return found


def test_optimizer_runs_no_complex_chain():
    # the optimizer's chain runs on six real numbers: it may not call the
    # complex entry maps nor build a complex array
    found = _complex_chain("optimize")
    assert not found, f"optimize.py runs the complex chain: {found}"


def test_unprotected_sweep_runs_no_complex_chain():
    # the unprotected sweep runs on the six numbers of every point, and the
    # protected one on the optimizer's float64 states: sweep.py may not call
    # the complex entry maps nor build a complex array
    found = _complex_chain("sweep")
    assert not found, f"sweep.py runs the complex chain: {found}"


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


#: modules whose public names and settings need callers; oracles.py is exempt
#: because its names are the references the tests compare against
CALLED_MODULES = sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "oracles")
)

def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function, class and assigned name,
    and of each public method and property of a public class, named ``Class.member``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in targets if not name.startswith("_"))


def _program_files() -> list[Path]:
    """The package without its ``__init__`` (re-exporting calls nothing), scripts and bench."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + list((ROOT / "scripts").glob("*.py")) + list((ROOT / "bench").glob("*.py"))


@functools.cache
def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every name, attribute, imported name and exact string in the program, by where it occurs.

    A string counts because the benchmark's tracer names the functions it
    wraps as strings.
    """
    found = {}
    for path in _program_files():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append((path, node.lineno))
    return found


@pytest.mark.parametrize("module", CALLED_MODULES)
def test_every_public_name_has_a_caller(module):
    path = PACKAGE / f"{module}.py"
    references = _references()
    uncalled = []
    for name, node in _public_definitions(_tree(path)):
        own = range(node.lineno, node.end_lineno + 1)
        found = references.get(name.rsplit(".", 1)[-1], [])
        called = any(not (p == path and line in own) for p, line in found)
        if not called:
            uncalled.append(name)
    assert not uncalled, f"{module}.py names with no caller in src/, scripts/ or bench/: {uncalled}"


@functools.cache
def _calls() -> dict[str, list[tuple[Path, ast.Call]]]:
    """Every call in the program, by the last part of the called name."""
    found = {}
    for path in _program_files():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = _dotted(node.func).rsplit(".", 1)[-1]
                if name:
                    found.setdefault(name, []).append((path, node))
    return found


def _passes(call: ast.Call, param: str, positional: list[str]) -> bool:
    """Whether ``call`` may set ``param``: by keyword, by position or through ``*``/``**``."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return param in positional and len(call.args) > positional.index(param)


@pytest.mark.parametrize("module", CALLED_MODULES)
def test_every_defaulted_parameter_is_set_by_a_caller(module):
    # a default nothing overrides is a constant: it belongs in the body,
    # where a test that needs another value reaches it through monkeypatch
    path = PACKAGE / f"{module}.py"
    unset = []
    for node in _tree(path).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        own = range(node.lineno, node.end_lineno + 1)
        calls = [c for p, c in _calls().get(node.name, []) if not (p == path and c.lineno in own)]
        for param in defaulted:
            if not any(_passes(c, param, positional) for c in calls):
                unset.append(f"{module}.{node.name}({param})")
    assert not unset, f"defaulted parameters no caller in src/, scripts/ or bench/ sets: {unset}"


def _is_record(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a dataclass or a ``NamedTuple``, whose constructor takes its fields."""
    decorators = [_dotted(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list]
    bases = [_dotted(b) for b in node.bases]
    return any(d.rsplit(".", 1)[-1] == "dataclass" for d in decorators) or any(
        b.rsplit(".", 1)[-1] == "NamedTuple" for b in bases
    )


def _has_default(value: ast.expr | None) -> bool:
    """Whether a field's right-hand side gives it a default; ``field(...)`` may not."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _dotted(value.func).rsplit(".", 1)[-1] == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


@functools.cache
def _assigned_attributes() -> set[str]:
    """Every attribute name the program assigns to, as in ``x.<name> = ...``."""
    found = set()
    for path in _program_files():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute):
                        found.add(sub.attr)
    return found


@pytest.mark.parametrize("module", CALLED_MODULES)
def test_every_defaulted_field_is_set_by_a_caller(module):
    # a dataclass field is a parameter of its constructor: a default that no
    # constructor call or attribute assignment overrides is a constant
    path = PACKAGE / f"{module}.py"
    unset = []
    for node in _tree(path).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_") or not _is_record(node):
            continue
        fields = [(f.target.id, f.value) for f in node.body
                  if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
        positional = [name for name, _ in fields]
        own = range(node.lineno, node.end_lineno + 1)
        calls = [c for p, c in _calls().get(node.name, []) if not (p == path and c.lineno in own)]
        for name, value in fields:
            key = f"{module}.{node.name}.{name}"
            if (
                _has_default(value)
                and name not in _assigned_attributes()
                and not any(_passes(c, name, positional) for c in calls)
            ):
                unset.append(key)
    assert not unset, f"defaulted dataclass fields no caller in src/, scripts/ or bench/ sets: {unset}"


def _argv_lists() -> list[list[str]]:
    """The ``qcorrkit`` argv lists of ``scripts/``, ``bench/jobs.py`` and README's commands.

    In a program file, an argv is a list display whose first item is the
    name of a subcommand; its string items are the words it passes.
    """
    commands = set(_subparsers().choices)
    found = [shlex.split(line)[1:] for line in readme_commands()]
    for path in sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "bench" / "jobs.py"]:
        for node in ast.walk(_tree(path)):
            if (
                isinstance(node, ast.List)
                and node.elts
                and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in commands
            ):
                found.append([e.value for e in node.elts
                              if isinstance(e, ast.Constant) and isinstance(e.value, str)])
    return found


def _subparsers() -> argparse._SubParsersAction:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def test_every_cli_flag_has_a_user():
    # the defaulted-parameter guard counts a command forwarding args.x as a
    # caller, so a flag only tests pass would keep its setting alive there
    passed = {}
    for argv in _argv_lists():
        passed.setdefault(argv[0], set()).update(argv[1:])
    unused = []
    for command, sub in _subparsers().choices.items():
        for action in sub._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                if not passed.get(command, set()) & set(action.option_strings):
                    unused.append(f"{command} {max(action.option_strings, key=len)}")
    assert not unused, f"CLI flags no script, bench job or README command passes: {unused}"
