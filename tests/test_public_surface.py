"""The public surface is written down: no def under ``src/`` goes unused.

Every function, class and method defined under ``src/`` must be referenced
somewhere else: by other code under ``src/``, by ``perfbench/`` or
``examples/``, by the CI workflows or the README.  Exporting a name is not a
reference: an ``__all__`` entry and the import that re-exports it count for
nothing, so an exported def that nothing calls is named in the README or
deleted.  The tests are not a reference either: a def that only tests reach
is dead code.

The few defs that are called without their name being written anywhere are
listed in ``ALLOWLIST`` with the reason; that list and the sources above are
the written-down public surface.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: every package under src/, whose ``__all__`` is the exported API
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts) for path in SRC.rglob("__init__.py")
)

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: defs whose name need not appear elsewhere, with the reason
ALLOWLIST = {
    "visit_Import": "ast.NodeVisitor dispatches on the node class name (lint/selfcheck.py)",
    "visit_ImportFrom": "ast.NodeVisitor dispatches on the node class name (lint/selfcheck.py)",
    "visit_Call": "ast.NodeVisitor dispatches on the node class name (lint/selfcheck.py)",
    "visit_BinOp": "ast.NodeVisitor dispatches on the node class name (lint/selfcheck.py)",
    "visit_For": "ast.NodeVisitor dispatches on the node class name (lint/selfcheck.py)",
}


def _exports(tree: ast.AST) -> set:
    """The ids of the string constants a module lists in its ``__all__``."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                exported.update(id(constant) for constant in ast.walk(node.value))
    return exported


def _python_references(tree: ast.AST) -> set:
    """Names a module uses: loads, attributes, keywords, identifier-shaped
    string constants (``getattr``, wrapped attributes) and the names it
    imports under an alias it uses.

    Neither an ``__all__`` entry nor an import counts by itself: a name a
    package only re-exports is used by nothing."""
    names = set()
    aliased = {}
    exported = _exports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias) and node.asname:
            aliased[node.asname] = node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value) and id(node) not in exported:
                names.add(node.value)
    return names | {name for alias, name in aliased.items() if alias in names}


def _definitions():
    """``(name, "path:line qualified.name")`` for every def under ``src/``."""
    found = []

    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((node.name, f"{path}:{node.lineno} {prefix}{node.name}"))
                walk(node.body, path, f"{prefix}{node.name}.")
            elif hasattr(node, "body"):
                walk(node.body, path, prefix)
                walk(getattr(node, "orelse", []), path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text()).body, path.relative_to(ROOT), "")
    return found


def _references():
    names = set()
    for root in (SRC, ROOT / "perfbench", ROOT / "examples"):
        for path in root.rglob("*.py"):
            names |= _python_references(ast.parse(path.read_text()))
    texts = [ROOT / "README.md", *(ROOT / ".github" / "workflows").glob("*.yml")]
    for path in texts:
        names.update(_IDENTIFIER.findall(path.read_text()))
    return names


def test_every_def_under_src_is_referenced_outside_the_tests():
    references = _references()
    unreferenced = [
        where
        for name, where in _definitions()
        if name not in references
        and name not in ALLOWLIST
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unreferenced, (
        "defs that nothing outside the tests uses (delete them, or document "
        "them in the README's Public API paragraph):\n  " + "\n  ".join(unreferenced)
    )


def test_allowlist_names_only_defs_that_exist():
    defined = {name for name, _ in _definitions()}
    assert not set(ALLOWLIST) - defined


def test_allowlist_entries_give_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    # A deleted def must not leave its name behind in an ``__all__``.
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


def test_the_ip_has_one_task_source():
    from repro.soc import FunctionalIP

    soc = importlib.import_module("repro.soc")
    assert not {"ServiceChannel", "ServiceRequest", "ServiceRequestGenerator"} & set(dir(soc))
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.soc.service")
    workload = inspect.signature(FunctionalIP).parameters["workload"]
    assert workload.default is inspect.Parameter.empty


def test_the_kernel_has_no_end_of_delta_hook():
    from repro.sim import Kernel

    assert not [name for name in dir(Kernel()) if "end_of_delta" in name]
    errors = importlib.import_module("repro.errors")
    assert not hasattr(errors, "SimulationFinished")
