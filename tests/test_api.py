"""The package's public surface: ``__all__`` is exact and star-importable, the source keeps no dead names,
and the transfer layer does not depend on the systems layer."""

from __future__ import annotations

import ast
from pathlib import Path

import qfeedback

SRC = Path(qfeedback.__file__).parent


def test_star_import_resolves_every_public_name() -> None:
    namespace: dict = {}
    exec("from qfeedback import *", namespace)
    names = qfeedback.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert namespace[name] is getattr(qfeedback, name)
    assert "modified_forms" not in names and not hasattr(qfeedback, "modified_forms")


def test_no_unused_import_or_unreferenced_private_definition() -> None:
    # stdlib ast over the package source: an import must be used or exported,
    # and a module-level _private function or class must be referenced somewhere
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced: set[str] = set()
    unused, private = [], []
    for module, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    referenced.add(alias.name)
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded | exported:
                        unused.append(f"{module}: {bound}")
        referenced |= loaded
        private += [
            f"{module}: {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
    assert unused == []
    assert [entry for entry in private if entry.split(": ")[1] not in referenced] == []


def test_transfer_imports_nothing_from_systems() -> None:
    # the transfer layer reads stability off its own Schur form, not systems.is_hurwitz
    imported = set()
    for node in ast.walk(ast.parse((SRC / "transfer.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any("systems" in name.split(".") for name in imported)
