"""The package's public names: what ``from hbc_channel import *`` exports."""

import ast
import inspect
from pathlib import Path

import hbc_channel

# Public names deleted from the package; they must not come back by accident.
REMOVED = ("CouplingConstant", "effective_coupling_capacitance")


def test_star_import_succeeds():
    namespace = {}
    exec("from hbc_channel import *", namespace)
    assert set(hbc_channel.__all__) <= set(namespace)


def test_every_exported_name_resolves():
    missing = [name for name in hbc_channel.__all__ if not hasattr(hbc_channel, name)]
    assert missing == []


def test_exported_names_are_unique():
    assert len(hbc_channel.__all__) == len(set(hbc_channel.__all__))


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in hbc_channel.__all__
        assert not hasattr(hbc_channel, name)


def test_exported_names_are_the_package_imports():
    """``__all__`` is exactly what the relative ``from .x import ...``
    statements bind, so an import from outside the package (say ``from
    typing import TYPE_CHECKING``) cannot turn public unnoticed."""
    tree = ast.parse(inspect.getsource(hbc_channel))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert set(hbc_channel.__all__) == imported


def test_every_module_level_import_is_used():
    """Each name a module of the package imports at module level is used in
    that module (``__init__`` only re-exports, so it is left out)."""
    unused = []
    for path in sorted(Path(hbc_channel.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            alias.asname or alias.name.partition(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []
