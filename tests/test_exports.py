"""Every exported name exists, so a deleted helper cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multisimul

MODULES = sorted(info.name for info in pkgutil.iter_modules(multisimul.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"multisimul.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_exist():
    tree = ast.parse(Path(multisimul.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        assert node.level == 1, "the package imports only its own modules"
        module = importlib.import_module(f"multisimul.{node.module}")
        missing += [
            f"{node.module}.{alias.name}"
            for alias in node.names
            if not hasattr(module, alias.name) or not hasattr(multisimul, alias.name)
        ]
    assert missing == []
