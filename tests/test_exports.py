import ast
import importlib
import pkgutil
from pathlib import Path

import fedgela


def test_every_module_export_exists():
    for info in pkgutil.iter_modules(fedgela.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"fedgela.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"fedgela.{info.name}.__all__ names missing {missing}"


def test_every_package_import_exists():
    tree = ast.parse(Path(fedgela.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"fedgela.{module}")
        assert hasattr(mod, name), f"fedgela.{module} has no {name}"
        assert getattr(fedgela, name) is getattr(mod, name)
