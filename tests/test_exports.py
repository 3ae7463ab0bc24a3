import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import fedgela

ROOT = Path(__file__).resolve().parent.parent


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


def test_every_lazy_package_name_is_the_diagnostics_object():
    from fedgela import diagnostics

    assert fedgela._DIAGNOSTICS
    for name in fedgela._DIAGNOSTICS:
        assert name in diagnostics.__all__, name
        assert getattr(fedgela, name) is getattr(diagnostics, name)
    assert not hasattr(fedgela, "no_such_name")


def test_cli_import_leaves_the_diagnostics_out():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = "import sys, fedgela.cli; print(sorted(m for m in sys.modules if 'fedgela' in m))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = done.stdout.strip()
    assert "'fedgela.cli'" in loaded
    assert "fedgela.diagnostics" not in loaded
