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


def _perfbench_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "perfbench").glob("*.py"))}


def test_every_name_perfbench_reaches_exists():
    # perfbench finds fedgela's functions by name (worker.SetupProbe wraps
    # fedsim.local_train, the workloads parse configs, spans sums the
    # writers), so a rename fails here, not only as a broken benchmark metric
    modules = {name: importlib.import_module(f"fedgela.{name}")
               for name in ("fedsim", "cli", "metrics", "neuralnet")}
    trees = _perfbench_trees()
    reached = {(file, node.value.id, node.attr) for file, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules}
    assert ("worker.py", "fedsim", "local_train") in reached
    assert ("workloads.py", "cli", "parse_config") in reached
    missing = [r for r in sorted(reached) if not hasattr(modules[r[1]], r[2])]
    assert not missing, f"perfbench reaches names fedgela lacks: {missing}"

    constants = {target.id: node.value for node in trees["spans.py"].body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name)}
    traced = [importlib.import_module(f"fedgela.{m}")
              for m in ast.literal_eval(constants["MODULES"])]
    writers = ast.literal_eval(constants["WRITERS"])
    assert writers
    for name in writers:
        # spans wraps a function under the module that defines it
        assert any(getattr(getattr(mod, name, None), "__module__", None) == mod.__name__
                   for mod in traced), f"spans.WRITERS names {name}, which no module defines"
