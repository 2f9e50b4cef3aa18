"""Package imports sit at module level, except where an import cycle needs a
function-local one; the package exports exactly its library modules' public
names, and importing it loads those modules and not the CLI."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import regretlab

PACKAGE = pathlib.Path(regretlab.__file__).parent
# every module but the package itself and the CLI front end, in file order
LIBRARY = [f"regretlab.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
           if path.stem not in ("__init__", "__main__", "cli")]

# (module, imported module) of every import inside a function body
EXPECTED = {
    ("auctions", ".library"),  # library imports auctions
    ("learners", ".costmode"),  # costmode imports learners
    ("library", ".dynamics"),  # dynamics imports library
}


def _function_local_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    found.add((path.stem, "." * node.level + (node.module or "")))
                elif isinstance(node, ast.Import):
                    found.update((path.stem, a.name) for a in node.names)
    return found


def test_function_local_imports_are_the_pinned_set():
    assert _function_local_imports() == EXPECTED


def test_every_package_export_is_in_its_modules_all():
    # the ordered union of the library modules' __all__, each name once, then
    # __version__; each name is the very object its module holds
    union = []
    for module in map(importlib.import_module, LIBRARY):
        union += [name for name in module.__all__ if name not in union]
        for name in module.__all__:
            assert getattr(regretlab, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert regretlab.__all__ == union + ["__version__"]


def test_import_loads_the_library_modules_and_not_the_cli():
    code = "import json, sys, regretlab; json.dump(sorted(sys.modules), sys.stdout)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
    assert [m for m in loaded if m.startswith("regretlab")] == ["regretlab", *LIBRARY]
    assert "argparse" not in loaded
