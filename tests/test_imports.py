"""Package imports sit at module level, except where an import cycle needs a
function-local one; every package export is public in its own module."""

import ast
import importlib
import pathlib

import regretlab

PACKAGE = pathlib.Path(regretlab.__file__).parent

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
    # the module that defines a name, or for a constant the one it is imported from
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    source = {a.asname or a.name: f"regretlab.{node.module}" for node in tree.body
              if isinstance(node, ast.ImportFrom) for a in node.names}
    missing = []
    for name in regretlab.__all__:
        if name == "__version__":
            continue
        module = getattr(getattr(regretlab, name), "__module__", None) or source[name]
        if name not in importlib.import_module(module).__all__:
            missing.append(f"{module}.{name}")
    assert missing == []
