"""Package imports sit at module level, except where an import cycle needs a
function-local one."""

import ast
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
