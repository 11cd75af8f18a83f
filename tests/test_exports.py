import ast
import importlib
import inspect
import pkgutil

import pytest

import specdesc

MODULES = ["specdesc"] + [
    f"specdesc.{info.name}" for info in pkgutil.iter_modules(specdesc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


# Path methods that read or write a whole file
PATH_FILE_METHODS = {"read_text", "read_bytes", "write_text", "write_bytes"}


def _file_access(tree: ast.AST) -> list[str]:
    """Each use in `tree` of `open` (as a name or a method), `os.replace`,
    the `tempfile` module or a whole-file `Path` method, as source text."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "tempfile"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tempfile" or node.module == "os" and any(
                    a.name in ("replace", "open") for a in node.names):
                found.append(f"from {node.module} import ...")
        elif isinstance(node, ast.Name) and node.id in ("open", "tempfile"):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and (
                node.attr in PATH_FILE_METHODS or node.attr == "open"
                or ast.unparse(node) == "os.replace"):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("name", [m for m in MODULES if m != "specdesc.container"])
def test_only_container_touches_files(name):
    # the one file layer: every other module reads through container.read_file
    # or read_text and writes through container.write_file in an output_dir
    source = inspect.getsource(importlib.import_module(name))
    assert _file_access(ast.parse(source)) == []


def test_file_access_check_finds_each_kind():
    source = ("import tempfile\nfrom os import replace\nopen(p)\nio.open(p)\n"
              "os.replace(a, b)\np.read_text()\np.write_bytes(b)\n")
    assert _file_access(ast.parse(source)) == [
        "import tempfile", "from os import ...", "open", "io.open", "os.replace",
        "p.read_text", "p.write_bytes"]
    assert _file_access(ast.parse(inspect.getsource(importlib.import_module(
        "specdesc.container")))) != []
