"""Every module-level import in the package's modules is read in its module
(`__init__.py` imports to re-export, so it is left out)."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bidisc_schur"


def unused_imports(source):
    """Names a module imports at its top level and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_what_is_never_read():
    source = "import os\nimport os.path\nimport numpy as np\nfrom . import a, b\nnp.x(b)\n"
    assert unused_imports(source) == ["a", "os"]


def test_package_modules_read_every_import():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
