"""Dead-code guard over the package source, read with the stdlib `ast`.

Every top-level function and class in `src/tribeta` must be referenced by
name somewhere in `src/` outside its own definition (an import alone does
not count), unless it is public API listed below.  No module-level import
may go unused; package `__init__` modules are exempt, since their imports
are the re-exported interface.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tribeta"

#: public API with no caller in src/, one reason each
ALLOWED_UNREFERENCED = {
    "chi_square": "public fit statistic, documented in README",
    "save_dataset": "public dataset writer, documented in README",
    "moment_form_spectrum_term": "subject of acceptance criterion 8",
    "direct_spectrum_term": "reference side of acceptance criterion 8",
    "operator_moments": "subject of acceptance criterion 5",
    "c_term_bound": "subject of acceptance criterion 6",
}


def _modules():
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def _references(tree):
    """(name, node) for every name read or attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_top_level_definition_has_a_caller():
    modules = _modules()
    refs = {}
    for tree in modules.values():
        for name, node in _references(tree):
            refs.setdefault(name, []).append(node)
    unreferenced = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(id(r) not in own for r in refs.get(node.name, [])) \
                    and node.name not in ALLOWED_UNREFERENCED:
                unreferenced.append(f"{path.relative_to(SRC)}:{node.name}")
    assert unreferenced == []


def test_no_unused_module_imports():
    unused = []
    for path, tree in _modules().items():
        if path.name == "__init__.py":
            continue
        used = {name for name, _ in _references(tree)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(SRC)}:{bound}")
    assert unused == []
