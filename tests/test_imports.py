"""Every name a module imports is used by that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) for each name the module at path imports and never reads.
    A name listed in the module's __all__ counts as read; __future__ imports
    are compiler directives and are skipped."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    sources = sorted(path for folder in ("src", "tests", "scripts")
                     for path in (ROOT / folder).rglob("*.py"))
    assert len(sources) > 20
    misses = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in sources for line, name in unused_imports(path)]
    assert misses == []


def test_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport sys\nfrom math import comb, prod as product\n"
                      "__all__ = ['comb']\nprint(os.sep)\n")
    assert unused_imports(module) == [(3, "sys"), (4, "product")]
