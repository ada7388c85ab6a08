"""Every public name has a user outside the tests."""

import ast
import re

import vacmom

from conftest import ROOT


def _code_references(path) -> set[str]:
    """Names a module loads, attributes it reads and names it imports.

    A module-level assignment or a def is a definition, not a reference.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_or_documented():
    # the package __init__ only re-exports, so it does not count as a use
    sources = [
        path
        for folder in ("src/vacmom", "scripts", "bench")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]
    used = set().union(*map(_code_references, sources))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = [
        name
        for name in vacmom.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []
