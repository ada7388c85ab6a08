"""Every public name, method and property has a user outside the tests."""

import ast
import inspect
import re

import vacmom

from conftest import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def _trees():
    """src/, scripts/ and bench/, parsed. The package __init__ only
    re-exports, so it does not count as a use."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("src/vacmom", "scripts", "bench")
        for path in sorted((ROOT / folder).glob("*.py"))
        if path.name != "__init__.py"
    ]


def _code_references(tree) -> set[str]:
    """Names a module loads, attributes it reads and names it imports.

    A module-level assignment or a def is a definition, not a reference.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_or_documented():
    used = set().union(*map(_code_references, _trees()))
    unused = [
        name
        for name in vacmom.__all__
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", README)
    ]
    assert unused == []


def _public_members(cls) -> list[str]:
    """Public methods and properties defined on cls itself. The fields of
    a named tuple or a slotted dataclass are descriptors of other types."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
    ]


def test_every_public_method_and_property_is_used_or_documented():
    # a member is read as an attribute, and named in the README as one:
    # a local variable or a word of the same name does not count
    read = {
        node.attr
        for tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    classes = [obj for obj in map(vars(vacmom).get, vacmom.__all__) if inspect.isclass(obj)]
    members = {f"{cls.__name__}.{name}": name for cls in classes for name in _public_members(cls)}
    # the rule must see the methods and properties there are
    assert {"Vec3.scale", "Material.index", "ModeSet.mode_count"} <= set(members)
    unused = [
        qualified
        for qualified, name in members.items()
        if name not in read and not re.search(rf"\.{re.escape(name)}\b", README)
    ]
    assert unused == []
