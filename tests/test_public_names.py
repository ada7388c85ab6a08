"""Every public name, method and property has a user outside the tests,
and the package resolves each one from its module on first use."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
import textwrap

import pytest

import vacmom

from conftest import ROOT, src_env

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
    # getattr, since vars(vacmom) holds only the names read so far
    classes = [
        obj for name in vacmom.__all__ if inspect.isclass(obj := getattr(vacmom, name))
    ]
    members = {f"{cls.__name__}.{name}": name for cls in classes for name in _public_members(cls)}
    # the rule must see the methods and properties there are
    assert {"Vec3.as_tuple", "Mat3.zero", "Material.index"} <= set(members)
    unused = [
        qualified
        for qualified, name in members.items()
        if name not in read and not re.search(rf"\.{re.escape(name)}\b", README)
    ]
    assert unused == []


def test_export_table_resolves_every_name_to_its_module():
    for module, names in vacmom._EXPORTS.items():
        home = importlib.import_module(f"vacmom.{module}")
        for name in names.split():
            obj = getattr(vacmom, name)
            assert obj is getattr(home, name)
            # a class or function is exported from where it is defined
            assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    assert vacmom.__all__ == sorted(set(vacmom.__all__))
    assert set(vacmom.__all__) <= set(dir(vacmom))
    star = {}
    exec("from vacmom import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == vacmom.__all__
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vacmom.no_such_name
    # the vacuum layer's two sums and their records
    assert {"BilinearSums", "SweepSums", "sweep_sums", "vacuum_bilinears"} <= set(
        vacmom._EXPORTS["vacuum"].split()
    )
    # submodules still import by name, as the benchmark and portable checks do
    from vacmom import cli, vacuum

    assert (cli.__name__, vacuum.__name__) == ("vacmom.cli", "vacmom.vacuum")


def test_importing_the_package_loads_only_the_layers_used():
    code = textwrap.dedent(
        """
        import sys
        import vacmom
        print(sorted(m for m in sys.modules if m.startswith("vacmom.")))
        # the velocity equation needs neither the density nor the boost
        from vacmom import medium_velocity, velocity_from_bilinears
        print(sorted({"vacmom.lagrangian", "vacmom.relativity"} & set(sys.modules)))
        from vacmom import transform_constants, verify_expansion, medium_velocity, load_config
        print(sorted({"vacmom.vacuum", "vacmom.cli", "dataclasses"} & set(sys.modules)))
        # and no record of any layer is a dataclass
        import vacmom.cli
        print("dataclasses" in sys.modules)
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=60
    )
    assert result.stdout.splitlines() == ["[]", "[]", "[]", "False"], result.stderr
