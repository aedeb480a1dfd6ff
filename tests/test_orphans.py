"""Every module-level function, class and constant of `grassmap` is used in `grassmap`.

A definition counts as used when some module of the package refers to it, as
a bare name or as an attribute, outside the definition itself.  Docstrings,
comments, imports and the tests do not count, so a helper or a table whose
last reader was deleted fails here instead of lingering in the package.
A constant is a name bound by a module-level assignment; dunders such as
`__version__` are exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

import grassmap

PACKAGE = Path(grassmap.__file__).resolve().parent


def orphans(package: Path) -> list[str]:
    """`module.name` of each module-level def, class or assigned name no other
    statement refers to."""
    places = defaultdict(set)  # name -> (module, top-level statement index) of each reference
    definitions = []
    for path in sorted(package.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for index, statement in enumerate(body):
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, index, statement.name))
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                definitions.extend((path.stem, index, node.id) for target in targets
                                   for node in ast.walk(target) if isinstance(node, ast.Name)
                                   and not (node.id.startswith("__") and node.id.endswith("__")))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    places[node.id].add((path.stem, index))
                elif isinstance(node, ast.Attribute):
                    places[node.attr].add((path.stem, index))
    return [f"{module}.{name}" for module, index, name in definitions
            if not places[name] - {(module, index)}]


def test_every_definition_is_used():
    assert orphans(PACKAGE) == []


def test_an_unused_helper_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text('def used():\n    """`lonely` is named here only."""\n\n\n'
                                     'def lonely():\n    return lonely()\n\n\nused()\n')
    assert orphans(tmp_path) == ["mod.lonely"]


def test_an_unused_constant_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text('__version__ = "0"\nLIMIT = 3\nSPARE: int = 4\n\n\n'
                                     'def grow(x):\n    return x + LIMIT\n\n\ngrow(1)\n')
    assert orphans(tmp_path) == ["mod.SPARE"]
