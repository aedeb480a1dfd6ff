"""The code names the prose gives resolve to code, and README's examples run.

Every backticked name in README.md and in the docstrings of `grassmap` that
is dotted, snake_case or `_private` must be an attribute of a grassmap
module, so a renamed or deleted function cannot linger in the prose.  Every
`$ grassmap ...` example in README.md must print the lines shown under it.
"""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import grassmap
from grassmap.cli import main

PACKAGE = Path(grassmap.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"
MODULES = [grassmap] + [importlib.import_module(f"grassmap.{info.name}")
                        for info in pkgutil.iter_modules(grassmap.__path__)]

# backticked tokens in this form that name no code: a weight coefficient, a
# parameter, and a field of the JSON payload
NOT_CODE = {"c_i", "max_n", "poincare.coeffs"}

NAME = re.compile(r"`([A-Za-z_][A-Za-z0-9_.]*)`")


def code_names(text: str) -> set[str]:
    """The backticked dotted, snake_case or `_private` names in `text`."""
    return {name for name in NAME.findall(text)
            if "." in name or name.startswith("_") or "_" in name and name.islower()} - NOT_CODE


def resolves(name: str) -> bool:
    """Is `name` an attribute path from the package or from one of its modules?"""
    head, *rest = name.split(".")
    for owner in MODULES:
        target = owner if head == owner.__name__.rpartition(".")[2] else getattr(owner, head, None)
        for part in rest:
            target = getattr(target, part, None)
        if target is not None:
            return True
    return False


def docstrings(path: Path) -> str:
    """The docstrings of a module and of its classes and functions, as one text."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = [tree, *(node for node in ast.walk(tree)
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))]
    return "\n".join(filter(None, map(ast.get_docstring, nodes)))


SOURCES = {"README.md": README.read_text(encoding="utf-8"),
           **{path.name: docstrings(path) for path in sorted(PACKAGE.glob("*.py"))}}


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_backticked_names_resolve(source):
    names = code_names(SOURCES[source])
    assert [name for name in sorted(names) if not resolves(name)] == []


def test_scan_sees_names():
    # the scan reads the prose at all: these stand in README.md and a docstring
    assert {"grassmap.checks", "fixed_graphs"} <= code_names(SOURCES["README.md"])
    assert "localization.sound_row" in code_names(SOURCES["cli.py"])


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, shown lines) of each `$ grassmap ...` line in README's sh
    blocks; the shown lines run up to the next blank line."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", SOURCES["README.md"], re.M | re.S):
        for chunk in block.split("\n\n"):
            command, *shown = chunk.strip("\n").split("\n")
            if command.startswith("$ grassmap "):
                examples.append((command[2:], shown))
    return examples


EXAMPLES = readme_examples()


def test_scan_sees_examples():
    assert [command.split()[1] for command, _ in EXAMPLES] == \
        ["betti", "betti", "graphs", "graphs", "verify"]


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(command, shown, capsys, monkeypatch):
    # a trailing `# comment` is dropped; `...` stands for any run of lines;
    # an example that shows no output must still exit 0
    monkeypatch.delenv("GRASSMAP_CACHE", raising=False)
    assert main(shlex.split(command, comments=True)[1:]) == 0
    out = capsys.readouterr().out
    if shown:
        pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                          for line in shown)
        assert re.fullmatch(pattern, out), out
