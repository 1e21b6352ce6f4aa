"""Import hygiene of `src/`, `tests/` and `gate/`, read as syntax trees.

Every name a file imports is used in that file, and no module under
`src/` imports or reads a name that another module keeps private (one
with a leading underscore): what modules share is public.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for tree in ("src", "tests", "gate") for path in (ROOT / tree).rglob("*.py"))


def _imports(tree):
    """(line, bound name, imported name, whether crossemb's) of each import
    but `__future__`'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (node.lineno, alias.asname or alias.name.split(".")[0], alias.name,
                       alias.name.split(".")[0] == "crossemb")
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            ours = node.level > 0 or (node.module or "").split(".")[0] == "crossemb"
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name, alias.name, ours


def _used(tree) -> set[str]:
    """The names a file reads: each `Name`, and the entries of `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_names(tree) -> list[str]:
    """Private names of crossemb modules that `tree` imports, or reads as
    attributes of a name it imported from crossemb."""
    imports = [item for item in _imports(tree) if item[3]]
    bound = {name for _, name, _, _ in imports}
    found = [f"line {line}: {name}" for line, _, name, _ in imports
             if _private(name.rsplit(".", 1)[-1])]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"line {line}: {name}" for line, name, _, _ in _imports(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", [p for p in FILES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_src_uses_no_private_name_of_another_module(path):
    private = _private_names(ast.parse(path.read_text()))
    assert not private, f"{path.name} uses private names of other modules: {private}"


def test_checks_catch_unused_and_private_imports():
    tree = ast.parse("from .kinematics import _embed_rows, embed_rows\nimport json\n"
                     "from . import dataset\nimport argparse\n"
                     "def f(x): return dataset._read_file(embed_rows(x))\n"
                     "g = argparse._SubParsersAction\n")
    assert [name for _, name, _, _ in _imports(tree) if name not in _used(tree)] == [
        "_embed_rows", "json"]
    assert _private_names(tree) == ["line 1: _embed_rows", "line 5: dataset._read_file"]
