"""Every JSON input goes through `dataset.JSON_DECODER`, checked on the
syntax trees of `src/`.

The decoder refuses an integer that no float holds as JSON that does not
decode, so no module of `src/` reads JSON with `json.load` or
`json.loads`, under any name. Writing JSON (`json.dumps`) stays allowed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py"))
READERS = {"load", "loads"}


def _json_reads(tree) -> list[str]:
    """'line N: code', in source order, of each use of `json.load` or
    `json.loads`: as an attribute of the module under any import name, or
    imported by name."""
    modules = {"json"} | {alias.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                          for alias in node.names if alias.name == "json" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(node.lineno, node.col_offset, f"from json import {alias.name}")
                      for alias in node.names if alias.name in READERS]
        elif (isinstance(node, ast.Attribute) and node.attr in READERS
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {code}" for line, _, code in sorted(found)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_json_is_read_only_through_the_one_decoder(path):
    reads = _json_reads(ast.parse(path.read_text()))
    assert not reads, f"{path.name} reads JSON without dataset.JSON_DECODER: {reads}"


def test_check_catches_every_form_of_read():
    tree = ast.parse("import json\n"
                     "import json as j\n"
                     "doc = json.loads(text)\n"
                     "with open(p) as fh: doc = json.load(fh)\n"
                     "parse = j.loads\n"
                     "from json import loads, dumps\n"
                     "text = json.dumps(doc)\n"
                     "doc = JSON_DECODER.decode(text)\n"
                     "doc = other.loads(text)\n")
    assert _json_reads(tree) == [
        "line 3: json.loads", "line 4: json.load", "line 5: j.loads",
        "line 6: from json import loads"]
