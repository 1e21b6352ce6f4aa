"""The 54-slot layout has one writer, checked on the syntax trees of `src/`.

`unified_space.state_rows` builds every state row from its components, so
no other module of `src/` stores into a subscript that names a
component's columns. Rewriting the rotation codes in place (`ROTATIONS`,
as `policy.predict` and `retiming.retime` do) stays allowed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WRITER = ROOT / "src" / "crossemb" / "unified_space.py"
FILES = sorted(path for path in (ROOT / "src").rglob("*.py") if path != WRITER)
COMPONENT_COLUMNS = {"HEAD_ROT", "LEFT_WRIST_ROT", "RIGHT_WRIST_ROT", "LEFT_WRIST_POS",
                     "RIGHT_WRIST_POS", "FINGERTIPS"}


def _layout_stores(tree) -> list[str]:
    """'line N: target', in source order, of each subscript stored into
    whose index names a component's columns, bare or as a module attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.slice)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & COMPONENT_COLUMNS:
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {target}" for line, _, target in sorted(found)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_unified_space_writes_the_layout(path):
    stores = _layout_stores(ast.parse(path.read_text()))
    assert not stores, f"{path.name} writes state components itself: {stores}"


def test_check_catches_every_form_of_store():
    tree = ast.parse("out[:, U.HEAD_ROT] = a\n"
                     "out[:, LEFT_WRIST_POS], out[:, U.RIGHT_WRIST_POS] = b\n"
                     "out[k, unified_space.FINGERTIPS] += c\n"
                     "for out[0, LEFT_WRIST_ROT] in d: pass\n"
                     "chunk[:, unified_space.ROTATIONS] = e\n"
                     "f = out[:, U.RIGHT_WRIST_ROT]\n"
                     "out[k, columns] = g\n")
    assert _layout_stores(tree) == [
        "line 1: out[:, U.HEAD_ROT]", "line 2: out[:, LEFT_WRIST_POS]",
        "line 2: out[:, U.RIGHT_WRIST_POS]", "line 3: out[k, unified_space.FINGERTIPS]",
        "line 4: out[0, LEFT_WRIST_ROT]"]
