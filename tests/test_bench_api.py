"""Every crossemb name the benchmark and the claims gate use still resolves.

The benchmark under `bench/` drives crossemb through module attributes and
traces functions by dotted path. Its tracer only warns about a path that
no longer resolves, so deleting or renaming a traced function would
silently turn a per-layer metric into null. The claims gate under `gate/`
runs outside this suite, so a signature change there would show only in
a gate run. These tests read those sources as text, without importing
them, and resolve each `module.attr` chain rooted at a crossemb import,
each keyword those calls pass, and each `Target` path of the tracer.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _trees(source: str):
    """The syntax tree of `source` and of each string in it that is code
    importing crossemb (a snippet run in a fresh interpreter); prose that
    mentions the import does not parse and is skipped."""
    tree = ast.parse(source)
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and "import crossemb" in str(node.value):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def _chain(node):
    """`a.b.c` as ["a", "b", "c"], or None unless `node` is a name or an
    attribute chain rooted at one."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _resolve(obj, attrs):
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def used_names(source: str) -> list:
    """(dotted name, problem or None) for each crossemb name `source`
    imports, each attribute chain rooted at one, and each call of one."""
    out = []
    for tree in _trees(source):
        names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "crossemb":
                for alias in node.names:
                    try:
                        obj = getattr(importlib.import_module(node.module), alias.name)
                    except AttributeError as exc:
                        out.append((f"{node.module}.{alias.name}", f"does not resolve: {exc}"))
                    else:
                        names[alias.asname or alias.name] = obj
        for node in ast.walk(tree):
            call = isinstance(node, ast.Call)
            chain = _chain(node.func if call else node)
            if not chain or chain[0] not in names or not (call or len(chain) > 1):
                continue
            dotted = ".".join(chain)
            try:
                obj = _resolve(names[chain[0]], chain[1:])
            except AttributeError as exc:
                out.append((dotted, f"does not resolve: {exc}"))
                continue
            problem = None
            unpacked = call and (any(isinstance(a, ast.Starred) for a in node.args)
                                 or any(k.arg is None for k in node.keywords))
            if call and not unpacked:
                try:
                    inspect.signature(obj).bind_partial(
                        *node.args, **{k.arg: k.value for k in node.keywords})
                except TypeError as exc:
                    problem = f"call does not bind: {exc}"
            out.append((dotted, problem))
    return out


def _assert_names_resolve(path: Path):
    used = used_names(path.read_text())
    assert used, f"no crossemb names found in {path.relative_to(ROOT)}"
    assert [(name, problem) for name, problem in used if problem] == []


@pytest.mark.parametrize("source", ["workloads.py", "run.py"])
def test_bench_module_attributes_resolve(source):
    _assert_names_resolve(BENCH / source)


def test_gate_attributes_resolve():
    _assert_names_resolve(ROOT / "gate" / "test_paper_claims.py")


def test_traced_targets_resolve():
    tree = ast.parse((BENCH / "layertrace.py").read_text())
    paths = [node.args[0].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Target" and node.args
             and isinstance(node.args[0], ast.Constant)]
    assert len(paths) >= 20
    missing = []
    for path in paths:
        module, *attrs = path.split(".")
        try:
            _resolve(importlib.import_module(f"crossemb.{module}"), attrs)
        except (ImportError, AttributeError) as exc:
            missing.append((path, repr(exc)))
    assert missing == []
