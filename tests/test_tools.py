"""tools/ab_interleaved.py refuses runs it cannot keep apart or summarize,
and reports every pair it times; tools/unrun_lines.py lists the statements
no line of which ran."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_interleaved.py"


@pytest.mark.parametrize("args, message", [
    (["--workload", "cotrain"], "forked workers"),
    (["--workload", "retarget", "--pairs", "1"], "at least 2"),
], ids=["cotrain", "one_pair"])
def test_ab_interleaved_refuses(args, message):
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert message in proc.stderr


def test_ab_interleaved_prints_every_pair(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the tool sets these on import; restored afterwards
    spec = importlib.util.spec_from_file_location("ab_interleaved", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = tool.summary([0.5, 0.4, 0.6, 0.3], [0.45, 0.42, 0.5, 0.3])
    assert lines[:4] == ["pair 0: A first, A 0.5000 s, B 0.4500 s",
                         "pair 1: B first, A 0.4000 s, B 0.4200 s",
                         "pair 2: A first, A 0.6000 s, B 0.5000 s",
                         "pair 3: B first, A 0.3000 s, B 0.3000 s"]
    assert lines[4].startswith("A: median 0.4500 s") and lines[5].startswith("B: median 0.4350 s")
    assert lines[6] == "B faster in 2 of 4 pairs; median per-pair ratio B/A 0.950"
    assert lines[7] == ("gain rule not met: B won under 9/10 of the pairs; A median - B median "
                        "0.0150 s <= A quartile distance 0.1500 s")
    # 9 wins of 10, exactly the bar, and a median gap beyond A's spread.
    a_walls = [0.50, 0.52, 0.51, 0.53, 0.50, 0.52, 0.51, 0.53, 0.50, 0.52]
    lines = tool.summary(a_walls, [0.30] * 9 + [0.60])
    assert lines[-2].startswith("B faster in 9 of 10 pairs")
    assert lines[-1] == ("gain rule met: B won at least 9/10 of the pairs; A median - B median "
                         "0.2150 s > A quartile distance 0.0175 s")
    # Pair 8 is a tie, which counts for neither side: 8 wins of 10 fall short.
    lines = tool.summary(a_walls, [0.30] * 8 + [0.50, 0.60])
    assert lines[-1].startswith("gain rule not met: B won under 9/10 of the pairs")


UNRUN_SOURCE = '''"""Module docstring."""
import os


def f(x):
    """Docstring."""
    if x:
        return (1 +
                2)
    raise ValueError(
        "no")


@staticmethod
def g():
    pass
'''


def test_unrun_lines_lists_statements_no_line_of_which_ran():
    spec = importlib.util.spec_from_file_location("unrun_lines", ROOT / "tools" / "unrun_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.statements(UNRUN_SOURCE) == [(2, 2), (5, 11), (7, 9), (8, 9), (10, 11), (14, 16),
                                             (16, 16)]
    # The return ran on its second line only; the decorator line stands for g's definition.
    hits = {2, 5, 7, 9, 14}
    assert tool.unrun_statements(UNRUN_SOURCE, hits) == [(10, 11), (16, 16)]
    assert tool.listing("m.py", UNRUN_SOURCE, hits) == ['m.py:10-11: raise ValueError(',
                                                        "m.py:16: pass"]
    assert tool.unrun_statements(UNRUN_SOURCE, set()) == tool.statements(UNRUN_SOURCE)
    assert "forked workers" in tool.NOTE
