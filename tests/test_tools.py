"""tools/ab_interleaved.py refuses runs it cannot keep apart or summarize."""

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
