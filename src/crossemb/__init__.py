"""Cross-embodiment demonstration pipeline and retargeting engine.

Converts egocentric human captures and robot teleoperation logs into one
human-centric 54-dim state-action space, retimes them for co-training,
trains a chunked-action behavior-cloning policy with an EEF-weighted L1
loss, and retargets predicted actions to robot joint commands via
damped-least-squares IK.

crossemb computes with one BLAS thread per process: experiment
conditions run in parallel forked workers (`harness.run_conditions`),
and a multi-threaded BLAS both oversubscribes the cores there and
changes results in the last bits. Importing crossemb sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless
they are set already; BLAS reads them when numpy loads, so a process
that loads numpy first must set them itself.
"""

import os
import sys

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Whether BLAS runs one thread here: numpy loads after the variables are
# set, or it loaded first with each of them at 1 already.
BLAS_PINNED = "numpy" not in sys.modules or all(os.environ.get(v) == "1" for v in _BLAS_VARS)
for _var in _BLAS_VARS:
    BLAS_PINNED &= os.environ.setdefault(_var, "1") == "1"
del _var

from . import (  # noqa: E402
    dataset,
    embodiments,
    errors,
    geometry,
    harness,
    kinematics,
    policy,
    retiming,
    tasks,
    unified_space,
)

__version__ = "0.1.0"

__all__ = [
    "dataset",
    "embodiments",
    "errors",
    "geometry",
    "harness",
    "kinematics",
    "policy",
    "retiming",
    "tasks",
    "unified_space",
    "__version__",
]
