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
they are set already. BLAS reads them when numpy loads; where numpy
loaded first with one unset, crossemb sets the OpenBLAS of numpy's
wheel to one thread. `BLAS_PINNED` is True only where BLAS runs one.
"""

import os
import sys

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Whether the variables pin BLAS: numpy loads after they are set, or it
# loaded first with each of them at 1 already.
_VARS_PIN = "numpy" not in sys.modules or all(os.environ.get(v) == "1" for v in _BLAS_VARS)
# A list, not a generator, so that every variable is set.
_ONE_ASKED = all([os.environ.setdefault(v, "1") == "1" for v in _BLAS_VARS])


def _pin_bundled_openblas() -> bool:
    """Set the OpenBLAS bundled with numpy's wheel (numpy.libs) to one
    thread; whether it then runs one. False where numpy has none."""
    import ctypes
    import glob

    import numpy

    for path in glob.glob(os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas*"):
        try:
            lib = ctypes.CDLL(path)
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(1)
            return get_threads() == 1
        except (OSError, AttributeError):
            pass
    return False


BLAS_PINNED = _ONE_ASKED and (_VARS_PIN or _pin_bundled_openblas())

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
