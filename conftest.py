"""Shared by the tests/, gate/ and bench/ suites: one BLAS thread per
process, set before any test module loads numpy (see the crossemb
package docstring)."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
