"""The tests run numpy at one BLAS thread on any host.

The dense LU splits its sums by thread, so a late ``grasp_rotate`` step
reads differently at another thread count. These variables, set before
numpy's first import, fix that count at one; a value already in the
environment is replaced. Subprocesses the tests start inherit them.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before its thread count was set"
for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[name] = "1"
