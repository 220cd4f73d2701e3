"""Repository-level pytest configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed (e.g. running ``pytest`` straight from a fresh checkout), so the
test and benchmark suites never depend on the editable install having
succeeded first.

Also pins BLAS to one thread per process, as ``perfbench`` does, before
anything imports numpy.  The process and tcp runtimes fork one child per
worker plus a server, and every child inherits OpenBLAS's default of one
thread per core: on a 2-core host that is 3-5 processes x 2 spinning BLAS
threads, and the wall-clock suites time the scheduler instead of the code
(the 4-worker process backend measured 8-13 steps/s against 85-100 pinned).
An explicit setting in the environment wins.
"""

import os
import sys
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
