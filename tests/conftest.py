"""Pin BLAS to one thread before numpy loads.

The tests factor many small matrices, which run faster on one BLAS thread
than on several; a value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
