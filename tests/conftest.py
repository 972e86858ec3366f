"""Pins BLAS to one thread before any test module loads numpy, as the
`ltcl` console script does for itself (`ltcl.cli`): BLAS sums depend on
its thread count, and BLAS reads these variables once, when numpy loads
it. The in-process tests and the acceptance suite then run the BLAS
configuration of CI and of the CLI whatever the caller's environment."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
