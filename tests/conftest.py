"""Import the package before any test module loads numpy.

eigensample's __init__ turns EIGENSAMPLE_THREADS into the BLAS thread
variables, which BLAS reads once, when numpy first loads it.  Every test
module imports numpy first, so without this import the suite would run
with the default thread pool whatever EIGENSAMPLE_THREADS says.
"""
import eigensample  # noqa: F401
