"""Test-session setup shared by every test module.

Caps the BLAS and OpenMP thread pools at one thread, as ``perfbench/run.py``
does, before any test module loads numpy. On a small host a second BLAS
thread makes the small float32 matmuls of block encoding and the Gram
matrix many times slower, not faster. A value already set in the
environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
