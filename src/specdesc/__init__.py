"""Spectral descriptors for deformable triangle meshes.

Laplace-Beltrami spectra (shape DNA), heat and wave kernel signatures, and
task-trained spectral filters learned from positive/negative point pairs,
with ROC/CMC evaluation protocols and a synthetic shape corpus.
"""

import os

# One OpenBLAS thread unless the caller chose a count. The blocked kernels of
# these eigensolves are too small to repay thread hand-offs: on a 2-core
# x86_64 host, `spectrum` over an 18-shape corpus took 3.5-4.9 s wall and
# 5.7-7.0 s CPU at OpenBLAS's default two threads, 2.9-3.1 s wall and 2.8 s
# CPU at one. It must run before numpy loads; it also reaches the OpenBLAS
# that scipy loads at the first solve, and it keeps results independent of
# the host's core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (  # noqa: E402
    DataError,
    MeshValidationError,
    NumericalError,
    ParseError,
    SpecdescError,
)
from .mesh import TriangleMesh, load_mesh  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "TriangleMesh",
    "load_mesh",
    "SpecdescError",
    "ParseError",
    "MeshValidationError",
    "DataError",
    "NumericalError",
    "__version__",
]
