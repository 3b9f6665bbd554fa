"""Real symmetric operator algebra, and the BLAS thread count it runs at.

Everything downstream (state encodings, centroids, the measurement
construction) works with real symmetric matrices, so this module collects the
few dense linear-algebra primitives needed: eigendecomposition,
pseudoinverse square roots with image bases, and tensor powers of vectors
and matrix rows, on plain float64 arrays. ``eigh``'s result depends on the
process-wide BLAS thread count: :func:`one_blas_thread` pins it under a
module lock, and :func:`resolve_workers` counts the usable cores.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

from .errors import DenseBlowup, InvalidArgument, InvalidOperator, NotPositiveSemidefinite

#: Relative eigenvalue cutoff below which a pseudoinverse treats a direction
#: as part of the kernel.
RANK_TOL = 1e-10

#: How far below zero an eigenvalue may sit before PSD-requiring operations
#: refuse the input. Small negatives within this band are clipped to zero.
NEG_EIG_TOL = 1e-8

#: Largest operator dimension the dense code path will materialise. Tensor
#: lifts past this must go through the Gram-space engine instead.
DENSE_DIM_LIMIT = 4096


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part ``(A + A.T) / 2`` as a float64 array.

    Raises
    ------
    InvalidOperator
        If the input is not a square matrix with finite entries.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidOperator(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidOperator("matrix entries must be finite")
    return (a + a.T) / 2.0


def eig_sym(a):
    """``np.linalg.eigh`` of a real symmetric matrix: ascending eigenvalues, eigenvector columns.

    The input is symmetrized first, so mildly asymmetric round-off is
    tolerated.
    """
    return np.linalg.eigh(symmetrize(a))


def pinv_sqrt(a):
    """Moore-Penrose inverse square root of a PSD matrix, with an orthonormal
    basis of its kept image: ``(inv_sqrt, image_basis)``.

    ``inv_sqrt`` acts as the inverse square root on the image and as zero on
    the kernel, onto which ``I - image_basis @ image_basis.T`` projects.
    Eigenvalues at or below :data:`RANK_TOL` times the largest eigenvalue
    are treated as exactly zero and assigned to the kernel. The zero matrix
    is valid input and yields ``inv_sqrt = 0`` and an empty basis.

    Parameters
    ----------
    a : array_like
        Symmetric PSD matrix (eigenvalues above ``-NEG_EIG_TOL``).
    """
    w, v = eig_sym(a)
    low = float(w[0])
    if low < -NEG_EIG_TOL:
        raise NotPositiveSemidefinite(f"eigenvalue {low:.3e} below -{NEG_EIG_TOL:.0e}")
    w = np.clip(w, 0.0, None)
    keep = w > RANK_TOL * float(w[-1])
    vs = v[:, keep]
    return symmetrize((vs * w[keep] ** -0.5) @ vs.T), vs


def lifted_dimension(dim: int, copies: int) -> int | None:
    """The n-copy dimension ``dim ** copies``, or None past :data:`DENSE_DIM_LIMIT`.

    Any dim of 2 or more passes the limit within 13 copies, so the exponent
    is capped at 64 and no copy count builds a huge integer or float.
    """
    side = int(dim) ** min(int(copies), 64)
    return side if side <= DENSE_DIM_LIMIT else None


def tensor_power(v, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector, or of every row of a matrix.

    The entry at multi-index ``(i_1, ..., i_n)`` is the product
    ``v[i_1] * ... * v[i_n]``; unit vectors stay unit, and rows lift bit for
    bit as vectors do. Raises :class:`DenseBlowup` past :data:`DENSE_DIM_LIMIT`.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2):
        raise InvalidOperator(f"expected a vector or a matrix, got shape {v.shape}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgument(f"copy count must be a positive integer, got {n!r}")
    d = v.shape[-1]
    if lifted_dimension(d, n) is None:
        raise DenseBlowup(
            f"tensor power dimension {d}^{n} exceeds the dense limit "
            f"{DENSE_DIM_LIMIT}; use the gram engine"
        )
    out = v
    for _ in range(n - 1):  # an explicit width, so a matrix with no rows reshapes too
        out = (out[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], out.shape[-1] * d)
    return out


#: The thread-count getter and setter pairs that the OpenBLAS bundled with
#: numpy's wheels may export, tried in turn: numpy 2's, then numpy 1.x's.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.cache
def _openblas_thread_functions():
    """``(get, set)`` thread-count functions of the BLAS numpy's ``eigh``
    calls, or None when that BLAS does not export them (MKL, Accelerate, a
    system BLAS). The symbols are looked up through numpy's linear-algebra
    extension, whose library search covers the BLAS it is linked to, so the
    functions control that copy and no other. Looked up on the first call,
    so importing the package does not do it."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for names in _OPENBLAS_THREAD_FUNCTIONS:
        try:
            get, set_ = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


#: Held by :func:`one_blas_thread` for its whole block.
_blas_lock = threading.Lock()


@contextmanager
def one_blas_thread():
    """Run the block with numpy's BLAS set to one thread, restoring the
    previous count on exit. Yields whether the count could be set; when it
    cannot, nothing is changed and the block runs with False. The thread
    count is process-wide, so the block holds a module lock either way:
    blocks that threads enter at once run one after the other."""
    with _blas_lock:
        functions = _openblas_thread_functions()
        if functions is None:
            yield False
            return
        get, set_ = functions
        previous = get()
        set_(1)
        try:
            yield True
        finally:
            set_(previous)


#: cgroup v2 CPU quota of the process's cgroup: ``"<quota> <period>"`` in
#: microseconds, or ``"max <period>"`` for none. Inside a container's cgroup
#: namespace this file is the container's own.
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _quota_cpus() -> int | None:
    """CPUs the cgroup v2 quota allows, ``ceil(quota / period)``; None when
    there is no quota or the file is missing or malformed."""
    try:
        with open(_CGROUP_CPU_MAX, encoding="ascii") as fh:
            quota, period = fh.read().split()
        if quota == "max":
            return None
        quota, period = int(quota), int(period)
    except (OSError, ValueError):
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def resolve_workers(workers, n_tasks: int) -> int:
    """Worker count for ``n_tasks`` tasks: ``workers``, by default one per
    usable core, and at most one per task. Usable cores are those of the CPU
    affinity mask, capped by a cgroup v2 CPU quota (:func:`_quota_cpus`).
    A ``workers`` that is not None or an integer of at least 1 is refused."""
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            workers = os.cpu_count() or 1
        workers = min(workers, _quota_cpus() or workers)
    elif type(workers) is not int or workers < 1:
        raise InvalidArgument(f"worker count must be an integer of at least 1, got {workers!r}")
    return max(1, min(workers, n_tasks))
