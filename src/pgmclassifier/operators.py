"""Real symmetric operator algebra.

Everything downstream (state encodings, centroids, the measurement
construction) works with real symmetric matrices, so this module collects the
few dense linear-algebra primitives needed: eigendecomposition,
pseudoinverse square roots with image bases, and tensor powers of
vectors. All functions are pure and operate on plain float64 arrays.
"""

from __future__ import annotations

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
    """n-fold Kronecker power of a vector.

    The entry at multi-index ``(i_1, ..., i_n)`` is the product
    ``v[i_1] * ... * v[i_n]``; unit vectors stay unit. Raises
    :class:`DenseBlowup` when ``len(v) ** n`` exceeds :data:`DENSE_DIM_LIMIT`.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidOperator(f"expected a vector, got shape {v.shape}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidArgument(f"copy count must be a positive integer, got {n!r}")
    if lifted_dimension(v.size, n) is None:
        raise DenseBlowup(
            f"tensor power dimension {v.size}^{n} exceeds the dense limit "
            f"{DENSE_DIM_LIMIT}; use the gram engine"
        )
    out = v
    for _ in range(n - 1):
        out = np.kron(out, v)
    return out
