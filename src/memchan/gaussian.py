"""Gaussian-state primitives: entropies and symplectic spectra.

Conventions used throughout the package:

* hbar = 1, so the vacuum has quadrature variance 1/2 and every symplectic
  eigenvalue of a physical covariance matrix is >= 1/2.
* Entropies are reported in bits.
* Multimode covariance matrices are stored in block ordering
  (q_1 .. q_m, p_1 .. p_m).
"""

from __future__ import annotations

import math

import numpy as np

_LOG2 = math.log(2.0)

__all__ = [
    "UnphysicalStateError",
    "g_entropy",
    "g_prime",
    "symplectic_form",
    "symplectic_eigenvalues",
]


class UnphysicalStateError(ValueError):
    """Raised when a covariance matrix violates the uncertainty bound."""


def g_entropy(x: float) -> float:
    """Entropy of a thermal state with mean excitation number ``x``, in bits.

    g(x) = (x+1) log2(x+1) - x log2 x, with g(0) = 0.

    Evaluated as ``(x*log1p(1/x) + log1p(x)) / ln 2``, which is stable both
    for x -> 0 and for large x, where the textbook form loses ~10 digits to
    cancellation.  Arguments in [-1e-9, 0) are treated as roundoff and
    clamped to zero; anything more negative raises ``ValueError``.
    """
    if x < 1e-300:  # also where 1/x overflows
        if x <= 0.0:
            if x < -1e-9:
                raise ValueError(f"mean excitation number must be >= 0, got {x}")
            return 0.0
        return (x * _log1p_inv(x) + math.log1p(x)) / _LOG2
    return (x * math.log1p(1.0 / x) + math.log1p(x)) / _LOG2


def g_prime(x: float) -> float:
    """Derivative of :func:`g_entropy`: log2(1 + 1/x).  Requires x > 0."""
    if x < 1e-300:  # also where 1/x overflows
        if x <= 0.0:
            raise ValueError(f"g_prime needs x > 0, got {x}")
        return _log1p_inv(x) / _LOG2
    return math.log1p(1.0 / x) / _LOG2


def _log1p_inv(x: float) -> float:
    """log(1 + 1/x) for x > 0, as ``math.log1p(1.0 / x)`` wherever 1/x is finite.

    Below about 5.56e-309 1/x overflows, and the equal log1p(x) - log(x) is used.
    """
    inv = 1.0 / x
    return math.log1p(inv) if inv < math.inf else math.log1p(x) - math.log(x)


def symplectic_form(m: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] for m modes in block ordering."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_eigenvalues(cov: np.ndarray, check: bool = True) -> np.ndarray:
    """Symplectic eigenvalues of a 2m x 2m covariance in block ordering.

    Works on the real matrix (S cov)^2, whose eigenvalues are -nu^2 each with
    multiplicity two; this avoids a complex eigensolve.  Returned sorted in
    descending order, length m.

    Raises ``ValueError`` for a non-symmetric input and
    ``UnphysicalStateError`` if any eigenvalue falls below 1/2 - 1e-9 when
    ``check`` is set.
    """
    cov = np.asarray(cov, dtype=float)
    dim = cov.shape[0]
    if dim % 2 or cov.shape != (dim, dim):
        raise ValueError("covariance matrix must be 2m x 2m")
    if not np.allclose(cov, cov.T, atol=1e-8):
        raise ValueError("covariance matrix must be symmetric")
    m = dim // 2
    w = symplectic_form(m) @ cov
    ev = np.linalg.eigvals(w @ w)
    # eigenvalues are -nu_k^2, doubly degenerate, possibly with small
    # imaginary parts from roundoff
    nus = np.sqrt(np.maximum(-ev.real, 0.0))
    nus = np.sort(nus)[::-1]
    paired = 0.5 * (nus[0::2] + nus[1::2])
    if check and np.any(paired < 0.5 - 1e-9):
        raise UnphysicalStateError(
            f"symplectic eigenvalue below vacuum limit: min {paired.min():.6g}"
        )
    return paired
