"""Gaussian-state primitives: covariance containers, entropies, symplectic spectra.

Conventions used throughout the package:

* hbar = 1, so the vacuum has quadrature variance 1/2 and every symplectic
  eigenvalue of a physical covariance matrix is >= 1/2.
* Entropies are reported in bits.
* Multimode covariance matrices are stored in block ordering
  (q_1 .. q_m, p_1 .. p_m).  Two-mode containers built from explicit 4x4
  matrices use the interleaved ordering (q_1, p_1, q_2, p_2) and are
  converted internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG2 = math.log(2.0)

__all__ = [
    "UnphysicalStateError",
    "TwoModeCov",
    "g_entropy",
    "g_prime",
    "symplectic_form",
    "symplectic_eigenvalues",
    "von_neumann_entropy",
    "purify_single_mode",
    "ppt_min_symplectic",
    "reduce_to_mode",
    "interleaved_to_block",
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
    if x <= 0.0:
        if x < -1e-9:
            raise ValueError(f"mean excitation number must be >= 0, got {x}")
        return 0.0
    return (x * math.log1p(1.0 / x) + math.log1p(x)) / _LOG2


def g_prime(x: float) -> float:
    """Derivative of :func:`g_entropy`: log2(1 + 1/x).  Requires x > 0."""
    if x <= 0.0:
        raise ValueError(f"g_prime needs x > 0, got {x}")
    return math.log1p(1.0 / x) / _LOG2


@dataclass(frozen=True)
class TwoModeCov:
    """Two-mode covariance in block form [[A, C^T], [C, B]].

    A and B are the 2x2 single-mode blocks in (q, p) ordering, C the
    intermodal correlation block.  ``matrix()`` returns the interleaved
    (q1, p1, q2, p2) matrix.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for name, blk in (("a", self.a), ("b", self.b), ("c", self.c)):
            if np.shape(blk) != (2, 2):
                raise ValueError(f"block {name} must be 2x2")

    def matrix(self) -> np.ndarray:
        return np.block([[self.a, self.c.T], [self.c, self.b]])

    def symplectic_eigenvalues(self) -> np.ndarray:
        return symplectic_eigenvalues(interleaved_to_block(self.matrix()))


def symplectic_form(m: int) -> np.ndarray:
    """Symplectic form [[0, I], [-I, 0]] for m modes in block ordering."""
    eye = np.eye(m)
    zero = np.zeros((m, m))
    return np.block([[zero, eye], [-eye, zero]])


def interleaved_to_block(mat: np.ndarray) -> np.ndarray:
    """Reorder a covariance from (q1,p1,...,qm,pm) to (q1..qm, p1..pm)."""
    dim = mat.shape[0]
    if dim % 2 or mat.shape != (dim, dim):
        raise ValueError("covariance matrix must be 2m x 2m")
    perm = np.r_[0:dim:2, 1:dim:2]
    return mat[np.ix_(perm, perm)]


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


def von_neumann_entropy(cov: np.ndarray) -> float:
    """Von Neumann entropy in bits of the Gaussian state with covariance ``cov``.

    ``cov`` is 2m x 2m in block ordering.  Sum of g(nu_k - 1/2) over the
    symplectic spectrum; symplectic eigenvalues within 1e-9 below 1/2 are
    treated as exactly 1/2.
    """
    nus = symplectic_eigenvalues(cov)
    return float(sum(g_entropy(max(nu - 0.5, 0.0)) for nu in nus))


def purify_single_mode(t: float, r: float) -> TwoModeCov:
    """Two-mode purification of the squeezed thermal state (t, r).

    Returns the standard-form pure covariance with blocks
    A = diag(a, b), B = diag(b, a), C = diag(x, -x) where
    a = (t+1/2)e^r, b = (t+1/2)e^-r and x = sqrt(ab - 1/4).
    The first mode's marginal is the input state.
    """
    if t < -1e-12:
        raise UnphysicalStateError(f"thermal photon number must be >= 0, got {t}")
    t = max(t, 0.0)
    v = t + 0.5
    a = v * math.exp(r)
    b = v * math.exp(-r)
    x = math.sqrt(max(a * b - 0.25, 0.0))
    return TwoModeCov(
        a=np.diag([a, b]),
        b=np.diag([b, a]),
        c=np.diag([x, -x]),
    )


def ppt_min_symplectic(cov: TwoModeCov) -> float:
    """Smallest symplectic eigenvalue after partial transposition.

    Flips the sign of the second mode's momentum and recomputes the
    symplectic spectrum.  The state is PPT-separable iff the returned value
    is >= 1/2.  The input must itself be physical.
    """
    mat = cov.matrix()
    # physicality check on the original state
    symplectic_eigenvalues(interleaved_to_block(mat))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    tilted = flip @ mat @ flip
    nus = symplectic_eigenvalues(interleaved_to_block(tilted), check=False)
    return float(nus.min())


def reduce_to_mode(cov: np.ndarray, k: int) -> np.ndarray:
    """2x2 marginal covariance of mode ``k`` (1-based) in (q, p) ordering.

    ``cov`` is 2m x 2m in block ordering.
    """
    cov = np.asarray(cov, dtype=float)
    dim = cov.shape[0]
    if dim % 2 or cov.shape != (dim, dim):
        raise ValueError("covariance matrix must be 2m x 2m")
    m = dim // 2
    if not 1 <= k <= m:
        raise ValueError(f"mode index must be in 1..{m}, got {k}")
    i = k - 1
    idx = [i, m + i]
    return cov[np.ix_(idx, idx)]
