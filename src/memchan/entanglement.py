"""Entanglement diagnostics for optimal seeds and the two-use environment.

Two questions are covered.  First, how entangled across channel uses is the
seed of an optimal global encoding: it is a product of squeezed thermal
normal modes, so any single physical mode is left in a mixed marginal whose
von Neumann entropy witnesses the inter-use entanglement (exactly, when the
seed is pure), read from the encoding's (t, r) and Omega's eigenbasis.
Second, where does the two-use environment state stop being separable: for
1x1 mode splits the Gaussian PPT criterion is necessary and sufficient, so
the boundary is the nu-tilde = 1/2 contour of the partially transposed
covariance.

Both have closed forms.  In (q1, p1, q2, p2) ordering the environment is in
symmetric standard form, A = B = v cosh(s) I and C = v sinh(s) diag(1, -1)
with v = T + 1/2.  Partial transposition flips the sign of C's second entry,
so the transposed state's symplectic eigenvalues are v e^{-|s|} and
v e^{|s|}: nu-tilde = (T + 1/2) e^{-|s|}, and the state is separable iff
T >= (e^{|s|} - 1)/2.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import omega_spectrum
from .gaussian import g_entropy
from .information import EncodingParams

__all__ = [
    "mean_reduced_entropy",
    "env_min_ppt_symplectic",
    "separability_boundary_temp",
    "env_separability_scan",
]


def mean_reduced_entropy(params: EncodingParams) -> float:
    """Mean entropy of the single-mode marginals of a normal-mode encoding's seed.

    ``params`` must be such an encoding, as the three global optimizers
    return: seed j, (t_j + 1/2) diag(e^{r_j}, e^{-r_j}), lives on Omega's
    j-th eigenvector.  Averages S(rho_k) over the n one-versus-rest
    partitions; for a pure seed (t = 0, as in every ``maximize_classical``
    encoding) each term is the entropy of entanglement of that partition,
    for a mixed seed just the mean marginal entropy.
    """
    t = np.asarray(params.t)
    r = np.asarray(params.r)
    dq = (t + 0.5) * np.exp(r)
    dp = (t + 0.5) * np.exp(-r)
    # marginal k is diag(sum_j v_jk^2 dq_j, sum_j v_jk^2 dp_j): no q-p terms
    w = omega_spectrum(params.n_modes).vectors ** 2
    qvar = w.T @ dq
    pvar = w.T @ dp
    nus = np.sqrt(qvar * pvar)
    return math.fsum(g_entropy(nu - 0.5) for nu in nus) / params.n_modes


def env_min_ppt_symplectic(s: float, temp: float) -> float:
    """Smallest symplectic eigenvalue of the partially transposed env state.

    Closed form (temp + 1/2) e^{-|s|}; the state is separable iff the
    returned value is >= 1/2.  Raises ``ValueError`` unless s is finite
    and temp finite and nonnegative.
    """
    if not math.isfinite(s):
        raise ValueError(f"squeezing must be finite, got s={s}")
    if not math.isfinite(temp) or temp < 0:
        raise ValueError("temperature parameter must be finite and nonnegative")
    return (temp + 0.5) * math.exp(-abs(s))


def separability_boundary_temp(s: float) -> float:
    """Temperature where the two-use environment turns separable.

    Closed form (e^{|s|} - 1)/2, the root of (T + 1/2) e^{-|s|} = 1/2;
    0.0 at s = 0, where the state is separable for every temperature.
    Raises ``ValueError`` where the boundary overflows a float (|s| > 709.78)
    and where s is not finite.
    """
    if not math.isfinite(s):
        raise ValueError(f"squeezing must be finite, got s={s}")
    try:
        return 0.5 * math.expm1(abs(s))
    except OverflowError:
        raise ValueError(f"separability boundary overflows at s={s}") from None


def env_separability_scan(s_grid, temp_grid) -> np.ndarray:
    """Separability boundary points of the two-use environment.

    T_boundary is :func:`separability_boundary_temp` at each squeezing
    value; points whose crossing lies outside [min(temp_grid),
    max(temp_grid)] are omitted.  Returns an array of (s, T_boundary) rows.
    Raises ``ValueError`` on an empty grid, a non-finite entry or a negative
    temperature.
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    temp_grid = np.atleast_1d(np.asarray(temp_grid, dtype=float))
    if s_grid.size == 0 or temp_grid.size == 0:
        raise ValueError("scan grids must be nonempty")
    t_lo = float(temp_grid.min())
    t_hi = float(temp_grid.max())
    if not np.isfinite(temp_grid).all() or t_lo < 0:
        raise ValueError("temperature grid must be finite and nonnegative")
    points = []
    for s in s_grid:
        t_b = separability_boundary_temp(s)
        if t_lo <= t_b <= t_hi:
            points.append((s, t_b))
    return np.array(points).reshape(-1, 2)
