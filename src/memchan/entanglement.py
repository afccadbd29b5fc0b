"""Entanglement diagnostics for optimal seeds and the two-use environment.

Two questions are covered.  First, how entangled across channel uses is the
optimal seed state: the global-basis optimum is a product of squeezed thermal
modes, so any single physical mode is left in a mixed marginal whose von
Neumann entropy witnesses the inter-use entanglement (exactly, when the seed
is pure).  Second, where does the two-use environment state stop being
separable: for 1x1 mode splits the Gaussian PPT criterion is necessary and
sufficient, so the boundary is the nu-tilde = 1/2 contour of the partially
transposed covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import OmegaSpectrum
from .gaussian import TwoModeCov, g_entropy, ppt_min_symplectic
from .information import EncodingParams

__all__ = [
    "SeedState",
    "seed_local_covariance",
    "mean_reduced_entropy",
    "env_two_mode_cov",
    "env_min_ppt_symplectic",
    "separability_boundary_temp",
    "env_separability_scan",
]


@dataclass(frozen=True)
class SeedState:
    """Seed covariance in the decoupling basis plus the basis itself.

    ``t[j]`` and ``r[j]`` parametrize the j-th global-mode covariance
    (t_j + 1/2) diag(e^{r_j}, e^{-r_j}); ``basis`` holds the eigenvector
    rows mapping physical to global quadratures.
    """

    t: tuple[float, ...]
    r: tuple[float, ...]
    basis: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        if len(self.r) != n:
            raise ValueError("t and r must have equal length")
        if any(tj < 0 for tj in self.t):
            raise ValueError("thermal parameters must be nonnegative")
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (n, n):
            raise ValueError("basis must be an n x n matrix")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def from_encoding(cls, params: EncodingParams, spectrum: OmegaSpectrum) -> "SeedState":
        """Seed of an encoding: its (t, r) part in the spectrum's basis."""
        if params.n_modes != spectrum.n:
            raise ValueError("encoding size does not match spectrum size")
        return cls(t=params.t, r=params.r, basis=spectrum.vectors)

    @property
    def n(self) -> int:
        return len(self.t)


def seed_local_covariance(seed: SeedState) -> np.ndarray:
    """Seed covariance in the physical mode basis, block ordering.

    The basis change is passive (orthogonal on each quadrature block), so the
    trace and the symplectic spectrum are both preserved.
    """
    t = np.asarray(seed.t)
    r = np.asarray(seed.r)
    dq = (t + 0.5) * np.exp(r)
    dp = (t + 0.5) * np.exp(-r)
    v = seed.basis
    n = seed.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = v.T @ np.diag(dq) @ v
    out[n:, n:] = v.T @ np.diag(dp) @ v
    return out


def mean_reduced_entropy(seed: SeedState) -> float:
    """Mean entropy of the single-mode marginals in the physical basis.

    Averages S(rho_k) over the n one-versus-rest partitions.  For a pure
    seed each term is the entropy of entanglement of that partition; for a
    mixed seed this is just the mean marginal entropy.
    """
    t = np.asarray(seed.t)
    r = np.asarray(seed.r)
    dq = (t + 0.5) * np.exp(r)
    dp = (t + 0.5) * np.exp(-r)
    # marginal k is diag(sum_j v_jk^2 dq_j, sum_j v_jk^2 dp_j): no q-p terms
    w = seed.basis**2
    qvar = w.T @ dq
    pvar = w.T @ dp
    nus = np.sqrt(qvar * pvar)
    return math.fsum(g_entropy(nu - 0.5) for nu in nus) / seed.n


def env_two_mode_cov(s: float, temp: float) -> TwoModeCov:
    """Covariance of the two-use squeezed thermal environment.

    Closed form of (temp + 1/2)(e^{s Omega} (+) e^{-s Omega}) for the 2x2
    coupling Omega = [[0, 1], [1, 0]].
    """
    if temp < 0:
        raise ValueError("temperature parameter must be nonnegative")
    v = temp + 0.5
    ch = v * math.cosh(s)
    sh = v * math.sinh(s)
    block = np.diag([ch, ch])
    cross = np.diag([sh, -sh])
    return TwoModeCov(a=block, b=block, c=cross)


def env_min_ppt_symplectic(s: float, temp: float) -> float:
    """Smallest symplectic eigenvalue of the partially transposed env state.

    The state is separable iff the returned value is >= 1/2.
    """
    return ppt_min_symplectic(env_two_mode_cov(s, temp))


def _bisect_boundary(s: float, lo: float, hi: float) -> float:
    """Crossing of nu-tilde(T) = 1/2 in [lo, hi], entangled at lo, separable at hi."""
    while hi - lo > 1e-12 * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if env_min_ppt_symplectic(s, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def separability_boundary_temp(s: float) -> float:
    """Temperature where the two-use environment turns separable.

    Bisects nu-tilde(T) - 1/2, which is increasing in T; returns 0.0 at
    s = 0 where the state is separable for every temperature.
    """
    if env_min_ppt_symplectic(s, 0.0) >= 0.5:
        return 0.0
    lo, hi = 0.0, 64.0
    while env_min_ppt_symplectic(s, hi) < 0.5:
        lo, hi = hi, 2.0 * hi
        if hi > 1e9:
            raise ValueError(f"no separability crossing found below T={lo}")
    return _bisect_boundary(s, lo, hi)


def env_separability_scan(s_grid, temp_grid) -> np.ndarray:
    """Separability boundary points of the two-use environment.

    For each squeezing value the zero contour of nu-tilde - 1/2 is located
    by bisection in temperature; points whose crossing lies outside
    [min(temp_grid), max(temp_grid)] are omitted.  Returns an array of
    (s, T_boundary) rows.
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    temp_grid = np.atleast_1d(np.asarray(temp_grid, dtype=float))
    if s_grid.size == 0 or temp_grid.size == 0:
        raise ValueError("scan grids must be nonempty")
    t_lo = float(temp_grid.min())
    t_hi = float(temp_grid.max())
    if t_lo < 0:
        raise ValueError("temperature grid must be nonnegative")
    points = []
    for s in s_grid:
        if env_min_ppt_symplectic(s, t_lo) >= 0.5:
            if t_lo == 0.0 and env_min_ppt_symplectic(s, 0.0) == 0.5:
                points.append((s, 0.0))
            continue
        if env_min_ppt_symplectic(s, t_hi) < 0.5:
            continue
        points.append((s, _bisect_boundary(s, t_lo, t_hi)))
    return np.array(points).reshape(-1, 2)
