"""Lossy channel model with a collectively squeezed thermal environment.

Each of the ``n`` input modes is mixed on a beamsplitter of transmissivity
``eta`` with one mode of an n-mode environment.  The environment is a thermal
state (mean photon number ``temp`` per mode) squeezed by exp(s * Omega) in q
and exp(-s * Omega) in p, where Omega is the nearest-neighbour coupling
matrix (ones on the first off-diagonals).

Because Omega's eigenbasis is orthogonal, rotating every input into that
basis splits the channel into independent single-mode attenuators whose
environment mode j is a squeezed thermal state with squeezing
s_j = s * lambda_j.  Most capacity computations happen in that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_MODES",
    "ChannelConfig",
    "OmegaSpectrum",
    "GlobalEnvMode",
    "PassiveEnvSpec",
    "omega_matrix",
    "omega_spectrum",
    "env_global_modes",
    "env_local_covariance",
    "local_effective_temperature",
    "build_passive_env",
    "passive_env_modes",
    "passive_spec_from_config",
]

MAX_MODES = 64


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters.

    n     : number of uses (environment modes), 1 <= n <= MAX_MODES
    eta   : beamsplitter transmissivity, 0 <= eta <= 1
    s     : collective squeezing strength (any sign, finite)
    temp  : mean thermal photon number T of each environment mode, finite, >= 0
    nbar  : mean photon number constraint N per channel use, finite, >= 0
    """

    n: int
    eta: float
    s: float
    temp: float = 0.0
    nbar: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not 1 <= self.n <= MAX_MODES:
            raise ValueError(f"n must be in 1..{MAX_MODES}, got {self.n}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        # NaN passes every ordered comparison, so finiteness is checked first
        if not (math.isfinite(self.temp) and self.temp >= 0.0):
            raise ValueError(f"temp must be finite and >= 0, got {self.temp}")
        if not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")


@dataclass(frozen=True)
class OmegaSpectrum:
    """Eigendecomposition of the environment coupling matrix.

    ``lambdas[j]`` is the eigenvalue 2 cos(pi (j+1) / (n+1)); ``vectors[j]``
    is the corresponding eigenvector, vectors[j, k] =
    sqrt(2/(n+1)) sin((j+1)(k+1) pi / (n+1)).  The eigenvector matrix is both
    orthogonal and symmetric.  Eigenvalues are stored exactly sign-symmetric:
    lambdas[n-1-j] == -lambdas[j], with an exact zero in the middle for odd n.
    """

    lambdas: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lambdas)


def omega_matrix(n: int) -> np.ndarray:
    """Nearest-neighbour coupling matrix: ones on the first off-diagonals."""
    omega = np.zeros((n, n))
    idx = np.arange(n - 1)
    omega[idx, idx + 1] = 1.0
    omega[idx + 1, idx] = 1.0
    return omega


def omega_spectrum(n: int) -> OmegaSpectrum:
    """Closed-form spectrum of :func:`omega_matrix` for ``n`` modes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lam = np.empty(n)
    for j in range(1, n // 2 + 1):
        val = 2.0 * math.cos(math.pi * j / (n + 1))
        lam[j - 1] = val
        lam[n - j] = -val
    if n % 2:
        lam[n // 2] = 0.0
    j = np.arange(1, n + 1)
    vec = math.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * math.pi / (n + 1))
    return OmegaSpectrum(lambdas=lam, vectors=vec)


@dataclass(frozen=True)
class GlobalEnvMode:
    """Environment mode in the decoupling basis.

    Covariance (temp + 1/2) diag(e^s, e^-s); ``index`` is 1-based.
    """

    index: int
    s: float
    temp: float

    def covariance(self) -> np.ndarray:
        v = self.temp + 0.5
        return np.diag([v * math.exp(self.s), v * math.exp(-self.s)])


def env_global_modes(cfg: ChannelConfig) -> list[GlobalEnvMode]:
    """Per-mode environment parameters in the decoupling basis."""
    spectrum = omega_spectrum(cfg.n)
    return [
        GlobalEnvMode(index=j + 1, s=cfg.s * spectrum.lambdas[j], temp=cfg.temp)
        for j in range(cfg.n)
    ]


def env_local_covariance(cfg: ChannelConfig) -> np.ndarray:
    """Environment covariance in the physical mode basis, block ordering.

    Returns the 2n x 2n matrix (temp + 1/2) (e^{s Omega} (+) e^{-s Omega}).
    """
    spectrum = omega_spectrum(cfg.n)
    r = spectrum.vectors
    v = cfg.temp + 0.5
    sq = r.T @ np.diag(np.exp(cfg.s * spectrum.lambdas)) @ r
    sp = r.T @ np.diag(np.exp(-cfg.s * spectrum.lambdas)) @ r
    n = cfg.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = v * sq
    out[n:, n:] = v * sp
    return out


def local_effective_temperature(cfg: ChannelConfig, k: int) -> float:
    """Effective thermal photon number seen by the single physical mode ``k``.

    T_eff(k) = (temp + 1/2) sum_j v_{j,k}^2 e^{s_j} - 1/2, the q-variance of
    the k-th environment marginal shifted back to photon-number units.  It
    equals ``temp`` at s = 0 and grows with the squeezing |s|.  ``k`` is
    1-based.
    """
    spectrum = omega_spectrum(cfg.n)
    if not 1 <= k <= cfg.n:
        raise ValueError(f"mode index must be in 1..{cfg.n}, got {k}")
    weights = spectrum.vectors[:, k - 1] ** 2
    qvar = (cfg.temp + 0.5) * float(weights @ np.exp(cfg.s * spectrum.lambdas))
    return qvar - 0.5


@dataclass(frozen=True)
class PassiveEnvSpec:
    """Environment specified by a passive (orthogonal symplectic) rotation.

    The covariance is O (D_Q (+) D_P) O^T with O = [[X, Y], [-Y, X]].
    ``x`` and ``y`` are the n x n blocks; ``d_q`` and ``d_p`` hold the
    diagonals of D_Q and D_P.
    """

    x: np.ndarray
    y: np.ndarray
    d_q: np.ndarray
    d_p: np.ndarray

    def validate(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        n = x.shape[0]
        if x.shape != (n, n) or y.shape != (n, n):
            raise ValueError("x and y must be square blocks of equal size")
        if np.shape(self.d_q) != (n,) or np.shape(self.d_p) != (n,):
            raise ValueError("d_q and d_p must be length-n diagonals")
        if np.max(np.abs(x @ x.T + y @ y.T - np.eye(n))) > 1e-10:
            raise ValueError("blocks fail X X^T + Y Y^T = 1")
        if np.max(np.abs(x @ y.T - y @ x.T)) > 1e-10:
            raise ValueError("blocks fail X Y^T - Y X^T = 0")
        dq = np.asarray(self.d_q, dtype=float)
        dp = np.asarray(self.d_p, dtype=float)
        if np.any(dq <= 0.0) or np.any(dp <= 0.0):
            raise ValueError("squeezed diagonals must be positive")
        if np.any(dq * dp < 0.25 - 1e-12):
            raise ValueError("diagonal products violate the uncertainty bound")

    @property
    def n(self) -> int:
        return np.shape(self.x)[0]


def build_passive_env(spec: PassiveEnvSpec) -> np.ndarray:
    """Assemble the 2n x 2n environment covariance from a passive spec."""
    spec.validate()
    x = np.asarray(spec.x, dtype=float)
    y = np.asarray(spec.y, dtype=float)
    dq = np.asarray(spec.d_q, dtype=float)
    dp = np.asarray(spec.d_p, dtype=float)
    o = np.block([[x, y], [-y, x]])
    d = np.diag(np.concatenate([dq, dp]))
    return o @ d @ o.T


def passive_env_modes(spec: PassiveEnvSpec) -> list[GlobalEnvMode]:
    """Independent squeezed thermal modes equivalent to a passive spec.

    Mode j has temp_j = sqrt(d_q[j] d_p[j]) - 1/2 and squeezing
    s_j = ln(d_q[j] / d_p[j]) / 2.
    """
    spec.validate()
    modes = []
    for j in range(spec.n):
        dq = float(spec.d_q[j])
        dp = float(spec.d_p[j])
        modes.append(
            GlobalEnvMode(
                index=j + 1,
                s=0.5 * math.log(dq / dp),
                temp=math.sqrt(dq * dp) - 0.5,
            )
        )
    return modes


def passive_spec_from_config(cfg: ChannelConfig) -> PassiveEnvSpec:
    """Passive-form description of the standard collective environment."""
    spectrum = omega_spectrum(cfg.n)
    v = cfg.temp + 0.5
    s_j = cfg.s * spectrum.lambdas
    return PassiveEnvSpec(
        x=spectrum.vectors.T.copy(),
        y=np.zeros((cfg.n, cfg.n)),
        d_q=v * np.exp(s_j),
        d_p=v * np.exp(-s_j),
    )
