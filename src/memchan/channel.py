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

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_MODES",
    "MAX_ABS_S",
    "MAX_TEMP",
    "MAX_NBAR",
    "ChannelConfig",
    "OmegaSpectrum",
    "GlobalEnvMode",
    "omega_spectrum",
    "env_global_modes",
    "local_effective_temperature",
]

MAX_MODES = 64
# Input domain, checked by ChannelConfig alone; every rate is finite
# inside it.  The optimizers reach the infinite-squeezing limits well inside
# |s| <= 60, while the per-mode kernels overflow from s = 95 at n = 10 (92 at
# n = 64), and at T = 1e80 even at s = 0.  At N = 1e300 the photon budget
# overflows them too; every rate is finite at the N = 1e6 corners.
MAX_ABS_S = 60.0
MAX_TEMP = 1e6
MAX_NBAR = 1e6


def _as_int(name: str, value) -> int:
    """``value`` as a builtin int; a bool or a non-integral value raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters.

    n     : number of uses (environment modes), 1 <= n <= MAX_MODES
    eta   : beamsplitter transmissivity, 0 <= eta <= 1
    s     : collective squeezing strength, |s| <= MAX_ABS_S (any sign)
    temp  : mean thermal photon number T of each environment mode, 0 <= T <= MAX_TEMP
    nbar  : mean photon number constraint N per channel use, 0 <= N <= MAX_NBAR
    """

    n: int
    eta: float
    s: float
    temp: float = 0.0
    nbar: float = 0.0

    def __post_init__(self) -> None:
        # kept as builtin int and floats: integer or numpy inputs go no further
        object.__setattr__(self, "n", _as_int("n", self.n))
        for name in ("eta", "s", "temp", "nbar"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 1 <= self.n <= MAX_MODES:
            raise ValueError(f"n must be in 1..{MAX_MODES}, got {self.n}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        # NaN fails every ordered comparison, so these also reject it
        if not abs(self.s) <= MAX_ABS_S:
            raise ValueError(f"s must lie in [-{MAX_ABS_S:g}, {MAX_ABS_S:g}], got {self.s}")
        if not 0.0 <= self.temp <= MAX_TEMP:
            raise ValueError(f"temp must lie in [0, {MAX_TEMP:g}], got {self.temp}")
        if not 0.0 <= self.nbar <= MAX_NBAR:
            raise ValueError(f"nbar must lie in [0, {MAX_NBAR:g}], got {self.nbar}")


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


@functools.lru_cache(maxsize=MAX_MODES)
def omega_spectrum(n: int) -> OmegaSpectrum:
    """Closed-form spectrum of Omega; cached per n, so its arrays are read-only."""
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
    lam.flags.writeable = vec.flags.writeable = False
    return OmegaSpectrum(lambdas=lam, vectors=vec)


@dataclass(frozen=True)
class GlobalEnvMode:
    """Environment mode in the decoupling basis.

    Covariance (temp + 1/2) diag(e^s, e^-s); ``index`` is 1-based.
    """

    index: int
    s: float
    temp: float

    @functools.cached_property
    def variances(self) -> tuple[float, float]:
        """The q and p variances (temp + 1/2) e^{+s} and (temp + 1/2) e^{-s}.

        Computed on first access, so constructing a mode never overflows.
        """
        v = self.temp + 0.5
        return v * math.exp(self.s), v * math.exp(-self.s)

    def covariance(self) -> np.ndarray:
        return np.diag(self.variances)


def env_global_modes(cfg: ChannelConfig) -> list[GlobalEnvMode]:
    """Per-mode environment parameters in the decoupling basis."""
    lambdas = omega_spectrum(cfg.n).lambdas.tolist()  # builtin floats, not numpy scalars
    return [GlobalEnvMode(index=j + 1, s=cfg.s * lambdas[j], temp=cfg.temp) for j in range(cfg.n)]


def local_effective_temperature(cfg: ChannelConfig, k: int) -> float:
    """Effective thermal photon number seen by the single physical mode ``k``.

    T_eff(k) = (temp + 1/2) sum_j v_{j,k}^2 e^{s_j} - 1/2, the q-variance of
    the k-th environment marginal shifted back to photon-number units.  It
    grows with the squeezing |s|.  At s = 0 it is ``temp`` only up to
    roundoff in the weighted sum: within 4.4e-15 (temp + 1/2) for every
    n <= 64, not exactly.  ``k`` is 1-based.
    """
    spectrum = omega_spectrum(cfg.n)
    if not 1 <= k <= cfg.n:
        raise ValueError(f"mode index must be in 1..{cfg.n}, got {k}")
    weights = spectrum.vectors[:, k - 1] ** 2
    qvar = (cfg.temp + 0.5) * float(weights @ np.exp(cfg.s * spectrum.lambdas))
    return qvar - 0.5
