"""Closed-form capacity bounds and infinite-squeezing limits.

All rates are bits per channel use.  The classical bounds come from the
exactly solvable Holevo optimization: the upper bound is the maximal output
entropy g(eta*nbar + (1-eta)*M), the lower bound subtracts the per-mode
output entropy g((1-eta)*temp) reached by the matched squeezed encoding.
Each bound carries a validity flag for the parameter region where its
optimizer is feasible; inside that region the lower bound is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .allocation import _golden_max, allocate_photons
from .channel import ChannelConfig, GlobalEnvMode, env_global_modes, local_effective_temperature
from .gaussian import g_entropy

__all__ = [
    "PerModeOptimum",
    "AnalyticBound",
    "m_parameter",
    "classical_upper_bound",
    "classical_lower_analytic",
    "classical_upper_from_modes",
    "classical_lower_from_modes",
    "classical_lower_asymptotic",
    "local_classical_lower",
    "delta_term",
    "asymptotic_quantum",
    "asymptotic_ent_assisted",
]


@dataclass(frozen=True)
class PerModeOptimum:
    """Optimal per-mode encoding behind an analytic bound.

    ``n_opt`` is the photon allocation, (t, r) the seed squeezed thermal
    state, (c_q, c_p) the classical modulation variances (zero for the upper
    bound, which constrains only the output entropy).
    """

    n_opt: float
    t: float
    r: float
    c_q: float
    c_p: float


@dataclass(frozen=True)
class AnalyticBound:
    value: float
    valid: bool
    per_mode: tuple[PerModeOptimum, ...]


def _common_temp(modes: list[GlobalEnvMode]) -> float:
    temp = modes[0].temp
    if any(abs(m.temp - temp) > 1e-12 * (1.0 + abs(temp)) for m in modes):
        raise ValueError("analytic bounds require a common environment temperature")
    return temp


def m_parameter(cfg: ChannelConfig) -> float:
    """Mean photon number of the environment marginals in the decoupling basis.

    M = (temp + 1/2) * mean_j cosh(s_j) - 1/2.  Equals temp at s = 0 and is
    even and nondecreasing in s.
    """
    modes = env_global_modes(cfg)
    return _m_from_modes(modes)


def _m_from_modes(modes: list[GlobalEnvMode]) -> float:
    temp = _common_temp(modes)
    mean_cosh = math.fsum(math.cosh(m.s) for m in modes) / len(modes)
    return (temp + 0.5) * mean_cosh - 0.5


def classical_upper_from_modes(modes: list[GlobalEnvMode], eta: float, nbar: float) -> AnalyticBound:
    """Output-entropy upper bound on the classical capacity, given env modes."""
    temp = _common_temp(modes)
    if eta <= 0.0:
        return AnalyticBound(0.0, True, tuple(PerModeOptimum(nbar, 0.0, 0.0, 0.0, 0.0) for _ in modes))
    if eta >= 1.0:
        return AnalyticBound(
            g_entropy(nbar), True, tuple(PerModeOptimum(nbar, nbar, 0.0, 0.0, 0.0) for _ in modes)
        )
    big_m = _m_from_modes(modes)
    value = g_entropy(eta * nbar + (1.0 - eta) * big_m)
    k = (1.0 - eta) / eta * (temp + 0.5)
    mean_cosh = (big_m + 0.5) / (temp + 0.5)
    per_mode = []
    valid = True
    for mode in modes:
        n_opt = nbar + k * (mean_cosh - math.cosh(mode.s))
        xi = k * math.sinh(mode.s)
        disc = (n_opt + 0.5) ** 2 - xi**2
        if n_opt < 0.0 or disc < 0.25:
            valid = False
            t_opt = math.nan
            r_opt = math.nan
        else:
            t_opt = math.sqrt(disc) - 0.5
            r_opt = math.log((n_opt + 0.5 - xi) / (t_opt + 0.5))
        per_mode.append(PerModeOptimum(n_opt, t_opt, r_opt, 0.0, 0.0))
    return AnalyticBound(value, valid, tuple(per_mode))


def classical_lower_from_modes(modes: list[GlobalEnvMode], eta: float, nbar: float) -> AnalyticBound:
    """Achievable Holevo rate of the matched squeezed encoding, given env modes."""
    temp = _common_temp(modes)
    if eta <= 0.0:
        return AnalyticBound(0.0, True, tuple(PerModeOptimum(nbar, 0.0, 0.0, 0.0, 0.0) for _ in modes))
    if eta >= 1.0:
        return AnalyticBound(
            g_entropy(nbar), True, tuple(PerModeOptimum(nbar, 0.0, 0.0, nbar, nbar) for _ in modes)
        )
    big_m = _m_from_modes(modes)
    value = g_entropy(eta * nbar + (1.0 - eta) * big_m) - g_entropy((1.0 - eta) * temp)
    k = (1.0 - eta) / eta * (temp + 0.5)
    mean_cosh = (big_m + 0.5) / (temp + 0.5)
    per_mode = []
    valid = True
    for mode in modes:
        n_opt = nbar + k * (mean_cosh - math.cosh(mode.s))
        sinh_term = k * math.sinh(mode.s)
        c_q = n_opt + 0.5 - 0.5 * math.exp(mode.s) - sinh_term
        c_p = n_opt + 0.5 - 0.5 * math.exp(-mode.s) + sinh_term
        if c_q < -1e-12 or c_p < -1e-12 or n_opt < -1e-12:
            valid = False
        per_mode.append(PerModeOptimum(n_opt, 0.0, mode.s, c_q, c_p))
    return AnalyticBound(value, valid, tuple(per_mode))


def classical_upper_bound(cfg: ChannelConfig) -> AnalyticBound:
    """Upper bound g(eta*nbar + (1-eta)*M) with its validity flag."""
    return classical_upper_from_modes(env_global_modes(cfg), cfg.eta, cfg.nbar)


def classical_lower_analytic(cfg: ChannelConfig) -> AnalyticBound:
    """Lower bound g(eta*nbar + (1-eta)*M) - g((1-eta)*temp) with validity flag.

    Valid when all optimal modulation variances are nonnegative; its validity
    region is contained in the upper bound's, and at temp = 0 the two bounds
    coincide.
    """
    return classical_lower_from_modes(env_global_modes(cfg), cfg.eta, cfg.nbar)


def classical_lower_asymptotic(n: int, nbar: float, eta: float, temp: float) -> float:
    """Infinite-squeezing limit of the classical lower bound.

    log2(2*nbar + 1) for even n.  For odd n the n - 1 squeezed modes each
    give log2(2x + 1) at x photons and the unsqueezed middle mode gives its
    memoryless rate g(eta y + (1-eta) temp) - g((1-eta) temp) at y photons;
    the budget is split optimally over y in [0, n nbar], where the total is
    concave in y.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % 2 == 0:
        return math.log2(2.0 * nbar + 1.0)

    def middle(y):
        return g_entropy(eta * y + (1.0 - eta) * temp) - g_entropy((1.0 - eta) * temp)

    if n == 1:
        return middle(nbar)
    budget = n * nbar

    def total(y):
        return (n - 1) * math.log2(2.0 * (budget - y) / (n - 1) + 1.0) + middle(y)

    _, best = _golden_max(total, 0.0, budget, 1e-10 * (1.0 + budget))
    return best / n


def local_classical_lower(cfg: ChannelConfig) -> float:
    """Best rate of mode-by-mode coherent encodings, bits per use.

    Each physical mode sees an effective thermal channel of temperature
    T_eff(k); the photon budget is water-filled across modes.
    """
    if cfg.eta <= 0.0:
        return 0.0
    one_minus = 1.0 - cfg.eta
    teffs = [local_effective_temperature(cfg, k) for k in range(1, cfg.n + 1)]

    def make_fn(teff: float):
        base = g_entropy(one_minus * teff)
        return lambda x: g_entropy(cfg.eta * x + one_minus * teff) - base

    fns = [make_fn(teff) for teff in teffs]
    alloc = allocate_photons(fns, cfg.nbar)
    return math.fsum(fn(x) for fn, x in zip(fns, alloc)) / cfg.n


def delta_term(nbar: float, eta: float, temp: float) -> float:
    """Single-use rate delta of the unsqueezed middle mode.

    delta = g(N') - g((D + N' - N - 1)/2) - g((D - N' + N - 1)/2) with
    N' = eta*N + (1-eta)*T and D = sqrt((N + N' + 1)^2 - 4*eta*N*(N + 1)).
    Appears in the infinite-squeezing limits of the quantum and assisted
    capacities for odd n.
    """
    n_out = eta * nbar + (1.0 - eta) * temp
    rad = (nbar + n_out + 1.0) ** 2 - 4.0 * eta * nbar * (nbar + 1.0)
    d = math.sqrt(max(rad, 0.0))
    return (
        g_entropy(n_out)
        - g_entropy(max((d + n_out - nbar - 1.0) / 2.0, 0.0))
        - g_entropy(max((d - n_out + nbar - 1.0) / 2.0, 0.0))
    )


def asymptotic_quantum(n: int, nbar: float, eta: float, temp: float) -> float:
    """Infinite-squeezing limit of the quantum capacity.

    Zero for eta < 1/2 (anti-degradable region) and for even n.  For odd n
    the squeezed pairs carry no quantum rate, so the whole budget n * nbar
    goes to the unsqueezed middle mode, contributing delta(n * nbar)/n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eta < 0.5 or n % 2 == 0:
        return 0.0
    return delta_term(n * nbar, eta, temp) / n


def asymptotic_ent_assisted(n: int, nbar: float, eta: float, temp: float) -> float:
    """Infinite-squeezing limit of the entanglement-assisted capacity.

    g(nbar) for even n.  For odd n the n - 1 squeezed modes each give
    g(x) at x photons and the unsqueezed middle mode gives g(y) + delta(y)
    at y photons; the budget is split optimally, maximizing
    [(n-1) g((n nbar - y)/(n-1)) + g(y) + delta(y)] / n over y in
    [0, n nbar].  That objective is concave in y.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % 2 == 0:
        return g_entropy(nbar)
    if n == 1:
        return g_entropy(nbar) + delta_term(nbar, eta, temp)
    budget = n * nbar

    def total(y):
        return (n - 1) * g_entropy((budget - y) / (n - 1)) + g_entropy(y) + delta_term(y, eta, temp)

    _, best = _golden_max(total, 0.0, budget, 1e-10 * (1.0 + budget))
    return best / n
