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

# allocate_photons stays bound for the benchmark tracer until ROADMAP item 12
from .allocation import _golden_max, allocate_photons  # noqa: F401
from .channel import ChannelConfig, GlobalEnvMode, env_global_modes, local_effective_temperature
from .gaussian import _log1p_inv, g_entropy

__all__ = [
    "PerModeOptimum",
    "AnalyticBound",
    "m_parameter",
    "classical_upper_bound",
    "classical_lower_analytic",
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
    state, (c_q, c_p) the classical modulation variances.
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


def m_parameter(cfg: ChannelConfig) -> float:
    """Mean photon number of the environment marginals in the decoupling basis.

    M = (temp + 1/2) * mean_j cosh(s_j) - 1/2.  Equals temp at s = 0 and is
    even and nondecreasing in s.
    """
    return _m_from_modes(env_global_modes(cfg))


def _m_from_modes(modes: list[GlobalEnvMode]) -> float:
    temp = modes[0].temp
    if any(abs(m.temp - temp) > 1e-12 * (1.0 + abs(temp)) for m in modes):
        raise ValueError("analytic bounds require a common environment temperature")
    mean_cosh = math.fsum(math.cosh(m.s) for m in modes) / len(modes)
    return (temp + 0.5) * mean_cosh - 0.5


def _water_level(modes: list[GlobalEnvMode], eta: float, nbar: float):
    """The water level (M, k, n_j) of both classical bounds.

    n_j = nbar + k (mean_j cosh s_j - cosh s_j) with k = (1-eta)/eta (temp + 1/2).
    """
    big_m = _m_from_modes(modes)
    temp = modes[0].temp
    k = (1.0 - eta) / eta * (temp + 0.5)
    mean_cosh = (big_m + 0.5) / (temp + 0.5)
    return big_m, k, [nbar + k * (mean_cosh - math.cosh(mode.s)) for mode in modes]


def classical_lower_from_modes(modes: list[GlobalEnvMode], eta: float, nbar: float) -> AnalyticBound:
    """Achievable Holevo rate of the matched squeezed encoding, given env modes."""
    if eta <= 0.0:  # no rate
        return AnalyticBound(0.0, True, (PerModeOptimum(nbar, 0.0, 0.0, 0.0, 0.0),) * len(modes))
    if eta >= 1.0:  # coherent modulation of nbar photons per mode
        return AnalyticBound(g_entropy(nbar), True, (PerModeOptimum(nbar, 0.0, 0.0, nbar, nbar),) * len(modes))
    big_m, k, n_opts = _water_level(modes, eta, nbar)
    value = g_entropy(eta * nbar + (1.0 - eta) * big_m) - g_entropy((1.0 - eta) * modes[0].temp)
    per_mode = []
    valid = True
    for mode, n_opt in zip(modes, n_opts):
        sinh_term = k * math.sinh(mode.s)
        c_q = n_opt + 0.5 - 0.5 * math.exp(mode.s) - sinh_term
        c_p = n_opt + 0.5 - 0.5 * math.exp(-mode.s) + sinh_term
        if c_q < -1e-12 or c_p < -1e-12 or n_opt < -1e-12:
            valid = False
        per_mode.append(PerModeOptimum(n_opt, 0.0, mode.s, c_q, c_p))
    return AnalyticBound(value, valid, tuple(per_mode))


def classical_upper_bound(cfg: ChannelConfig) -> AnalyticBound:
    """Upper bound g(eta*nbar + (1-eta)*M) with its validity flag; ``per_mode`` is empty.

    Valid where every water-filled n_j >= 0 and (n_j + 1/2)^2 - (k sinh s_j)^2
    >= 1/4, so that a squeezed thermal seed of n_j photons reaches the bound.
    """
    if cfg.eta <= 0.0:
        return AnalyticBound(0.0, True, ())
    if cfg.eta >= 1.0:
        return AnalyticBound(g_entropy(cfg.nbar), True, ())
    modes = env_global_modes(cfg)
    big_m, k, n_opts = _water_level(modes, cfg.eta, cfg.nbar)
    try:
        valid = all(n_opt >= 0.0 and (n_opt + 0.5) ** 2 - (k * math.sinh(mode.s)) ** 2 >= 0.25
                    for mode, n_opt in zip(modes, n_opts))
    except OverflowError:
        # a square past the float range needs k |sinh s_j| or n_j above 1e154: then
        # this mode fails, or another has n_j < 0, as the n_j sum to n * nbar
        valid = False
    return AnalyticBound(g_entropy(cfg.eta * cfg.nbar + (1.0 - cfg.eta) * big_m), valid, ())


def classical_lower_analytic(cfg: ChannelConfig) -> AnalyticBound:
    """Lower bound g(eta*nbar + (1-eta)*M) - g((1-eta)*temp) with validity flag.

    Valid when all optimal modulation variances are nonnegative; its validity
    region is contained in the upper bound's, and at temp = 0 the two bounds
    coincide.  Outside that region the value is still an upper bound on the
    classical capacity, but no longer an achievable rate.
    """
    return classical_lower_from_modes(env_global_modes(cfg), cfg.eta, cfg.nbar)


def _thermal_chi(eta: float, temp: float):
    """x -> g(eta x + (1-eta) temp) - g((1-eta) temp), a thermal attenuator's Holevo rate."""
    base = g_entropy((1.0 - eta) * temp)
    return lambda x: g_entropy(eta * x + (1.0 - eta) * temp) - base


def _odd_n_limit(cfg: ChannelConfig, squeezed, *middle) -> float:
    """Infinite-squeezing limit per use of a rate that is additive over modes.

    Squeezed modes give squeezed(x) at x photons.  For odd n the unsqueezed
    middle mode gives the sum of the ``middle`` terms at y photons, and y is
    split optimally from the budget n * nbar; both callers' totals are
    concave in y.
    """
    n, nbar = cfg.n, cfg.nbar
    if n % 2 == 0:
        return squeezed(nbar)
    budget = n * nbar

    def total(y):
        value = (n - 1) * squeezed((budget - y) / (n - 1)) if n > 1 else 0.0
        for term in middle:
            value += term(y)
        return value

    if n == 1:
        return total(nbar)
    _, best = _golden_max(total, 0.0, budget, 1e-10 * (1.0 + budget))
    return best / n


def classical_lower_asymptotic(n: int, nbar: float, eta: float, temp: float) -> float:
    """Infinite-squeezing limit of the classical lower bound.

    log2(2*nbar + 1) for even n.  For odd n the n - 1 squeezed modes each
    give log2(2x + 1) at x photons and the unsqueezed middle mode gives its
    memoryless rate g(eta y + (1-eta) temp) - g((1-eta) temp) at y photons.
    """
    cfg = ChannelConfig(n=n, eta=eta, s=0.0, temp=temp, nbar=nbar)  # checks the domain
    return _odd_n_limit(cfg, lambda x: math.log2(2.0 * x + 1.0), _thermal_chi(cfg.eta, cfg.temp))


def _thermal_gain(floor: float, rise: float) -> float:
    """g(f + d) - g(f) in nats for floor f >= 0 and rise d, free of cancellation.

    Written as log1p(d/(f+1)) + d log1p(1/(f+d)) - f log1p(d/(f(f+d+1))),
    whose three terms share one scale, so a rise of 1e-10 on a floor of 1/2
    keeps its digits.
    """
    if rise <= 0.0:
        return 0.0
    gain = math.log1p(rise / (floor + 1.0)) + rise * _log1p_inv(floor + rise)
    if floor > 0.0:
        gain -= floor * math.log1p(rise / (floor * (floor + rise + 1.0)))
    return gain


def local_classical_lower(cfg: ChannelConfig) -> float:
    """Best rate of mode-by-mode coherent encodings, bits per use.

    Each physical mode k sees an effective thermal channel of temperature
    T_eff(k), whose rate at x photons is g(eta x + f_k) - g(f_k) with the
    floor f_k = (1-eta) T_eff(k).  The photon budget is water-filled
    exactly: every active mode reaches one output photon number L, with
    sum_k max(L - f_k, 0) = eta n N, found in one pass over the sorted
    floors.
    """
    if cfg.eta <= 0.0:
        return 0.0
    # T_eff carries roundoff below 0 at T = 0, which g reads as 0
    floors = sorted(max((1.0 - cfg.eta) * local_effective_temperature(cfg, k), 0.0)
                    for k in range(1, cfg.n + 1))
    # heights above the lowest floor, so that a tiny budget keeps its digits
    rises = [f - floors[0] for f in floors]
    budget = cfg.eta * cfg.n * cfg.nbar
    total = 0.0
    for active in range(1, cfg.n + 1):
        total += rises[active - 1]
        if active == cfg.n or (budget + total) / active <= rises[active]:
            break
    level = (budget + math.fsum(rises[:active])) / active
    gains = [_thermal_gain(f, level - rise) for f, rise in zip(floors[:active], rises)]
    return math.fsum(gains) / (cfg.n * math.log(2.0))


def delta_term(nbar: float, eta: float, temp: float) -> float:
    """Single-use rate delta of the unsqueezed middle mode.

    delta = g(N') - g(nu_1) - g(nu_2) with N' = eta*N + (1-eta)*T and
    nu_{1,2} = (D - 1 +- (N' - N))/2, D = sqrt((N + N' + 1)^2 - 4*eta*N*(N + 1)).
    It is the coherent information of a thermal input through the thermal
    attenuator (eta, T), so it appears in the infinite-squeezing limits of
    the quantum and assisted capacities for odd n.  D^2 - 1, and the product
    nu_1 nu_2 through P^2 - D^2 = 4 (1-eta)^2 N T (N+1)(T+1) with
    P = 1 + (1-eta)(N + T + 2NT), are sums of nonnegative terms, so no
    digits cancel as N or T goes to 0 or grows large.
    """
    loss = 1.0 - eta
    n_out = eta * nbar + loss * temp
    d2m1 = loss * (loss * (nbar * nbar + temp * temp) + 2.0 * (nbar * (1.0 + (1.0 + eta) * temp) + temp))
    d = math.sqrt(1.0 + d2m1)
    big = 0.5 * (d2m1 / (d + 1.0) + abs(loss * (temp - nbar)))
    p = 1.0 + loss * (nbar + temp + 2.0 * nbar * temp)
    product = 2.0 * loss * loss * nbar * temp * (nbar + 1.0) * (temp + 1.0) / (p + d)
    small = max(product / big, 0.0) if big > 0.0 else 0.0
    return g_entropy(n_out) - g_entropy(big) - g_entropy(small)


def asymptotic_quantum(n: int, nbar: float, eta: float, temp: float) -> float:
    """Infinite-squeezing limit of the quantum capacity.

    Zero for eta < 1/2 (anti-degradable region) and for even n.  For odd n
    the squeezed pairs carry no quantum rate, so the whole budget n * nbar
    goes to the unsqueezed middle mode, contributing delta(n * nbar)/n.
    """
    cfg = ChannelConfig(n=n, eta=eta, s=0.0, temp=temp, nbar=nbar)  # checks the domain
    if cfg.eta < 0.5 or cfg.n % 2 == 0:
        return 0.0
    return delta_term(cfg.n * cfg.nbar, cfg.eta, cfg.temp) / cfg.n


def asymptotic_ent_assisted(n: int, nbar: float, eta: float, temp: float) -> float:
    """Infinite-squeezing limit of the entanglement-assisted capacity.

    g(nbar) for even n.  For odd n the n - 1 squeezed modes each give
    g(x) at x photons and the unsqueezed middle mode gives g(y) + delta(y)
    at y photons.
    """
    cfg = ChannelConfig(n=n, eta=eta, s=0.0, temp=temp, nbar=nbar)  # checks the domain
    return _odd_n_limit(cfg, g_entropy, g_entropy, lambda y: delta_term(y, cfg.eta, cfg.temp))
