"""Photon-number allocation across modes (water-filling).

Splits a total photon budget n * nbar over n modes so that the sum of
per-mode values is maximal.  For concave nondecreasing value functions the
optimum equalizes marginal values; we find the Lagrange multiplier by
bisection.  If the sampled marginals are found to be non-monotone the
allocator falls back to a multistart pairwise-transfer search and flags it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["AllocationError", "allocate_photons"]


class AllocationError(RuntimeError):
    """Raised when no feasible allocation can be produced."""


def _marginal(fn, x: float, budget: float, h: float) -> float:
    lo = max(x - h, 0.0)
    hi = min(x + h, budget)
    if hi <= lo:
        return 0.0
    return (fn(hi) - fn(lo)) / (hi - lo)


def _x_at_marginal(fn, mu: float, budget: float, h: float, x_tol: float) -> float:
    """Largest x in [0, budget] with marginal(x) >= mu (marginal decreasing)."""
    if _marginal(fn, 0.0, budget, h) <= mu:
        return 0.0
    if _marginal(fn, budget, budget, h) >= mu:
        return budget
    lo, hi = 0.0, budget
    while hi - lo > x_tol:
        mid = 0.5 * (lo + hi)
        if _marginal(fn, mid, budget, h) >= mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden_max(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (x, fn(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = c if fc >= fd else d
    return x, max(fc, fd)


def _pairwise_polish(fns, x: np.ndarray) -> np.ndarray:
    x = x.copy()
    n = len(fns)
    vals = [fns[i](x[i]) for i in range(n)]
    for _ in range(6):
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                pot = x[i] + x[j]
                if pot <= 0.0:
                    continue
                best_u, best_v = _golden_max(
                    lambda u: fns[i](u) + fns[j](pot - u), 0.0, pot, 1e-10 * (1.0 + pot)
                )
                if best_v > vals[i] + vals[j] + 1e-13:
                    x[i], x[j] = best_u, pot - best_u
                    vals[i], vals[j] = fns[i](x[i]), fns[j](x[j])
                    improved = True
        if not improved:
            break
    return x


def allocate_photons(fns, n: int, nbar: float, *, return_info: bool = False):
    """Allocate the photon budget n * nbar across n modes.

    Parameters
    ----------
    fns : sequence of callables
        ``fns[i](x)`` is the value of spending x photons on mode i.
        Functions must be defined on [0, n * nbar] and should be
        nondecreasing.
    n : int
        Number of modes.
    nbar : float
        Photon budget per mode.
    return_info : bool
        When set, also return a dict with the multiplier and a ``fallback``
        flag (True when the concavity check failed and the pairwise search
        ran).

    Returns
    -------
    numpy.ndarray of shape (n,) summing to n * nbar.
    """
    if n < 1:
        raise AllocationError(f"need at least one mode, got n={n}")
    if nbar < 0.0:
        raise AllocationError(f"photon budget must be >= 0, got nbar={nbar}")
    fns = list(fns)
    if len(fns) != n:
        raise AllocationError(f"expected {n} value functions, got {len(fns)}")

    budget = n * nbar
    info = {"fallback": False, "mu": 0.0}
    if budget <= 0.0:
        x = np.zeros(n)
        return (x, info) if return_info else x

    h = max(1e-7 * budget, 1e-9)

    # concavity screen on a coarse grid
    concave = True
    for fn in fns:
        probes = [_marginal(fn, budget * frac, budget, h) for frac in (0.05, 0.3, 0.55, 0.8, 0.98)]
        for left, right in zip(probes, probes[1:]):
            if right > left + 1e-6 * (1.0 + abs(left)):
                concave = False
                break
        if not concave:
            break

    m0 = [_marginal(fn, 0.0, budget, h) for fn in fns]
    mu_hi = max(m0)

    if concave and mu_hi > 0.0:
        mu_lo = 0.0
        # bisection keeps total(mu_lo) >= budget >= total(mu_hi)
        if sum(_x_at_marginal(fn, mu_hi, budget, h, 1e-12 * budget) for fn in fns) >= budget:
            mu_lo = mu_hi
        while mu_hi - mu_lo > 1e-10 * (1.0 + mu_hi):
            mid = 0.5 * (mu_lo + mu_hi)
            tot = sum(_x_at_marginal(fn, mid, budget, h, 1e-12 * budget) for fn in fns)
            if tot >= budget:
                mu_lo = mid
            else:
                mu_hi = mid
        info["mu"] = mu_lo
        x = np.array([_x_at_marginal(fn, mu_lo, budget, h, 1e-13 * budget) for fn in fns])
        tot = float(x.sum())
        if tot > budget and tot > 0.0:
            x *= budget / tot
        elif tot < budget:
            # marginals vanished before the budget ran out; the surplus is
            # value-neutral, spread it evenly
            x += (budget - tot) / n
        result = x
    else:
        info["fallback"] = True
        starts = [np.full(n, nbar)]
        one_hot = np.zeros(n)
        one_hot[int(np.argmax(m0))] = budget
        starts.append(one_hot)
        best_x, best_v = None, -math.inf
        for start in starts:
            cand = _pairwise_polish(fns, start)
            val = sum(fn(xi) for fn, xi in zip(fns, cand))
            if val > best_v:
                best_x, best_v = cand, val
        result = best_x

    if return_info:
        return result, info
    return result
