"""Photon-number allocation across groups of equal modes (water-filling).

Splits a budget of nbar photons per mode over groups of modes that share a
value function, as the +s/-s normal-mode pairs do, so that the sum of
per-mode values is maximal.  For concave nondecreasing value functions the
optimum equalizes marginal values (Cover & Thomas, ch. 9); we find the
Lagrange multiplier by bisection on weighted ``math.fsum`` totals.  If the
sampled marginals are non-monotone, or all vanish at zero, the allocator
returns the even split and flags it; the caller handles non-concavity.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["AllocationError", "allocate_photons"]


class AllocationError(RuntimeError):
    """Raised when no feasible allocation can be produced."""


def _memoized_marginal(fn, budget: float, h: float):
    """x -> finite-difference slope of fn over [x - h, x + h] clipped to [0, budget].

    Each probe point x is evaluated once; the memo lives as long as the
    returned function.
    """
    cache = {}

    def marginal(x: float) -> float:
        value = cache.get(x)
        if value is None:
            # the same floats as max(x - h, 0.0) and min(x + h, budget), for fewer steps
            lo = x - h if x > h else 0.0
            hi = x + h if x + h < budget else budget
            value = cache[x] = (fn(hi) - fn(lo)) / (hi - lo) if hi > lo else 0.0
        return value

    return marginal


def _x_at_marginal(marginal, mu: float, budget: float, x_tol: float) -> float:
    """Largest x in [0, budget] with marginal(x) >= mu (marginal decreasing)."""
    if marginal(0.0) <= mu:
        return 0.0
    if marginal(budget) >= mu:
        return budget
    lo, hi = 0.0, budget
    while hi - lo > x_tol:
        mid = 0.5 * (lo + hi)
        if marginal(mid) >= mu:
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


def allocate_photons(fns, weights, nbar: float):
    """Water-fill the budget sum(weights) * nbar; returns (alloc, info).

    ``fns[g](x)`` is the value of spending x photons on one mode of group g:
    defined on [0, budget], nondecreasing, and the same for the same x.
    ``weights[g]``, a positive integer, counts group g's modes.  ``alloc[g]``
    is the photon number of each mode of group g, a builtin float; the
    weighted sum of ``alloc`` is the budget.  ``info`` holds the multiplier
    ``mu`` and a ``fallback`` flag, True when the concavity screen failed or
    every marginal is 0 at the origin; the allocation is then the even split.
    """
    fns = list(fns)
    weights = list(weights)
    if not fns:
        raise AllocationError("need at least one value function")
    if len(weights) != len(fns):
        raise AllocationError(f"got {len(weights)} weights for {len(fns)} value functions")
    if any(isinstance(w, bool) or not isinstance(w, numbers.Integral) or w < 1 for w in weights):
        raise AllocationError(f"weights must be positive integers, got {weights!r}")
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise AllocationError(f"photon budget must be finite and >= 0, got nbar={nbar}")

    n = int(sum(weights))  # a numpy integer would make the budget a numpy float
    budget = n * float(nbar)
    info = {"fallback": False, "mu": 0.0}
    if budget <= 0.0:
        return [0.0] * len(fns), info

    h = max(1e-7 * budget, 1e-9)
    marginals = [_memoized_marginal(fn, budget, h) for fn in fns]

    def rises(marginal):  # the concavity screen, on a coarse grid
        probes = [marginal(budget * frac) for frac in (0.05, 0.3, 0.55, 0.8, 0.98)]
        return any(right > left + 1e-6 * (1.0 + abs(left)) for left, right in zip(probes, probes[1:]))

    mu_hi = max(marginal(0.0) for marginal in marginals)
    if any(rises(marginal) for marginal in marginals) or not mu_hi > 0.0:
        info["fallback"] = True
        return [float(nbar)] * len(fns), info

    def total(xs):
        return math.fsum(w * x for w, x in zip(weights, xs))

    mu_lo = 0.0
    # bisection keeps total(mu_lo) >= budget >= total(mu_hi)
    while mu_hi - mu_lo > 1e-10 * (1.0 + mu_hi):
        mid = 0.5 * (mu_lo + mu_hi)
        if total([_x_at_marginal(m, mid, budget, 1e-12 * budget) for m in marginals]) >= budget:
            mu_lo = mid
        else:
            mu_hi = mid
    info["mu"] = mu_lo
    xs = [_x_at_marginal(m, mu_lo, budget, 1e-13 * budget) for m in marginals]
    tot = total(xs)
    if tot > budget:
        xs = [x * (budget / tot) for x in xs]
    elif tot < budget:
        # marginals vanished before the budget ran out; the surplus is
        # value-neutral, spread it evenly
        xs = [x + (budget - tot) / n for x in xs]
    return xs, info
