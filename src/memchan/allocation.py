"""Photon-number allocation across modes (water-filling).

Splits a total photon budget n * nbar over n modes so that the sum of
per-mode values is maximal.  For concave nondecreasing value functions the
optimum equalizes marginal values; we find the Lagrange multiplier by
bisection.  If the sampled marginals are found to be non-monotone, or all
vanish at zero, the allocator returns the even split and flags it; the
caller, which knows which modes share a value function, handles
non-concavity.

Entries of ``fns`` that are one object (by identity, not by equality), such
as the modes of one normal-mode group, are screened and inverted once per
bisection step, and each distinct function's marginal is memoized by probe
point for the call.  Sums still run over the entries in order, so the
result is bit for bit that of evaluating every entry.
"""

from __future__ import annotations

import math

import numpy as np

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


def allocate_photons(fns, nbar: float, *, return_info: bool = False):
    """Allocate the photon budget n * nbar across the n = len(fns) modes.

    Parameters
    ----------
    fns : sequence of callables
        ``fns[i](x)`` is the value of spending x photons on mode i.
        Functions must be defined on [0, n * nbar], should be
        nondecreasing, and must return the same value for the same x.
        Entries that are one object, by identity and not by equality, are
        evaluated once per step; equal but distinct callables are each
        evaluated.
    nbar : float
        Photon budget per mode.
    return_info : bool
        When set, also return a dict with the multiplier and a ``fallback``
        flag (True when the concavity screen failed or every marginal is 0
        at the origin; the allocation is then the even split).

    Returns
    -------
    numpy.ndarray of shape (n,) summing to n * nbar.
    """
    fns = list(fns)
    n = len(fns)
    if n < 1:
        raise AllocationError("need at least one value function")
    if not (math.isfinite(nbar) and nbar >= 0.0):
        raise AllocationError(f"photon budget must be finite and >= 0, got nbar={nbar}")

    budget = n * float(nbar)  # an integer nbar would make the allocation an int array
    info = {"fallback": False, "mu": 0.0}
    if budget <= 0.0:
        x = np.zeros(n)
        return (x, info) if return_info else x

    h = max(1e-7 * budget, 1e-9)
    ids = [id(fn) for fn in fns]  # an id, not a hash: unhashable callables work
    marginals = {i: _memoized_marginal(fn, budget, h) for i, fn in dict(zip(ids, fns)).items()}

    # concavity screen on a coarse grid
    concave = True
    for marginal in marginals.values():
        probes = [marginal(budget * frac) for frac in (0.05, 0.3, 0.55, 0.8, 0.98)]
        for left, right in zip(probes, probes[1:]):
            if right > left + 1e-6 * (1.0 + abs(left)):
                concave = False
                break
        if not concave:
            break

    mu_hi = max(marginal(0.0) for marginal in marginals.values())

    if concave and mu_hi > 0.0:
        mu_lo = 0.0
        # bisection keeps total(mu_lo) >= budget >= total(mu_hi)
        while mu_hi - mu_lo > 1e-10 * (1.0 + mu_hi):
            mid = 0.5 * (mu_lo + mu_hi)
            xs = {i: _x_at_marginal(m, mid, budget, 1e-12 * budget) for i, m in marginals.items()}
            tot = sum(xs[i] for i in ids)
            if tot >= budget:
                mu_lo = mid
            else:
                mu_hi = mid
        info["mu"] = mu_lo
        xs = {i: _x_at_marginal(m, mu_lo, budget, 1e-13 * budget) for i, m in marginals.items()}
        x = np.array([xs[i] for i in ids])
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
        result = np.full(n, float(nbar))

    if return_info:
        return result, info
    return result
