"""Photon-number allocation across groups of equal modes (water-filling).

Splits a budget of nbar photons per mode over groups of modes that share a
value function, as the +s/-s normal-mode pairs do, so that the sum of
per-mode values is maximal.  For concave nondecreasing value functions the
optimum equalizes marginal values (Cover & Thomas, ch. 9), so one group takes
the whole budget.  For more groups we find the Lagrange multiplier mu by
bisection on weighted ``math.fsum`` totals, and raise AllocationError where
those totals overflow.  If the sampled marginals are non-monotone, or all
vanish at zero, the allocator returns the even split and flags it; the
caller handles non-concavity.

Group g's photon number x_g(mu) is the end of a dyadic bisection of
[0, budget], but a step of the mu bisection only asks whether
fsum(w_g x_g(mu)) >= budget.  So the walks run lazily: each keeps a bracket
[lo_g, hi_g] on its path, and before every new probe the step is answered
yes if fsum(w_g lo_g) >= budget and no if fsum(w_g hi_g) < budget.  That is
exact: the full walk's x_g lies in every bracket on its path, w x rounds
monotonically and fsum rounds correctly, so the bracket totals bound the
full total and each answer, every mu and the allocation are the ones the
full walks give.  Only undecided steps, and the final allocation, walk to
full depth.
"""

from __future__ import annotations

import math
import numbers
import operator

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


def _walk(marginal, probed: set, mu: float, budget: float, x_tol: float):
    """Largest x in [0, budget] with marginal(x) >= mu (marginal decreasing).

    A generator over the dyadic bisection of [0, budget] down to x_tol: before
    each probe of a node not yet in ``probed`` it adds the node and yields a
    bracket (lo, hi) that holds the answer x; it ends by yielding (x, x).
    The node 0.0 is probed without a yield: the caller has probed it before.
    """
    lo, hi = 0.0, (0.0 if marginal(0.0) <= mu else budget)
    x = hi  # the first node is budget; bisection midpoints follow
    while hi - lo > x_tol:
        if x not in probed:
            yield lo, hi
            probed.add(x)
        if marginal(x) >= mu:
            lo = x
        else:
            hi = x
        x = 0.5 * (lo + hi)
    # at lo == hi (0, or budget, where lo + hi can overflow) the answer is hi
    yield (x, x) if lo < hi else (hi, hi)


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
    weighted sum of ``alloc`` is the budget, exactly for one group, which
    gets nbar.  ``info`` holds the multiplier ``mu`` (for one group, its
    marginal at nbar) and a ``fallback`` flag, True when the concavity screen
    failed or every marginal is 0 at the origin; the allocation is then the
    even split.  Weighted totals that overflow raise AllocationError.
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
    if len(fns) == 1:  # one group takes the whole budget
        info["mu"] = marginals[0](float(nbar))
        return [float(nbar)], info

    def total(xs):
        try:
            tot = math.fsum(map(operator.mul, weights, xs))
        except OverflowError:  # fsum's partial sums overflowed
            tot = math.inf
        if tot < math.inf:
            return tot
        raise AllocationError(f"weighted photon totals overflow at nbar={nbar}")

    probed = [set() for _ in fns]

    def reaches(mu):  # total(x(mu)) >= budget, decided from the walks' brackets
        walks = [_walk(m, seen, mu, budget, 1e-12 * budget) for m, seen in zip(marginals, probed)]
        los, his = map(list, zip(*[next(walk) for walk in walks]))
        while True:
            if total(los) >= budget:
                return True
            if total(his) < budget:
                return False
            # deepen each open bracket by one new probe
            for g, walk in enumerate(walks):
                if his[g] > los[g]:
                    los[g], his[g] = next(walk)

    mu_lo = 0.0
    # bisection keeps total(mu_lo) >= budget >= total(mu_hi)
    while mu_hi - mu_lo > 1e-10 * (1.0 + mu_hi):
        mid = 0.5 * (mu_lo + mu_hi)
        if reaches(mid):
            mu_lo = mid
        else:
            mu_hi = mid
    info["mu"] = mu_lo
    xs = []
    for m, seen in zip(marginals, probed):
        for x, _ in _walk(m, seen, mu_lo, budget, 1e-13 * budget):
            pass
        xs.append(x)
    tot = total(xs)
    if tot > budget:
        xs = [x * (budget / tot) for x in xs]
    elif tot < budget:
        # marginals vanished before the budget ran out; the surplus is
        # value-neutral, spread it evenly
        xs = [x + (budget - tot) / n for x in xs]
    return xs, info
