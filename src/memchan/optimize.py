"""Numerical maximization of the capacity quantities over Gaussian encodings.

Wherever the classical closed form is valid it is the capacity, so
``maximize_classical`` returns it and its encoding without a numeric solve.
Everywhere else, and for every other quantity, an outer water-filling loop
allocates the photon budget across the decoupled modes, and an inner
derivative-free coordinate descent (golden section line searches) optimizes
each mode's encoding at fixed photon number.  Modes come in +s/-s pairs with
identical value functions, so the per-mode value of photons is solved once
per pair on a node grid, bridged by a monotone cubic, water-filled over the
groups with their mode counts as weights, and re-solved exactly at the
returned allocation; up to three rounds add nodes near the optimum, and
a round whose allocation adds no node is the last, as the next would see
the same nodes and repeat it.  The closed form's squeezing and the
infinite-squeezing encoding seed the Holevo descent, which searches pure
seeds only; the J and I descents also start from the nearest earlier
solve.  Where a group's value function is not concave (the allocator fell
back, or the value lies under its tangent from the origin), the group's
photons are also tried on k of its w modes, and a better split is
returned unconverged.

This module and the allocator use no numpy: the allocations and the
Newton refine are lists of builtin floats, summed with ``math.fsum``,
so memo keys come from Python's correctly rounded ``round``, and no BLAS
kernel picks a summation order here (``math``'s functions still come from
the platform's C library).

The coordinate ascent skips a line search whose inputs, the other
coordinates and the interval, are bit for bit those of that coordinate's
previous search.  A search is a pure function of those inputs, and the best
value never falls, so its answer could not beat the best and would leave the
point where it is: the skip saves work and changes no result.

An unsqueezed mode (s_j = 0: every local mode, every mode at s = 0 and the
middle mode at odd n) is a thermal attenuator, whose best Gaussian input at
fixed energy is known (Holevo & Werner, PRA 63, 032312 (2001)): coherent
modulation for the Holevo information, a thermal seed for J and I.  Its
inner solve evaluates that input once and searches nothing.  J and I keep
the search where the thermal value is not positive, since an exact zero
there would move ``converged`` flags that certifying zero rates must settle
first.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass

from .allocation import _golden_max, allocate_photons
from .analytic import classical_lower_from_modes, delta_term
from .channel import (
    MAX_ABS_S,
    MAX_TEMP,
    ChannelConfig,
    GlobalEnvMode,
    env_global_modes,
    local_effective_temperature,
)
from .gaussian import g_entropy
from .information import (
    EncodingParams,
    _chi_modulation_slopes,
    _outputs,
    chi_mode,
    coherent_information,
    coherent_information_gradient,
    quantum_mutual_information,
    quantum_mutual_information_gradient,
)

__all__ = [
    "OptResult",
    "maximize_classical",
    "maximize_quantum",
    "maximize_ent_assisted",
    "maximize_quantum_local",
    "maximize_ent_assisted_local",
]

@dataclass(frozen=True)
class OptResult:
    """Outcome of a capacity optimization.

    value         bits per channel use
    params        optimal encoding across modes
    converged     allocation finished cleanly, no k-of-w split of a mode
                  group beat it, and kkt_residual <= 1e-4
    iterations    inner per-mode optimizations performed (0 for a closed form)
    kkt_residual  spread of the marginal photon values across active mode
                  groups at the final allocation (0 for a closed form)
    """

    value: float
    params: EncodingParams
    converged: bool
    iterations: int
    kkt_residual: float


_IDLE = (0.0, 0.0, 0.0, 0.0)  # (t, r, c_q, c_p) of a mode that gets no photons


def _result(value: float, param_list, converged=True, iterations=0, kkt=0.0) -> OptResult:
    """OptResult of a per-use value and per-mode (t, r, c_q, c_p); a closed form keeps the defaults."""
    return OptResult(value, EncodingParams(*zip(*param_list)), converged, iterations, kkt)


# ---------------------------------------------------------------------------
# inner per-mode solvers


def _coordinate_ascent(line, x, bounds):
    """Cyclic golden-section ascent with per-coordinate bounds.

    ``line(i, x)`` returns the objective as a function of coordinate i
    alone, the rest of x fixed; ``bounds(i, x)`` returns the feasible
    interval of coordinate i given the rest of x.  Stops after a cycle in
    which no coordinate moved more than 1e-9 and the value rose by less
    than 1e-13, or after 10 cycles.

    A line search is skipped when the other coordinates and the interval
    are, bit for bit, those it last ran with.  The search is a pure
    function of them, so it would return the same (xi, vi); the best value
    has not fallen since, so vi would not beat it and x would not move.
    The skip changes no result, only the work.
    """
    x = list(x)
    best = line(0, x)(x[0])
    searched = [None] * len(x)  # packed (lo, hi, other coordinates) of each last search
    for _ in range(10):
        moved = 0.0
        prev = best
        for i in range(len(x)):
            lo, hi = bounds(i, x)
            old = min(max(x[i], lo), hi)
            x[i] = old
            if hi - lo <= 1e-14:
                continue
            # exact bits, so -0.0 and 0.0 (and NaNs) are told apart
            key = struct.pack(f"{len(x) + 1}d", lo, hi, *x[:i], *x[i + 1:])
            if key == searched[i]:
                continue
            searched[i] = key
            xi, vi = _golden_max(line(i, x), lo, hi, 1e-9 * (1.0 + hi - lo))
            if vi > best:
                best = vi
                x[i] = xi
                moved = max(moved, abs(xi - old))
        if moved < 1e-9 and best - prev < 1e-13:
            break
    return x, best


def _chi_inner(mode: GlobalEnvMode, eta: float, nj: float, earlier=None):
    """Best per-mode Holevo information at photon number nj.

    Returns (value, (0.0, r, c_q, c_p)): moving a seed's thermal part into
    the modulation keeps the average output state and, by concavity of the
    entropy, cannot raise the conditional output entropy, so the seed is
    pure.  Searches the squeezing r and the fraction f of the remaining
    budget spent on c_q, so the energy constraint is saturated.  Does not
    read ``earlier``, so the result depends on (mode, eta, nj) alone.

    An unsqueezed mode (s = 0) is a thermal attenuator, where coherent
    modulation (0, 0, nj, nj) is optimal; it is returned without a search.
    """
    if nj <= 1e-13:
        return 0.0, _IDLE
    if mode.s == 0.0:
        return chi_mode(0.0, 0.0, nj, nj, mode, eta), (0.0, 0.0, nj, nj)
    cap = nj + 0.5

    def split(r, f):
        ctot = max(2.0 * (cap - 0.5 * math.cosh(r)), 0.0)
        return f * ctot, (1.0 - f) * ctot

    def balance_f(r):
        # modulation split that equalizes the two output quadratures
        ctot = 2.0 * (cap - 0.5 * math.cosh(r))
        if ctot <= 0.0:
            return 0.5
        oq, op, _, _ = _outputs(0.0, r, 0.0, 0.0, mode, eta)
        cq = 0.5 * (ctot + (op - oq) / eta)
        return min(max(cq / ctot, 0.0), 1.0)

    rmax0 = math.acosh(2.0 * nj + 1.0)
    r_top = rmax0 * (1.0 - 1e-12)
    r_match = min(mode.s, r_top)  # the closed form's squeezing
    r_deep = min(math.log(2.0 * nj + 1.0), r_top)  # the infinite-squeezing encoding
    seeds = [(r_match, balance_f(r_match)), (r_deep, balance_f(r_deep))]
    start = max(seeds, key=lambda x: chi_mode(0.0, x[0], *split(*x), mode, eta))

    def bounds(i, x):
        return (-rmax0, rmax0) if i == 0 else (0.0, 1.0)

    def line(i, x):
        if i == 0:
            f = x[1]
            return lambda r: chi_mode(0.0, r, *split(r, f), mode, eta)
        r = x[0]
        ctot = max(2.0 * (cap - 0.5 * math.cosh(r)), 0.0)
        return lambda f: chi_mode(0.0, r, f * ctot, (1.0 - f) * ctot, mode, eta)

    x, best = _coordinate_ascent(line, start, bounds)
    r, f = x
    cq, cp = split(r, f)
    return best, (0.0, r, cq, cp)


def _seed_inner(kernel, thermal, mode: GlobalEnvMode, eta: float, nj: float, earlier):
    """Best per-mode kernel(t, r, mode, eta) at photon number nj, floored at 0.

    Idling (t = 0) always achieves zero, so the returned value is
    nonnegative.  Returns (value, (t, r, 0.0, 0.0)).

    An unsqueezed mode (s = 0) is a thermal attenuator, where the thermal
    seed (nj, 0) is optimal; its value ``thermal(nj, eta, temp)`` is
    returned without a search when it is positive.  A value <= 0 is left to
    the search: an exact 0 there flips stored ``converged`` flags.
    ``thermal`` is the closed form, not the kernel at (nj, 0): near a pure
    environment (T -> 0) the kernel's nearly degenerate exchange spectrum
    reads J up to 5% low at small nj, and the search would read above it.
    """
    if nj <= 1e-13:
        return 0.0, _IDLE
    if mode.s == 0.0:
        value = thermal(nj, eta, mode.temp)
        if value > 0.0:
            return value, (nj, 0.0, 0.0, 0.0)
    cap = nj + 0.5
    rmax = math.acosh(2.0 * nj + 1.0) * (1.0 - 1e-12)

    def t_ridge(r):  # the largest feasible t at r
        return max(cap / math.cosh(r) - 0.5, 0.0)

    def bounds(i, x):
        # interval of t (i = 0) or r (i = 1) on (t + 1/2) cosh r <= cap, the other fixed
        if i == 0:
            return 0.0, t_ridge(x[1])
        rm = math.acosh(max(cap / (x[0] + 0.5), 1.0))
        return -rm, rm

    def line(i, x):
        if i == 0:
            r = x[1]
            cosh_r = math.cosh(r)
            return lambda t: kernel(t, r, mode, eta) if (t + 0.5) * cosh_r <= cap else -math.inf
        t = x[0]
        return lambda r: kernel(t, r, mode, eta) if (t + 0.5) * math.cosh(r) <= cap else -math.inf

    def ridge(r):
        return kernel(t_ridge(r), r, mode, eta)

    # coarse (t, r) grid, all photons thermal, and the nearest solve in earlier
    r_grid = [-rmax + k * (2.0 * rmax / 10) for k in range(10)] + [rmax]  # np.linspace's 11 points
    starts = [[(k / 8) ** 1.5 * nj, r] for k in range(9) for r in r_grid]
    starts.append([nj, 0.0])
    if earlier:
        t_w, r_w, _, _ = earlier[min(earlier, key=lambda k: abs(k - nj))][1]
        t_w = min(max(t_w, 0.0), nj)
        lo, hi = bounds(1, (t_w, 0.0))
        starts.append([t_w, min(max(r_w, lo), hi)])
    start = max(starts, key=lambda x: kernel(x[0], x[1], mode, eta)
                if (x[0] + 0.5) * math.cosh(x[1]) <= cap else -math.inf)
    x, best = _coordinate_ascent(line, start, bounds)

    # Axis-parallel moves stall against the energy constraint, where the
    # optimum usually sits; slide along the constraint curve explicitly.
    for i in range(3):
        slack = cap - (x[0] + 0.5) * math.cosh(x[1])
        if slack > 1e-6 * cap:
            break
        lo, hi = max(x[1] - 0.7, -rmax), min(x[1] + 0.7, rmax)
        if i == 0:  # widen the first slide to the best of a ridge grid
            step = 2.0 * rmax / 24
            r0 = max([-rmax + k * step for k in range(24)] + [rmax], key=ridge)
            lo2, hi2 = max(r0 - step, -rmax), min(r0 + step, rmax)
            lo, hi = min(lo, lo2), max(hi, hi2)
        r_b, v_b = _golden_max(ridge, lo, hi, 1e-11 * (1.0 + hi - lo))
        if v_b <= best + 1e-14:
            break
        x, best = _coordinate_ascent(line, [t_ridge(r_b), r_b], bounds)
    if best <= 0.0:
        return 0.0, _IDLE
    return best, (x[0], x[1], 0.0, 0.0)


# Each kernel is looked up at call time, so a wrapper put on this module's
# attribute (as the benchmark's tracer does) sees every call.
def _j_inner(mode: GlobalEnvMode, eta: float, nj: float, earlier=None):
    """Best per-mode coherent information at photon number nj, floored at 0."""
    return _seed_inner(coherent_information, delta_term, mode, eta, nj, earlier)


def _i_inner(mode: GlobalEnvMode, eta: float, nj: float, earlier=None):
    """Best per-mode quantum mutual information at photon number nj."""
    return _seed_inner(quantum_mutual_information, _thermal_i, mode, eta, nj, earlier)


def _thermal_i(nj: float, eta: float, temp: float) -> float:
    return g_entropy(nj) + delta_term(nj, eta, temp)


# ---------------------------------------------------------------------------
# mode grouping and the outer allocation loop


def _cluster_modes(modes: list[GlobalEnvMode]) -> list[tuple[GlobalEnvMode, list[int]]]:
    """(|s| representative, mode indices) of each group of modes sharing (|s|, temp)."""
    order = sorted(range(len(modes)), key=lambda j: (abs(modes[j].s), modes[j].temp))
    groups: list[tuple[GlobalEnvMode, list[int]]] = []
    for j in order:
        s_abs = abs(modes[j].s)
        temp = modes[j].temp
        if groups and (
            abs(groups[-1][0].s - s_abs) <= 1e-12 * (1.0 + s_abs)
            and abs(groups[-1][0].temp - temp) <= 1e-12 * (1.0 + temp)
        ):
            groups[-1][1].append(j)
        else:
            groups.append((GlobalEnvMode(0, s_abs, temp), [j]))
    return groups


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    # one-sided three-point estimate, clipped to preserve shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _FastCubic:
    """Scalar monotone cubic (PCHIP) through at least two nodes (xs, ys).

    Follows scipy's ``PchipInterpolator`` operation by operation, so breaks
    and coefficients equal scipy's bit for bit; ``tests/test_optimize.py``
    holds it to that.
    """

    __slots__ = ("breaks", "coefs", "lo", "hi")

    def __init__(self, xs, ys):
        # float() is exact, and _sign's bool arithmetic fails on numpy scalars
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        h = [b - a for a, b in zip(xs, xs[1:])]
        m = [(b - a) / hk for a, b, hk in zip(ys, ys[1:], h)]
        if len(h) == 1:
            d = [m[0], m[0]]
        else:
            # interior: weighted harmonic mean of the secants, 0 at an extremum
            d = [_pchip_end_slope(h[0], h[1], m[0], m[1])]
            for k in range(1, len(h)):
                w1, w2 = 2 * h[k] + h[k - 1], h[k] + 2 * h[k - 1]
                d.append(0.0 if _sign(m[k - 1]) * _sign(m[k]) <= 0
                         else 1.0 / ((w1 / m[k - 1] + w2 / m[k]) / (w1 + w2)))
            d.append(_pchip_end_slope(h[-1], h[-2], m[-1], m[-2]))
        self.coefs = []
        for k, hk in enumerate(h):
            t = (d[k] + d[k + 1] - 2 * m[k]) / hk
            self.coefs.append([t / hk, (m[k] - d[k]) / hk - t, d[k], ys[k]])
        self.breaks, self.lo, self.hi = xs, xs[0], xs[-1]

    def __call__(self, x: float) -> float:
        # comparisons, not min/max: the allocator calls this in its innermost loop
        breaks, coefs = self.breaks, self.coefs
        if x < self.lo:
            x = self.lo
        elif x > self.hi:
            x = self.hi
        k = bisect.bisect_right(breaks, x) - 1  # >= 0 once x is clamped
        if k == len(coefs):  # x is the last break (or NaN)
            k -= 1
        dx = x - breaks[k]
        c3, c2, c1, c0 = coefs[k]
        return ((c3 * dx + c2) * dx + c1) * dx + c0


class _GroupSolver:
    """Memoized value of spending x photons on one mode of the group ``indices``.

    +s/-s pairs have equal value, so ``mode`` is the group's |s| representative.
    Each inner solve gets the memo as ``earlier``; only J and I read it.
    """

    def __init__(self, mode: GlobalEnvMode, indices: list[int], eta: float, inner, marginal):
        self.mode = mode
        self.indices = indices
        self.eta = eta
        self.inner = inner
        self.envelope = marginal
        self.memo: dict[float, tuple[float, tuple]] = {}  # one entry per inner solve

    def solve(self, nj: float) -> tuple[float, tuple]:
        key = round(max(nj, 0.0), 10)
        if key not in self.memo:
            self.memo[key] = self.inner(self.mode, self.eta, key, self.memo)
        return self.memo[key]

    def marginal(self, y: float, budget: float) -> float:
        """dV/dN at y photons: the envelope marginal, else a finite difference."""
        m = self.envelope(self.mode, self.eta, max(y, 0.0), self.solve(y))
        return self.finite_difference(y, budget) if m is None else m

    def finite_difference(self, y: float, budget: float) -> float:
        """Central difference of the solved value at y, one-sided at 0 and budget."""
        h = max(1e-3 * (1.0 + y), 1e-4)
        lo = max(y - h, 0.0)
        hi = min(y + h, budget)
        return (self.solve(hi)[0] - self.solve(lo)[0]) / (hi - lo)


def _mirror_params(params: tuple, s: float) -> tuple:
    # a -s mode is the q<->p image of its +s partner
    t, r, cq, cp = params
    if s >= 0.0:
        return t, r, cq, cp
    return t, -r, cp, cq


# Envelope-theorem marginals dV/dN of the per-mode value functions at the
# solved optimum; exact up to inner-solve precision, unlike finite
# differences of the (noisy) solved values.  Return None when the solved
# point gives no usable envelope (caller falls back to a finite difference).


def _chi_marginal(mode: GlobalEnvMode, eta: float, nj: float, out) -> float | None:
    _, (t, r, cq, cp) = out
    ctot = cq + cp
    if ctot <= 1e-12:
        return None
    # the modulation slopes stay finite where the full gradient has a g'(0) edge
    _, _, aq, ap = _outputs(t, r, cq, cp, mode, eta)
    try:
        d_cq, d_cp = _chi_modulation_slopes(aq, ap, eta)
    except ValueError:
        return None
    f = cq / ctot
    # c budget grows as 2 dN at fixed seed and split
    return 2.0 * (f * d_cq + (1.0 - f) * d_cp)


def _constrained_marginal(gradient, mode, eta, t, r, nj) -> float | None:
    # multiplier of (t+1/2) cosh r - 1/2 <= nj via least-squares projection
    try:
        d_t, d_r = gradient(t, r, mode, eta)
    except (ValueError, ZeroDivisionError):
        return None
    photons = (t + 0.5) * math.cosh(r) - 0.5
    if photons < nj - 1e-7 * (1.0 + nj):
        return 0.0
    g_t = math.cosh(r)
    g_r = (t + 0.5) * math.sinh(r)
    return (d_t * g_t + d_r * g_r) / (g_t * g_t + g_r * g_r)


def _j_marginal(mode: GlobalEnvMode, eta: float, nj: float, out) -> float | None:
    value, (t, r, _, _) = out
    if value <= 0.0 and t == 0.0 and r == 0.0:
        return 0.0  # idled mode sits on the J = 0 floor
    return _constrained_marginal(coherent_information_gradient, mode, eta, t, r, nj)


def _i_marginal(mode: GlobalEnvMode, eta: float, nj: float, out) -> float | None:
    _, (t, r, _, _) = out
    if t <= 0.0:
        return None  # g'(t) diverges at the origin
    return _constrained_marginal(quantum_mutual_information_gradient, mode, eta, t, r, nj)


def _exact_refine(solvers, weights, budget, start):
    """Equalize exact marginals across groups by damped Newton water-filling.

    ``start`` is nonnegative and spends the positive budget up to roundoff;
    each round linearizes the marginal of every group around the current
    point and solves the resulting water-filling problem in closed form,
    clamping groups driven below zero.
    """
    m_count = len(solvers)
    tot = math.fsum(w * v for w, v in zip(weights, start))
    x = [v * (budget / tot) for v in start]
    for _ in range(4):
        marg, slope = [], []
        for solver, xi in zip(solvers, x):
            probe = max(0.02 * (1.0 + xi), 1e-3)
            m0 = solver.marginal(xi, budget)
            marg.append(m0)
            slope.append(min((solver.marginal(xi + probe, budget) - m0) / probe, -1e-12))
        active = list(range(m_count))
        while True:
            inv = [1.0 / slope[i] for i in active]
            mu = ((budget - math.fsum(weights[i] * (x[i] - marg[i] * v) for i, v in zip(active, inv)))
                  / math.fsum(weights[i] * v for i, v in zip(active, inv)))
            trial = [x[i] + (mu - marg[i]) * v for i, v in zip(active, inv)]
            if min(trial) >= 0.0:
                break
            del active[trial.index(min(trial))]
            if not active:
                return x
        new = [0.0] * m_count
        for i, v in zip(active, trial):
            new[i] = v
        caps = [0.5 * (1.0 + xi) + 0.05 * budget for xi in x]
        x = [max(xi + min(max(ni - xi, -cap), cap), 0.0) for xi, ni, cap in zip(x, new, caps)]
        tot = math.fsum(w * v for w, v in zip(weights, x))
        if tot > 0:
            x = [v * (budget / tot) for v in x]
        levels = [marg[i] for i in active]
        if max(levels) - min(levels) < 1e-9 * (1.0 + abs(max(levels))):
            break
    return x


def _optimize_grouped(modes, eta, nbar, inner, marginal):
    """Water-filled maximization of a per-mode additive objective.

    Returns its :class:`OptResult`: the total over the modes per channel
    use, floored at 0.
    """
    n = len(modes)
    budget = n * nbar
    solvers = [_GroupSolver(mode, indices, eta, inner, marginal) for mode, indices in _cluster_modes(modes)]
    weights = [len(solver.indices) for solver in solvers]

    # solve() rounds photon numbers to 1e-10, so a smaller budget only idles
    if round(budget, 10) <= 0.0:
        return _result(0.0, [_IDLE] * n)

    # seed node grid, densest near zero where the value functions curve most
    nodes = {0.0, budget, nbar, *(budget * (i / 12.0) ** 1.6 for i in range(1, 12))}
    for solver in solvers:
        for x in sorted(nodes):
            solver.solve(x)

    # a candidate allocation holds one photon number per group, for each of its modes
    def exact_total(alloc):
        return math.fsum(value for solver, y in zip(solvers, alloc)
                         for value in [solver.solve(y)[0]] * len(solver.indices))

    best_alloc = [nbar] * len(solvers)
    best_total = exact_total(best_alloc)
    fallback = False
    for _ in range(3):
        cubics = []
        for solver in solvers:
            xs = sorted(solver.memo)
            cubics.append(_FastCubic(xs, [solver.memo[x][0] for x in xs]))
        alloc, info = allocate_photons(cubics, weights, nbar)
        fallback = fallback or info["fallback"]
        known = sum(len(solver.memo) for solver in solvers)
        total = exact_total(alloc)  # populates nodes at the proposed optimum
        if total > best_total:  # the first of equal totals stays
            best_alloc, best_total = alloc, total
        if sum(len(solver.memo) for solver in solvers) == known:
            break  # a round is a pure function of the memos, so the next would repeat this one

    # polish the best allocation so far with exact envelope marginals
    refined = _exact_refine(solvers, weights, budget, best_alloc)
    total = exact_total(refined)
    if total > best_total:
        best_alloc, best_total = refined, total

    params = [None] * n
    for solver, y in zip(solvers, best_alloc):
        for j in solver.indices:
            params[j] = _mirror_params(solver.solve(y)[1], modes[j].s)

    # KKT residual: marginal-value spread across active groups, plus any
    # idle group whose entry marginal beats the active level
    kkt = 0.0
    slopes = [solver.marginal(y, budget) if y > 1e-6 else solver.finite_difference(y, budget)
              for solver, y in zip(solvers, best_alloc)]
    active = [m for m, y in zip(slopes, best_alloc) if y > 1e-6]
    idle = [m for m, y in zip(slopes, best_alloc) if y <= 1e-6]
    if len(active) > 1:
        kkt = max(active) - min(active)
    if active and idle:
        kkt = max(kkt, max(idle) - max(active))

    # A group's value can be convex above a threshold photon number (J is 0
    # below it), where spreading over all w modes is not best.  Where the
    # allocator fell back or f(y) lies under its tangent from the origin,
    # try the group's photons on k < w modes, the rest idle.
    split = False
    for solver, y, slope in zip(solvers, best_alloc, slopes):
        w = len(solver.indices)
        value = solver.solve(y)[0]
        if w < 2 or y <= 0.0 or not (fallback or value < y * slope):
            continue
        group_budget = w * y
        splits = {k: k * solver.solve(group_budget / k)[0] for k in range(1, w)}
        k = max(splits, key=splits.get)
        gain = splits[k] - w * value
        if gain > 1e-12 * (1.0 + abs(w * value)):
            split = True
            best_total += gain
            raw = solver.solve(group_budget / k)[1]
            for rank, j in enumerate(solver.indices):
                params[j] = _mirror_params(raw, modes[j].s) if rank < k else _IDLE

    iterations = sum(len(solver.memo) for solver in solvers)
    converged = not fallback and not split and kkt <= 1e-4
    return _result(max(best_total, 0.0) / n, params, converged, iterations, kkt)


def _resolve_modes(cfg: ChannelConfig, modes):
    if modes is None:
        return env_global_modes(cfg)
    modes = list(modes)
    if len(modes) != cfg.n:
        raise ValueError(f"got {len(modes)} modes for an n={cfg.n} channel")
    # ChannelConfig's corner squeezed twice as far: the kernels stay finite
    # there, and every local mode's T_eff (4.8e56 at most) stays under it
    max_variance = (MAX_TEMP + 0.5) * math.exp(2.0 * MAX_ABS_S)
    for mode in modes:
        if not (math.isfinite(mode.s) and math.isfinite(mode.temp)):
            raise ValueError(f"mode {mode.index}: s and temp must be finite, got {mode}")
        if mode.temp < -1e-9:  # g_entropy's roundoff allowance
            raise ValueError(f"mode {mode.index}: temp must be >= 0, got {mode.temp}")
        if abs(mode.s) > 2.0 * MAX_ABS_S:
            raise ValueError(f"mode {mode.index}: |s| must be <= {2.0 * MAX_ABS_S:g}, got {mode.s}")
        if (mode.temp + 0.5) * math.exp(abs(mode.s)) > max_variance:
            raise ValueError(f"mode {mode.index}: variance (temp + 1/2) e^|s| must be <= "
                             f"{max_variance:.3g}, got {mode}")
    return modes


# ---------------------------------------------------------------------------
# public optimizers


def maximize_classical(cfg: ChannelConfig, modes: list[GlobalEnvMode] | None = None) -> OptResult:
    """Maximal Holevo rate over Gaussian encodings, bits per channel use.

    Where ``classical_lower_from_modes`` is valid (always at eta = 0 and
    eta = 1), its closed form is the capacity and is returned with its
    encoding and 0 iterations; elsewhere the water-filled numeric optimum
    is.  ``modes`` overrides the environment modes (e.g. from a
    passive-form spec); there must be cfg.n of them, and cfg.eta and
    cfg.nbar still apply.
    """
    modes = _resolve_modes(cfg, modes)
    try:
        bound = classical_lower_from_modes(modes, cfg.eta, cfg.nbar)
    except ValueError:  # mixed environment temperatures have no closed form
        bound = None
    if bound is not None and bound.valid:
        return _result(bound.value, [(pm.t, pm.r, max(pm.c_q, 0.0), max(pm.c_p, 0.0))
                                     for pm in bound.per_mode])
    return _optimize_grouped(modes, cfg.eta, cfg.nbar, _chi_inner, _chi_marginal)


def maximize_quantum(cfg: ChannelConfig, modes: list[GlobalEnvMode] | None = None) -> OptResult:
    """Maximal coherent-information rate, bits per channel use.

    Exactly zero for eta < 1/2, where the channel is anti-degradable.
    """
    modes = _resolve_modes(cfg, modes)
    if cfg.eta < 0.5:
        return _result(0.0, [_IDLE] * cfg.n)
    return _optimize_grouped(modes, cfg.eta, cfg.nbar, _j_inner, _j_marginal)


def maximize_ent_assisted(cfg: ChannelConfig, modes: list[GlobalEnvMode] | None = None) -> OptResult:
    """Maximal entanglement-assisted rate, bits per channel use.

    Exactly zero for eta = 0, where the output does not depend on the input.
    """
    modes = _resolve_modes(cfg, modes)
    if cfg.eta == 0.0:
        return _result(0.0, [_IDLE] * cfg.n)
    return _optimize_grouped(modes, cfg.eta, cfg.nbar, _i_inner, _i_marginal)


def _local_modes(cfg: ChannelConfig) -> list[GlobalEnvMode]:
    return [
        GlobalEnvMode(k, 0.0, local_effective_temperature(cfg, k)) for k in range(1, cfg.n + 1)
    ]


def maximize_quantum_local(cfg: ChannelConfig) -> OptResult:
    """Quantum rate when each mode sees only its thermal marginal T_eff(k)."""
    return maximize_quantum(cfg, modes=_local_modes(cfg))


def maximize_ent_assisted_local(cfg: ChannelConfig) -> OptResult:
    """Assisted rate when each mode sees only its thermal marginal T_eff(k)."""
    return maximize_ent_assisted(cfg, modes=_local_modes(cfg))
