"""Numerical maximization of the capacity quantities over Gaussian encodings.

Wherever the classical closed form is valid it is the capacity, so
``maximize_classical`` returns it and its encoding without a numeric solve.
Everywhere else, and for every other quantity, an outer water-filling loop
allocates the photon budget across the decoupled modes, and an inner
derivative-free coordinate descent (golden section line searches) optimizes
each mode's encoding at fixed photon number.  Modes come in +s/-s pairs with
identical value functions, so the per-mode value of photons is solved once
per pair on a node grid, bridged by a monotone cubic, water-filled, and
re-solved exactly at the returned allocation; three refinement rounds keep
adding nodes near the optimum.  The analytic optimum and the
infinite-squeezing encoding seed the inner descent.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .allocation import _golden_max, allocate_photons
from .analytic import classical_lower_from_modes
from .channel import ChannelConfig, GlobalEnvMode, env_global_modes, local_effective_temperature
from .gaussian import g_prime
from .information import (
    EncodingParams,
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
    converged     allocation finished cleanly and kkt_residual <= 1e-4
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
    return OptResult(value, EncodingParams.from_free(*zip(*param_list)), converged, iterations, kkt)


# ---------------------------------------------------------------------------
# inner per-mode solvers


def _coordinate_ascent(fun, x, bounds):
    """Cyclic golden-section ascent of fun(list) with per-coordinate bounds.

    ``bounds(i, x)`` returns the feasible interval of coordinate i given the
    rest of x.  Stops when no coordinate moved more than 1e-9 or the value
    stalls.
    """
    x = list(x)
    best = fun(x)
    for _ in range(10):
        moved = 0.0
        prev = best
        for i in range(len(x)):
            lo, hi = bounds(i, x)
            old = min(max(x[i], lo), hi)
            x[i] = old
            if hi - lo <= 1e-14:
                continue

            def line(v, i=i):
                trial = x.copy()
                trial[i] = v
                return fun(trial)

            xi, vi = _golden_max(line, lo, hi, 1e-9 * (1.0 + hi - lo))
            if vi > best:
                best = vi
                x[i] = xi
                moved = max(moved, abs(xi - old))
        if moved < 1e-9 and best - prev < 1e-13:
            break
    return x, best


def _tr_bounds(cap: float, i: int, x) -> tuple[float, float]:
    """Interval of t (i = 0) or r (i = 1) on (t + 1/2) cosh r <= cap, the other fixed."""
    if i == 0:
        return 0.0, max(cap / math.cosh(x[1]) - 0.5, 0.0)
    rm = math.acosh(max(cap / (x[0] + 0.5), 1.0))
    return -rm, rm


def _chi_inner(mode: GlobalEnvMode, eta: float, nj: float, warm=None):
    """Best per-mode Holevo information at photon number nj.

    Returns (value, (t, r, c_q, c_p)).  Parametrized by the seed (t, r) and
    the fraction f of the remaining modulation budget spent on c_q, so the
    energy constraint is saturated by construction.
    """
    if nj <= 1e-13:
        return 0.0, _IDLE
    cap = nj + 0.5

    def split(t, r, f):
        ctot = max(2.0 * (cap - (t + 0.5) * math.cosh(r)), 0.0)
        return f * ctot, (1.0 - f) * ctot

    def value(x):
        t, r, f = x
        cq, cp = split(t, r, f)
        return chi_mode(t, r, cq, cp, mode, eta)

    def balance_f(t, r):
        # modulation split that equalizes the two output quadratures
        ctot = 2.0 * (cap - (t + 0.5) * math.cosh(r))
        if ctot <= 0.0:
            return 0.5
        oq, op, _, _ = _outputs(t, r, 0.0, 0.0, mode, eta)
        cq = 0.5 * (ctot + (op - oq) / eta)
        return min(max(cq / ctot, 0.0), 1.0)

    rmax0 = math.acosh(2.0 * nj + 1.0)
    seeds = []
    r_match = min(mode.s, rmax0 * (1.0 - 1e-12))
    seeds.append((0.0, r_match, balance_f(0.0, r_match)))
    r_deep = min(math.log(2.0 * nj + 1.0), rmax0 * (1.0 - 1e-12))
    seeds.append((0.0, r_deep, balance_f(0.0, r_deep)))
    seeds.append((0.0, 0.0, balance_f(0.0, 0.0)))
    if warm is not None:
        t_w, r_w, cq_w, cp_w = warm
        t_w = min(max(t_w, 0.0), cap - 0.5)
        r_w = min(max(r_w, -rmax0), rmax0)
        if (t_w + 0.5) * math.cosh(r_w) <= cap:
            ctot = cq_w + cp_w
            seeds.append((t_w, r_w, cq_w / ctot if ctot > 0 else 0.5))

    start = max(seeds, key=value)

    def bounds(i, x):
        return _tr_bounds(cap, i, x) if i < 2 else (0.0, 1.0)

    x, best = _coordinate_ascent(value, list(start), bounds)
    t, r, f = x
    cq, cp = split(t, r, f)
    return best, (t, r, cq, cp)


def _seed_inner(kernel, mode: GlobalEnvMode, eta: float, nj: float, warm):
    """Best per-mode kernel(t, r, mode, eta) at photon number nj, floored at 0.

    Idling (t = 0) always achieves zero, so the returned value is
    nonnegative.  Returns (value, (t, r, 0.0, 0.0)).
    """
    if nj <= 1e-13:
        return 0.0, _IDLE
    cap = nj + 0.5
    rmax = math.acosh(2.0 * nj + 1.0) * (1.0 - 1e-12)

    def value(x):
        return kernel(x[0], x[1], mode, eta)

    def guarded(x):
        return value(x) if (x[0] + 0.5) * math.cosh(x[1]) <= cap else -math.inf

    def bounds(i, x):
        return _tr_bounds(cap, i, x)

    def on_ridge(r):
        return [_tr_bounds(cap, 0, (0.0, r))[1], float(r)]

    def ridge(r):
        return value(on_ridge(r))

    # coarse (t, r) grid, then all photons thermal, then the warm start
    start, best = None, -math.inf
    for t in np.linspace(0.0, 1.0, 9) ** 1.5 * nj:
        for r in np.linspace(-rmax, rmax, 11):
            v = guarded([t, r])
            if v > best:
                start, best = [float(t), float(r)], v
    v = guarded([nj, 0.0])  # all photons thermal, no squeezing
    if v > best:
        start, best = [nj, 0.0], v
    if warm is not None:
        t_w = min(max(warm[0], 0.0), nj)
        lo, hi = _tr_bounds(cap, 1, (t_w, 0.0))
        cand = [t_w, min(max(warm[1], lo), hi)]
        v = guarded(cand)
        if v > best:
            start, best = cand, v
    x, best = _coordinate_ascent(guarded, start, bounds)

    # Axis-parallel moves stall against the energy constraint, where the
    # optimum usually sits; slide along the constraint curve explicitly.
    grid_done = False
    for _ in range(3):
        slack = cap - (x[0] + 0.5) * math.cosh(x[1])
        if slack > 1e-6 * cap:
            break
        lo, hi = max(x[1] - 0.7, -rmax), min(x[1] + 0.7, rmax)
        if not grid_done:
            rs = np.linspace(-rmax, rmax, 25)
            r0 = float(rs[int(np.argmax([ridge(r) for r in rs]))])
            step = 2.0 * rmax / 24
            lo2, hi2 = max(r0 - step, -rmax), min(r0 + step, rmax)
            lo, hi = min(lo, lo2), max(hi, hi2)
            grid_done = True
        r_b, v_b = _golden_max(ridge, lo, hi, 1e-11 * (1.0 + hi - lo))
        if v_b <= best + 1e-14:
            break
        x, best = on_ridge(r_b), v_b
        x, best = _coordinate_ascent(guarded, x, bounds)
    if best <= 0.0:
        return 0.0, _IDLE
    return best, (x[0], x[1], 0.0, 0.0)


# Each kernel is looked up at call time, so a wrapper put on this module's
# attribute (as the benchmark's tracer does) sees every call.
def _j_inner(mode: GlobalEnvMode, eta: float, nj: float, warm=None):
    """Best per-mode coherent information at photon number nj, floored at 0."""
    return _seed_inner(coherent_information, mode, eta, nj, warm)


def _i_inner(mode: GlobalEnvMode, eta: float, nj: float, warm=None):
    """Best per-mode quantum mutual information at photon number nj."""
    return _seed_inner(quantum_mutual_information, mode, eta, nj, warm)


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
        x = min(max(x, self.lo), self.hi)
        k = bisect.bisect_right(self.breaks, x) - 1
        k = min(max(k, 0), len(self.coefs) - 1)
        dx = x - self.breaks[k]
        c3, c2, c1, c0 = self.coefs[k]
        return ((c3 * dx + c2) * dx + c1) * dx + c0


class _GroupSolver:
    """Memoized value of spending x photons on one mode of the group ``indices``.

    +s/-s pairs have equal value, so ``mode`` is the group's |s| representative.
    """

    def __init__(self, mode: GlobalEnvMode, indices: list[int], eta: float, inner, marginal):
        self.mode = mode
        self.indices = indices
        self.eta = eta
        self.inner = inner
        self.envelope = marginal
        self.memo: dict[float, tuple[float, tuple]] = {}  # one entry per inner solve

    def solve(self, nj: float) -> tuple[float, tuple]:
        # numpy rounds, then float() keeps numpy scalars out of the results
        key = float(round(max(nj, 0.0), 10))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        warm = None
        if self.memo:
            nearest = min(self.memo, key=lambda k: abs(k - key))
            warm = self.memo[nearest][1]
        out = self.inner(self.mode, self.eta, key, warm)
        self.memo[key] = out
        return out

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
    # only the modulation derivatives are needed; they stay finite even at a
    # pure output-noise state, where the full gradient has a g'(0) edge
    oq, op, aq, ap = _outputs(t, r, cq, cp, mode, eta)
    nu_bar = math.sqrt(aq * ap)
    if nu_bar - 0.5 <= 0.0:
        return None
    gp = g_prime(nu_bar - 0.5)
    d_cq = gp * eta * ap / (2.0 * nu_bar)
    d_cp = gp * eta * aq / (2.0 * nu_bar)
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

    ``start`` is a per-group allocation summing (with weights) to budget;
    each round linearizes the marginal of every group around the current
    point and solves the resulting water-filling problem in closed form,
    clamping groups driven below zero.
    """
    m_count = len(solvers)
    x = np.maximum(np.asarray(start, dtype=float), 0.0)
    tot = float(weights @ x)
    x = x * (budget / tot) if tot > 0 else np.full(m_count, budget / weights.sum())
    for _ in range(4):
        marg = np.empty(m_count)
        slope = np.empty(m_count)
        for i, solver in enumerate(solvers):
            probe = max(0.02 * (1.0 + x[i]), 1e-3)
            m0 = solver.marginal(x[i], budget)
            m1 = solver.marginal(x[i] + probe, budget)
            marg[i] = m0
            slope[i] = min((m1 - m0) / probe, -1e-12)
        active = np.ones(m_count, dtype=bool)
        new = x.copy()
        for _ in range(m_count + 1):
            w = weights[active]
            inv = 1.0 / slope[active]
            mu = (budget - float(w @ (x[active] - marg[active] * inv))) / float(w @ inv)
            trial = x[active] + (mu - marg[active]) * inv
            if (trial >= 0.0).all():
                new = np.zeros(m_count)
                new[active] = trial
                break
            drop = np.flatnonzero(active)[int(np.argmin(trial))]
            active[drop] = False
            if not active.any():
                return x
        step = new - x
        cap = 0.5 * (1.0 + x) + 0.05 * budget
        x = np.maximum(x + np.clip(step, -cap, cap), 0.0)
        tot = float(weights @ x)
        if tot > 0:
            x *= budget / tot
        spread = marg[active].max() - marg[active].min() if active.sum() > 1 else 0.0
        if spread < 1e-9 * (1.0 + abs(float(marg[active].max()))):
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
    weights = np.array([float(len(solver.indices)) for solver in solvers])
    group_idx = [0] * n
    for gi, solver in enumerate(solvers):
        for j in solver.indices:
            group_idx[j] = gi

    # solve() rounds photon numbers to 1e-10, so a smaller budget only idles
    if round(budget, 10) <= 0.0:
        return _result(0.0, [_IDLE] * n)

    # seed node grid, densest near zero where the value functions curve most
    nodes = {0.0, budget, min(nbar, budget)}
    for i in range(1, 12):
        nodes.add(budget * (i / 12.0) ** 1.6)
    for solver in solvers:
        for x in sorted(nodes):
            solver.solve(x)

    def exact_total(alloc):
        return math.fsum(solvers[group_idx[j]].solve(alloc[j])[0] for j in range(n))

    candidates = [np.full(n, nbar)]

    fallback = False
    for _ in range(3):
        cubics = []
        for solver in solvers:
            xs = sorted(solver.memo)
            ys = [solver.memo[x][0] for x in xs]
            cubics.append(_FastCubic(xs, ys))
        fns = [cubics[group_idx[j]] for j in range(n)]
        alloc, info = allocate_photons(fns, nbar, return_info=True)
        fallback = fallback or info["fallback"]
        candidates.append(np.asarray(alloc, dtype=float))
        exact_total(alloc)  # populate nodes at the proposed optimum

    # polish the best allocation so far with exact envelope marginals
    seed_alloc = max(candidates, key=exact_total)
    start = np.array([
        math.fsum(seed_alloc[j] for j in solver.indices) / len(solver.indices) for solver in solvers
    ])
    refined = _exact_refine(solvers, weights, budget, start)
    candidates.append(np.array([refined[group_idx[j]] for j in range(n)]))

    best_alloc = max(candidates, key=exact_total)
    best_total = exact_total(best_alloc)

    params = []
    for j in range(n):
        raw = solvers[group_idx[j]].solve(best_alloc[j])[1]
        params.append(_mirror_params(raw, modes[j].s))

    # KKT residual: marginal-value spread across active groups, plus any
    # idle group whose entry marginal beats the active level
    kkt = 0.0
    active = []
    idle = []
    for solver in solvers:
        y = float(best_alloc[solver.indices[0]])
        if y > 1e-6:
            active.append(solver.marginal(y, budget))
        else:
            idle.append(solver.finite_difference(y, budget))
    if len(active) > 1:
        kkt = max(active) - min(active)
    if active and idle:
        kkt = max(kkt, max(idle) - max(active))

    iterations = sum(len(solver.memo) for solver in solvers)
    return _result(max(best_total, 0.0) / n, params, not fallback and kkt <= 1e-4, iterations, kkt)


def _resolve_modes(cfg: ChannelConfig, modes):
    if modes is None:
        return env_global_modes(cfg)
    modes = list(modes)
    if len(modes) != cfg.n:
        raise ValueError(f"got {len(modes)} modes for an n={cfg.n} channel")
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
    """Maximal entanglement-assisted rate, bits per channel use."""
    return _optimize_grouped(_resolve_modes(cfg, modes), cfg.eta, cfg.nbar, _i_inner, _i_marginal)


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
