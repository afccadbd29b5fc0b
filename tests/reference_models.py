"""Independent reference models that the tests compare the package against.

None is on a path that produces a reported value.  In order: the dense and
passive forms of the environment; the two-use environment as a dense 4x4
covariance with its numeric PPT eigenvalue (``TwoModeCov``,
``interleaved_to_block``, ``ppt_min_symplectic`` and ``env_two_mode_cov``),
against which the closed forms of ``memchan.entanglement`` are checked;
full-spectrum Gaussian entropies, dense per-mode rates, a brute-force
grid oracle for n <= 2 on its own kernels, the water-filling allocator
over a per-mode list, each entry evaluated separately (``allocate_photons_per_entry``),
the allocator that walks every group's photon number to full depth at every water-level
step (``allocate_photons_full_walk``),
the coordinate ascent as it was before it skipped repeated line searches
(``coordinate_ascent_every_search``), 60-digit mpmath forms of g, g' and the per-mode Holevo information, and a
per-mode Holevo search that leaves the seed's thermal part free.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import mpmath
import numpy as np

from memchan.allocation import AllocationError, _golden_max
from memchan.channel import ChannelConfig, GlobalEnvMode, env_global_modes, omega_spectrum
from memchan.gaussian import UnphysicalStateError, g_entropy, symplectic_eigenvalues
from memchan.information import EncodingParams, chi_mode

_LN2 = math.log(2.0)


def omega_matrix(n: int) -> np.ndarray:
    """Nearest-neighbour coupling matrix: ones on the first off-diagonals."""
    omega = np.zeros((n, n))
    idx = np.arange(n - 1)
    omega[idx, idx + 1] = 1.0
    omega[idx + 1, idx] = 1.0
    return omega


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


@dataclass(frozen=True)
class TwoModeCov:
    """Two-mode covariance in block form [[A, C^T], [C, B]].

    A and B are the 2x2 single-mode blocks in (q, p) ordering, C the
    intermodal correlation block.  ``matrix()`` returns the interleaved
    (q1, p1, q2, p2) matrix.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for name, blk in (("a", self.a), ("b", self.b), ("c", self.c)):
            if np.shape(blk) != (2, 2):
                raise ValueError(f"block {name} must be 2x2")

    def matrix(self) -> np.ndarray:
        return np.block([[self.a, self.c.T], [self.c, self.b]])

    def symplectic_eigenvalues(self) -> np.ndarray:
        return symplectic_eigenvalues(interleaved_to_block(self.matrix()))


def interleaved_to_block(mat: np.ndarray) -> np.ndarray:
    """Reorder a covariance from (q1,p1,...,qm,pm) to (q1..qm, p1..pm)."""
    dim = mat.shape[0]
    if dim % 2 or mat.shape != (dim, dim):
        raise ValueError("covariance matrix must be 2m x 2m")
    perm = np.r_[0:dim:2, 1:dim:2]
    return mat[np.ix_(perm, perm)]


def ppt_min_symplectic(cov: TwoModeCov) -> float:
    """Smallest symplectic eigenvalue after partial transposition.

    Flips the sign of the second mode's momentum and recomputes the
    symplectic spectrum.  The state is PPT-separable iff the returned value
    is >= 1/2.  The input must itself be physical.
    """
    mat = cov.matrix()
    # physicality check on the original state
    symplectic_eigenvalues(interleaved_to_block(mat))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    tilted = flip @ mat @ flip
    nus = symplectic_eigenvalues(interleaved_to_block(tilted), check=False)
    return float(nus.min())


def env_two_mode_cov(s: float, temp: float) -> TwoModeCov:
    """Covariance of the two-use squeezed thermal environment.

    Closed form of (temp + 1/2)(e^{s Omega} (+) e^{-s Omega}) for the 2x2
    coupling Omega = [[0, 1], [1, 0]].
    """
    if temp < 0:
        raise ValueError("temperature parameter must be nonnegative")
    v = temp + 0.5
    ch = v * math.cosh(s)
    sh = v * math.sinh(s)
    block = np.diag([ch, ch])
    cross = np.diag([sh, -sh])
    return TwoModeCov(a=block, b=block, c=cross)


def von_neumann_entropy(cov: np.ndarray) -> float:
    """Von Neumann entropy in bits of the Gaussian state with covariance ``cov``.

    ``cov`` is 2m x 2m in block ordering.  Sum of g(nu_k - 1/2) over the
    symplectic spectrum; symplectic eigenvalues within 1e-9 below 1/2 are
    treated as exactly 1/2.
    """
    nus = symplectic_eigenvalues(cov)
    return float(sum(g_entropy(max(nu - 0.5, 0.0)) for nu in nus))


def purify_single_mode(t: float, r: float) -> TwoModeCov:
    """Two-mode purification of the squeezed thermal state (t, r).

    Returns the standard-form pure covariance with blocks
    A = diag(a, b), B = diag(b, a), C = diag(x, -x) where
    a = (t+1/2)e^r, b = (t+1/2)e^-r and x = sqrt(ab - 1/4).
    The first mode's marginal is the input state.
    """
    if t < -1e-12:
        raise UnphysicalStateError(f"thermal photon number must be >= 0, got {t}")
    t = max(t, 0.0)
    v = t + 0.5
    a = v * math.exp(r)
    b = v * math.exp(-r)
    x = math.sqrt(max(a * b - 0.25, 0.0))
    return TwoModeCov(
        a=np.diag([a, b]),
        b=np.diag([b, a]),
        c=np.diag([x, -x]),
    )


def reduce_to_mode(cov: np.ndarray, k: int) -> np.ndarray:
    """2x2 marginal covariance of mode ``k`` (1-based) in (q, p) ordering.

    ``cov`` is 2m x 2m in block ordering.
    """
    cov = np.asarray(cov, dtype=float)
    dim = cov.shape[0]
    if dim % 2 or cov.shape != (dim, dim):
        raise ValueError("covariance matrix must be 2m x 2m")
    m = dim // 2
    if not 1 <= k <= m:
        raise ValueError(f"mode index must be in 1..{m}, got {k}")
    i = k - 1
    idx = [i, m + i]
    return cov[np.ix_(idx, idx)]


def seed_local_covariance(params: EncodingParams) -> np.ndarray:
    """Seed covariance of a normal-mode encoding in the physical mode basis,
    block ordering.

    The basis change is passive (orthogonal on each quadrature block), so the
    trace and the symplectic spectrum are both preserved.
    """
    t = np.asarray(params.t)
    r = np.asarray(params.r)
    dq = (t + 0.5) * np.exp(r)
    dp = (t + 0.5) * np.exp(-r)
    n = params.n_modes
    v = omega_spectrum(n).vectors
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = v.T @ np.diag(dq) @ v
    out[n:, n:] = v.T @ np.diag(dp) @ v
    return out


def holevo_chi(params: EncodingParams, modes: list[GlobalEnvMode], eta: float) -> float:
    """Total Holevo information of the encoding over all modes, in bits.

    Additive across the decoupled modes; divide by n for bits per use.
    """
    if params.n_modes != len(modes):
        raise ValueError(f"encoding covers {params.n_modes} modes, channel has {len(modes)}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return math.fsum(
        chi_mode(params.t[j], params.r[j], params.c_q[j], params.c_p[j], modes[j], eta)
        for j in range(len(modes))
    )


def coherent_information_rotated(
    t: float, r: float, theta: float, mode: GlobalEnvMode, eta: float
) -> float:
    """Coherent information for a phase-rotated seed (diagnostic).

    Rotating the squeezed thermal seed by ``theta`` introduces a q-p
    correlation; this evaluates the resulting coherent information through
    the explicit two-mode output spectrum.  theta = 0 reproduces
    :func:`coherent_information`, and scanning theta checks that correlated
    seeds do not beat the quadrature-aligned form.
    """
    pur = purify_single_mode(t, r)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    sys_blk = rot @ pur.a @ rot.T
    cross = rot @ pur.c.T  # upper-right block, system rows by ancilla columns
    out_a = eta * sys_blk + (1.0 - eta) * mode.covariance()
    out_c = math.sqrt(eta) * cross
    joint = np.block([[out_a, out_c], [out_c.T, pur.b]])
    delta = np.linalg.det(out_a) + np.linalg.det(pur.b) + 2.0 * np.linalg.det(out_c)
    det_m = np.linalg.det(joint)
    # nu_+^2 and nu_-^2 are the roots of x^2 - delta x + det_m
    nu_plus = math.sqrt((delta + math.sqrt(max(delta * delta - 4.0 * det_m, 0.0))) / 2.0)
    nu_minus = math.sqrt(max(det_m, 0.0)) / nu_plus
    return (
        g_entropy(math.sqrt(max(np.linalg.det(out_a), 0.0)) - 0.5)
        - g_entropy(nu_plus - 0.5)
        - g_entropy(max(nu_minus - 0.5, 0.0))
    )


def _g_np(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = (xp * np.log1p(1.0 / xp) + np.log1p(xp)) / _LN2
    return out


def _chi_np(t, r, f, s, temp, eta, cap):
    v = t + 0.5
    ctot = 2.0 * (cap - v * np.cosh(r))
    feas = ctot >= -1e-12
    ctot = np.maximum(ctot, 0.0)
    env_q = (temp + 0.5) * math.exp(s)
    env_p = (temp + 0.5) * math.exp(-s)
    oq = eta * v * np.exp(r) + (1.0 - eta) * env_q
    op = eta * v * np.exp(-r) + (1.0 - eta) * env_p
    aq = oq + eta * f * ctot
    ap = op + eta * (1.0 - f) * ctot
    chi = _g_np(np.sqrt(aq * ap) - 0.5) - _g_np(np.sqrt(oq * op) - 0.5)
    return np.where(feas, chi, -np.inf)


def _j_np(t, r, s, temp, eta, cap):
    v = t + 0.5
    feas = v * np.cosh(r) <= cap * (1.0 + 1e-12)
    a = v * np.exp(r)
    b = v * np.exp(-r)
    env_q = (temp + 0.5) * math.exp(s)
    env_p = (temp + 0.5) * math.exp(-s)
    alpha = eta * a + (1.0 - eta) * env_q
    beta = eta * b + (1.0 - eta) * env_p
    det_out = alpha * beta
    i2 = det_out + (1.0 - 2.0 * eta) * a * b + 0.5 * eta
    pq = (1.0 - eta) * env_q * b + 0.25 * eta
    pp = (1.0 - eta) * env_p * a + 0.25 * eta
    rad = np.sqrt(np.maximum(i2 * i2 - 4.0 * pq * pp, 0.0))
    nu_plus = np.sqrt((i2 + rad) / 2.0)
    nu_minus = np.sqrt(pq * pp) / nu_plus
    j = (
        _g_np(np.sqrt(det_out) - 0.5)
        - _g_np(nu_plus - 0.5)
        - _g_np(np.maximum(nu_minus - 0.5, 0.0))
    )
    return np.where(feas, j, -np.inf)


def _bf_mode_max(kind: str, s: float, temp: float, eta: float, nj: float) -> float:
    """Three-stage grid maximum of one mode's quantity at photon number nj."""
    if nj <= 0.0:
        return 0.0
    cap = nj + 0.5
    rm = math.acosh(2.0 * nj + 1.0)

    if kind == "classical":
        domains = [(0.0, nj), (-rm, rm), (0.0, 1.0)]
        counts = (17, 25, 13)

        def evaluate(axes):
            t, r, f = np.meshgrid(*axes, indexing="ij")
            return _chi_np(t, r, f, s, temp, eta, cap)

    else:
        domains = [(0.0, nj), (-rm, rm)]
        counts = (25, 33)

        def evaluate(axes):
            t, r = np.meshgrid(*axes, indexing="ij")
            vals = _j_np(t, r, s, temp, eta, cap)
            if kind == "ent-assisted":
                vals = vals + _g_np(t)
            return vals

    centers = [0.5 * (lo + hi) for lo, hi in domains]
    spans = [hi - lo for lo, hi in domains]
    best = 0.0
    for _ in range(4):
        axes = [
            np.clip(np.linspace(c - sp / 2.0, c + sp / 2.0, k), lo, hi)
            for c, sp, k, (lo, hi) in zip(centers, spans, counts, domains)
        ]
        vals = evaluate(axes)
        flat = int(np.argmax(vals))
        idx = np.unravel_index(flat, vals.shape)
        best = max(best, float(vals[idx]))
        centers = [float(ax[i]) for ax, i in zip(axes, idx)]
        spans = [2.2 * (ax[1] - ax[0]) if len(ax) > 1 else 0.0 for ax in axes]

    if kind != "classical":
        # The box grid converges linearly against the slanted energy
        # boundary, where these optima usually sit; scan the boundary
        # curve t = cap/cosh(r) - 1/2 with the same staged refinement.
        center, span = 0.0, 2.0 * rm
        for _ in range(4):
            r_b = np.clip(np.linspace(center - span / 2.0, center + span / 2.0, 65), -rm, rm)
            t_b = np.maximum(cap / np.cosh(r_b) - 0.5, 0.0)
            vals = _j_np(t_b, r_b, s, temp, eta, cap)
            if kind == "ent-assisted":
                vals = vals + _g_np(t_b)
            k = int(np.argmax(vals))
            best = max(best, float(vals[k]))
            center = float(r_b[k])
            span = 2.2 * (r_b[1] - r_b[0])
    return best


def brute_force_oracle(cfg: ChannelConfig, quantity: str) -> float:
    """Certified grid maximization for n <= 2, bits per channel use.

    ``quantity`` is one of "classical", "quantum", "ent-assisted".  Slow and
    deliberately independent of the production optimizer: plain nested grids
    over the photon split and the per-mode parameters, refined three times.
    """
    if quantity not in ("classical", "quantum", "ent-assisted"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if cfg.n > 2:
        raise ValueError("brute-force oracle is limited to n <= 2")
    modes = env_global_modes(cfg)
    eta = cfg.eta
    if quantity == "quantum" and eta < 0.5:
        return 0.0
    if eta <= 0.0:
        return 0.0

    def mode_value(mode, x):
        return _bf_mode_max(quantity, mode.s, mode.temp, eta, x)

    if cfg.n == 1:
        total = mode_value(modes[0], cfg.nbar)
        return max(total, 0.0)

    budget = 2.0 * cfg.nbar
    center, span = budget / 2.0, budget
    best = 0.0
    for stage in range(4):
        count = 33 if stage == 0 else 17
        grid = np.clip(np.linspace(center - span / 2.0, center + span / 2.0, count), 0.0, budget)
        totals = [mode_value(modes[0], x) + mode_value(modes[1], budget - x) for x in grid]
        k = int(np.argmax(totals))
        best = max(best, float(totals[k]))
        center = float(grid[k])
        span = 2.2 * (grid[1] - grid[0])
    return max(best, 0.0) / 2.0


# ---------------------------------------------------------------------------
# water-filling that evaluates every entry of fns on its own


def _fd_marginal(fn, x: float, budget: float, h: float) -> float:
    lo = max(x - h, 0.0)
    hi = min(x + h, budget)
    if hi <= lo:
        return 0.0
    return (fn(hi) - fn(lo)) / (hi - lo)


def _x_at_fd_marginal(fn, mu: float, budget: float, h: float, x_tol: float) -> float:
    if _fd_marginal(fn, 0.0, budget, h) <= mu:
        return 0.0
    if _fd_marginal(fn, budget, budget, h) >= mu:
        return budget
    lo, hi = 0.0, budget
    while hi - lo > x_tol:
        mid = 0.5 * (lo + hi)
        if _fd_marginal(fn, mid, budget, h) >= mu:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def allocate_photons_per_entry(fns, nbar: float, *, return_info: bool = False):
    """``memchan.allocation.allocate_photons`` with one entry per mode, each evaluated separately.

    The same water-filling, screen and even-split fallback for a positive
    budget, over ``len(fns)`` modes of weight 1, with no memo: every
    entry's marginal is recomputed at every probe, and the totals are
    numpy's and Python's sums over the entries in order.
    """
    fns = list(fns)
    n = len(fns)
    budget = n * float(nbar)
    info = {"fallback": False, "mu": 0.0}
    h = max(1e-7 * budget, 1e-9)

    concave = True
    for fn in fns:
        probes = [_fd_marginal(fn, budget * frac, budget, h) for frac in (0.05, 0.3, 0.55, 0.8, 0.98)]
        for left, right in zip(probes, probes[1:]):
            if right > left + 1e-6 * (1.0 + abs(left)):
                concave = False
                break
        if not concave:
            break

    mu_hi = max(_fd_marginal(fn, 0.0, budget, h) for fn in fns)

    if concave and mu_hi > 0.0:
        mu_lo = 0.0
        while mu_hi - mu_lo > 1e-10 * (1.0 + mu_hi):
            mid = 0.5 * (mu_lo + mu_hi)
            tot = sum(_x_at_fd_marginal(fn, mid, budget, h, 1e-12 * budget) for fn in fns)
            if tot >= budget:
                mu_lo = mid
            else:
                mu_hi = mid
        info["mu"] = mu_lo
        x = np.array([_x_at_fd_marginal(fn, mu_lo, budget, h, 1e-13 * budget) for fn in fns])
        tot = float(x.sum())
        if tot > budget and tot > 0.0:
            x *= budget / tot
        elif tot < budget:
            x += (budget - tot) / n
        result = x
    else:
        info["fallback"] = True
        result = np.full(n, float(nbar))

    if return_info:
        return result, info
    return result


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


def allocate_photons_full_walk(fns, weights, nbar: float):
    """``memchan.allocation.allocate_photons`` walking every group to full depth at every step.

    Copied verbatim from the allocator before it decided water-level steps
    from photon-number brackets; the docstring below is the original's.

    Water-fill the budget sum(weights) * nbar; returns (alloc, info).

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


def coordinate_ascent_every_search(fun, x, bounds):
    """``memchan.optimize._coordinate_ascent`` running every line search.

    ``fun`` takes the whole point as a list; each evaluation copies the
    current point and sets the searched coordinate.
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


def g_entropy_mp(x):
    """g(x) = x log1p(1/x) + log1p(x), in bits, at mpmath's working precision."""
    if x <= 0:
        return mpmath.mpf(0)
    return (x * mpmath.log1p(1 / x) + mpmath.log1p(x)) / mpmath.log(2)


def g_prime_mp(x):
    """g'(x) = log1p(1/x), in bits, at mpmath's working precision."""
    return mpmath.log1p(1 / mpmath.mpf(x)) / mpmath.log(2)


def chi_mode_mp(t, r, c_q, c_p, mode: GlobalEnvMode, eta) -> float:
    """``chi_mode`` of the same binary inputs, evaluated in 60-digit arithmetic."""
    with mpmath.workdps(60):
        t, r, c_q, c_p, s, temp, eta = (mpmath.mpf(v) for v in (t, r, c_q, c_p, mode.s, mode.temp, eta))
        env_q = (temp + 0.5) * mpmath.exp(s)
        env_p = (temp + 0.5) * mpmath.exp(-s)
        oq = eta * (t + 0.5) * mpmath.exp(r) + (1 - eta) * env_q
        op = eta * (t + 0.5) * mpmath.exp(-r) + (1 - eta) * env_p
        avg = mpmath.sqrt((oq + eta * c_q) * (op + eta * c_p)) - 0.5
        return float(g_entropy_mp(avg) - g_entropy_mp(mpmath.sqrt(oq * op) - 0.5))


def free_thermal_chi_oracle(mode, eta, nj):
    """Best chi_mode at photon number nj with the seed's thermal part t free.

    Nelder-Mead over (r, u, f) from a 9 x 3 x 3 grid of starts, where
    t = u (cap / cosh r - 1/2) spends a share u of what the squeezing leaves
    on the seed and f splits the rest between c_q and c_p.
    """
    from scipy.optimize import minimize

    cap = nj + 0.5
    rmax = math.acosh(2.0 * nj + 1.0)
    box = [(-rmax, rmax), (0.0, 1.0), (0.0, 1.0)]

    def neg_chi(x):
        r, u, f = (min(max(v, lo), hi) for v, (lo, hi) in zip(x, box))
        t = u * max(cap / math.cosh(r) - 0.5, 0.0)
        ctot = max(2.0 * (cap - (t + 0.5) * math.cosh(r)), 0.0)
        return -chi_mode(t, r, f * ctot, (1.0 - f) * ctot, mode, eta)

    best = -math.inf
    for r in np.linspace(-rmax, rmax, 9):
        for u in (0.1, 0.5, 0.9):
            for f in (0.1, 0.5, 0.9):
                fit = minimize(neg_chi, [r, u, f], method="Nelder-Mead", bounds=box,
                               options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
                best = max(best, -fit.fun)
    return best
