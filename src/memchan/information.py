"""Per-mode information quantities of the decoupled channel.

In the decoupling basis every channel use is a single-mode attenuator
sigma -> eta * sigma + (1 - eta) * V_j, with V_j the squeezed thermal
environment mode.  Inputs are squeezed thermal seeds diag((t+1/2)e^r,
(t+1/2)e^-r) displaced by classical Gaussian modulation with variances
(c_q, c_p).  All quantities are in bits.

The two-mode output spectra needed for the coherent information factor into
closed forms; the determinant of the joint output is evaluated through the
cancellation-free products (1-eta)*c*b + eta/4 and (1-eta)*d*a + eta/4, and
the smaller symplectic eigenvalue through det/nu_plus, which stays accurate
when the state is nearly pure.  Analytic first derivatives (the coherent
information's on that same spectrum) let optimizer stationarity be verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import GlobalEnvMode
from .gaussian import g_entropy, g_prime

__all__ = [
    "EncodingParams",
    "chi_mode",
    "chi_mode_gradient",
    "coherent_information",
    "coherent_information_gradient",
    "quantum_mutual_information",
    "quantum_mutual_information_gradient",
    "mode_photon_number",
]


def mode_photon_number(t: float, r: float, c_q: float, c_p: float) -> float:
    """Mean photon number (t+1/2) cosh r - 1/2 + (c_q + c_p)/2 of one mode."""
    return (t + 0.5) * math.cosh(r) - 0.5 + 0.5 * (c_q + c_p)


@dataclass(frozen=True)
class EncodingParams:
    """Gaussian encoding across the decoupled modes.

    Per-mode squeezed thermal seeds (t, r) and classical modulation
    variances (c_q, c_p).  ``n_j``, each mode's mean photon number, is
    derived from them by :func:`mode_photon_number`.
    """

    t: tuple[float, ...]
    r: tuple[float, ...]
    c_q: tuple[float, ...]
    c_p: tuple[float, ...]
    n_j: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len({len(self.t), len(self.r), len(self.c_q), len(self.c_p)}) != 1 or not self.t:
            raise ValueError("per-mode parameter lists must share one nonzero length")
        for name in ("t", "r", "c_q", "c_p"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        try:
            n_j = tuple(map(mode_photon_number, self.t, self.r, self.c_q, self.c_p))
        except OverflowError:  # math.cosh raises above |r| ~ 710 rather than return inf
            n_j = (math.inf,)
        object.__setattr__(self, "n_j", n_j)
        # NaN fails every ordered comparison below, so finiteness is checked
        # first; (t + 1/2) cosh r can overflow at finite t and r
        if not all(math.isfinite(v) for v in (*self.t, *self.r, *self.c_q, *self.c_p, *self.n_j)):
            raise ValueError("t, r, c_q, c_p and n_j must be finite")
        for j in range(len(self.t)):
            if self.t[j] < -1e-12 or self.c_q[j] < -1e-12 or self.c_p[j] < -1e-12:
                raise ValueError(f"mode {j + 1}: t, c_q, c_p must be >= 0")

    @property
    def n_modes(self) -> int:
        return len(self.t)

    def mean_photons(self) -> float:
        return math.fsum(self.n_j) / len(self.n_j)


def _outputs(t, r, c_q, c_p, mode: GlobalEnvMode, eta):
    env_q, env_p = mode.variances
    oq = eta * (t + 0.5) * math.exp(r) + (1.0 - eta) * env_q
    op = eta * (t + 0.5) * math.exp(-r) + (1.0 - eta) * env_p
    return oq, op, oq + eta * c_q, op + eta * c_p


def chi_mode(t: float, r: float, c_q: float, c_p: float, mode: GlobalEnvMode, eta: float) -> float:
    """Holevo information of one decoupled mode, in bits."""
    oq, op, aq, ap = _outputs(t, r, c_q, c_p, mode, eta)
    return g_entropy(math.sqrt(aq * ap) - 0.5) - g_entropy(math.sqrt(oq * op) - 0.5)


def _chi_modulation_slopes(aq: float, ap: float, eta: float) -> tuple[float, float]:
    """Slopes of chi in (c_q, c_p) at averaged output (aq, ap); ValueError where it is pure."""
    nu = math.sqrt(aq * ap)
    gp = g_prime(nu - 0.5)
    return gp * eta * ap / (2.0 * nu), gp * eta * aq / (2.0 * nu)


def chi_mode_gradient(
    t: float, r: float, c_q: float, c_p: float, mode: GlobalEnvMode, eta: float
) -> tuple[float, float, float, float]:
    """Partial derivatives of :func:`chi_mode` in (t, r, c_q, c_p).

    Needs both output states away from the vacuum (t > 0 or temp > 0 etc.),
    where g' is finite.
    """
    oq, op, aq, ap = _outputs(t, r, c_q, c_p, mode, eta)
    sq_o = math.sqrt(oq * op)
    sq_a = math.sqrt(aq * ap)
    gp_o = g_prime(sq_o - 0.5)
    gp_a = g_prime(sq_a - 0.5)
    d_oq_t = eta * math.exp(r)
    d_op_t = eta * math.exp(-r)
    d_oq_r = eta * (t + 0.5) * math.exp(r)
    d_op_r = -eta * (t + 0.5) * math.exp(-r)

    def d_sq(x, y, dx, dy):
        return (y * dx + x * dy) / (2.0 * math.sqrt(x * y))

    d_t = gp_a * d_sq(aq, ap, d_oq_t, d_op_t) - gp_o * d_sq(oq, op, d_oq_t, d_op_t)
    d_r = gp_a * d_sq(aq, ap, d_oq_r, d_op_r) - gp_o * d_sq(oq, op, d_oq_r, d_op_r)
    return (d_t, d_r) + _chi_modulation_slopes(aq, ap, eta)


def coherent_information(t: float, r: float, mode: GlobalEnvMode, eta: float) -> float:
    """Coherent information of one decoupled mode, in bits.

    Output entropy minus entropy exchange; zero for every pure input (t = 0)
    and nonpositive at eta = 0.
    """
    a = (t + 0.5) * math.exp(r)
    b = (t + 0.5) * math.exp(-r)
    env_q, env_p = mode.variances
    det_out = (eta * a + (1.0 - eta) * env_q) * (eta * b + (1.0 - eta) * env_p)
    # joint output-purifier invariants, det_tau with the eta*a*b cancellation done exactly
    i2 = det_out + (1.0 - 2.0 * eta) * a * b + 0.5 * eta
    det_tau = ((1.0 - eta) * env_q * b + 0.25 * eta) * ((1.0 - eta) * env_p * a + 0.25 * eta)
    disc = i2 * i2 - 4.0 * det_tau
    nu_plus = math.sqrt((i2 + math.sqrt(0.0 if disc < 0.0 else disc)) / 2.0)
    nu_minus = math.sqrt(0.0 if det_tau < 0.0 else det_tau) / nu_plus
    return (
        g_entropy(math.sqrt(det_out) - 0.5)
        - g_entropy(nu_plus - 0.5)
        - g_entropy(0.0 if nu_minus < 0.5 else nu_minus - 0.5)
    )


def coherent_information_gradient(
    t: float, r: float, mode: GlobalEnvMode, eta: float
) -> tuple[float, float]:
    """Partial derivatives of :func:`coherent_information` in (t, r).

    Requires t > 0 and a nondegenerate joint spectrum (nu_plus != nu_minus);
    both hold at generic interior points.
    """
    a = (t + 0.5) * math.exp(r)
    b = (t + 0.5) * math.exp(-r)
    env_q, env_p = mode.variances
    alpha = eta * a + (1.0 - eta) * env_q
    beta = eta * b + (1.0 - eta) * env_p
    det_out = alpha * beta
    i2 = det_out + (1.0 - 2.0 * eta) * a * b + 0.5 * eta
    pq = (1.0 - eta) * env_q * b + 0.25 * eta
    pp = (1.0 - eta) * env_p * a + 0.25 * eta
    det_tau = pq * pp
    rad = math.sqrt(max(i2 * i2 - 4.0 * det_tau, 0.0))
    nu_plus = math.sqrt((i2 + rad) / 2.0)
    nu_minus = math.sqrt(max(det_tau, 0.0)) / nu_plus
    if rad <= 0.0:
        raise ValueError("degenerate joint spectrum; gradient undefined")
    sq_o = math.sqrt(det_out)

    # derivatives with respect to (a, b)
    d_i2_a = eta * beta + (1.0 - 2.0 * eta) * b
    d_i2_b = eta * alpha + (1.0 - 2.0 * eta) * a
    d_tau_a = pq * (1.0 - eta) * env_p
    d_tau_b = (1.0 - eta) * env_q * pp
    d_out_a = eta * beta
    d_out_b = eta * alpha

    gp_o = g_prime(sq_o - 0.5)
    gp_plus = g_prime(nu_plus - 0.5)
    gp_minus = g_prime(nu_minus - 0.5) if nu_minus > 0.5 + 1e-14 else 0.0

    def dj(d_i2, d_tau, d_out):
        d_rad = (i2 * d_i2 - 2.0 * d_tau) / rad
        d_plus = (d_i2 + d_rad) / (4.0 * nu_plus)
        d_minus = (d_i2 - d_rad) / (4.0 * nu_minus)
        return gp_o * d_out / (2.0 * sq_o) - gp_plus * d_plus - gp_minus * d_minus

    dj_da = dj(d_i2_a, d_tau_a, d_out_a)
    dj_db = dj(d_i2_b, d_tau_b, d_out_b)
    d_t = dj_da * math.exp(r) + dj_db * math.exp(-r)
    d_r = dj_da * a - dj_db * b
    return d_t, d_r


def quantum_mutual_information(t: float, r: float, mode: GlobalEnvMode, eta: float) -> float:
    """Input-output mutual information g(t) + J of one decoupled mode, bits."""
    return g_entropy(t) + coherent_information(t, r, mode, eta)


def quantum_mutual_information_gradient(
    t: float, r: float, mode: GlobalEnvMode, eta: float
) -> tuple[float, float]:
    """Partial derivatives of :func:`quantum_mutual_information` in (t, r)."""
    d_t, d_r = coherent_information_gradient(t, r, mode, eta)
    return d_t + g_prime(t), d_r
