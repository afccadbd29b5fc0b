"""Acceptance suite: one test per headline claim, at the stated tolerance.

Each test gathers every violation before asserting, so a failure message
shows the complete picture for that criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from memchan.analytic import classical_lower_analytic, classical_upper_bound
from memchan.channel import (
    ChannelConfig,
    GlobalEnvMode,
    local_effective_temperature,
)
from memchan.entanglement import separability_boundary_temp
from memchan.gaussian import g_entropy, symplectic_eigenvalues, symplectic_form
from memchan.information import (
    chi_mode,
    chi_mode_gradient,
    coherent_information,
    coherent_information_gradient,
    quantum_mutual_information,
    quantum_mutual_information_gradient,
)
from memchan.optimize import maximize_classical, maximize_ent_assisted, maximize_quantum
from memchan.scan import figure_specs, run_scan
from reference_models import (
    TwoModeCov,
    brute_force_oracle,
    interleaved_to_block,
    passive_env_modes,
    passive_spec_from_config,
    purify_single_mode,
    von_neumann_entropy,
)

LOG2_17 = 4.087462841250339408
G_OF_8 = 4.529325012980811266

FIG2A_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
FIG2B_TEMPS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
FIG3A_ETAS = (0.6, 0.7, 0.8, 0.9)


def chain_eigenvalues(n):
    """Closed-form coupling-chain spectrum 2 cos(pi j / (n+1)), j = 1..n."""
    return [2.0 * math.cos(math.pi * j / (n + 1)) for j in range(1, n + 1)]


# The strong-squeezing limits hold as every normal-mode squeezing s*lambda_j
# grows.  At n = 10 the weakest pair has |lambda| = 2 cos(5 pi / 11) ~ 0.285,
# so s = 15 squeezes it by only ~4.3.  S_STRONG (~52.70) squeezes it by 15.
S_STRONG = 15.0 / min(abs(lam) for lam in chain_eigenvalues(10))
STRONG_S_LADDER = (15.0, 30.0, S_STRONG)


def cfg10(eta, s, temp=0.0):
    return ChannelConfig(n=10, eta=eta, s=s, temp=temp, nbar=8.0)


def valid_s_points(eta, count=10):
    """Evenly spaced squeezing values where the closed-form optimum holds."""
    grid = np.linspace(0.0, 3.0, 301)
    valid = [float(s) for s in grid if classical_lower_analytic(cfg10(eta, float(s))).valid]
    assert len(valid) >= count, f"eta={eta}: only {len(valid)} valid points"
    picks = np.linspace(0, len(valid) - 1, count).round().astype(int)
    return [valid[i] for i in picks]


def test_criterion_01_optimizer_tracks_closed_form_optimum():
    t0 = time.monotonic()
    errs = []
    for eta in FIG2A_ETAS:
        for s in valid_s_points(eta):
            cfg = cfg10(eta, s)
            got = maximize_classical(cfg).value
            want = classical_lower_analytic(cfg).value
            if abs(got - want) > 1e-6:
                errs.append(f"eta={eta} s={s:.3f}: {got:.9f} vs {want:.9f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    assert not errs, "\n".join(errs)


def test_criterion_02_zero_temperature_bounds_coincide():
    errs = []
    for s in np.linspace(0.0, 3.0, 50):
        for eta in np.linspace(0.05, 0.95, 20):
            cfg = cfg10(float(eta), float(s))
            lower = classical_lower_analytic(cfg)
            upper = classical_upper_bound(cfg)
            if abs(upper.value - lower.value) > 1e-12:
                errs.append(f"s={s:.3f} eta={eta:.3f}: gap {upper.value - lower.value:.2e}")
            if lower.valid and not upper.valid:
                errs.append(f"s={s:.3f} eta={eta:.3f}: lower valid but upper invalid")
    assert not errs, "\n".join(errs[:10])


def test_criterion_03_memoryless_limit_recovers_thermal_capacity():
    errs = []
    for temp in range(6):
        cfg = cfg10(0.9, 0.0, float(temp))
        got = maximize_classical(cfg).value
        want = g_entropy(0.9 * 8.0 + 0.1 * temp) - g_entropy(0.1 * temp)
        if abs(got - want) > 1e-8:
            errs.append(f"T={temp}: {got:.12f} vs {want:.12f}")
    assert not errs, "\n".join(errs)


def recomputed_rate(quantity, cfg, params):
    """Rate of the encoding ``params`` in bits per use, rebuilt from symplectic spectra.

    Normal mode j meets the environment (T+1/2) diag(e^{s_j}, e^{-s_j}) with
    s_j = s lambda_j.  Each mode is rebuilt on its own 2x2 output covariance,
    and on the 4x4 covariance of the output and the input's purification for
    J and I: on the full physical-basis covariance, entries up to
    e^{s max lambda} swamp the roundoff.
    """
    rates = []
    for j, lam in enumerate(chain_eigenvalues(cfg.n)):
        env = (cfg.temp + 0.5) * np.diag([math.exp(cfg.s * lam), math.exp(-cfg.s * lam)])
        pur = purify_single_mode(params.t[j], params.r[j])
        out = cfg.eta * pur.a + (1.0 - cfg.eta) * env
        if quantity == "classical":
            avg = out + cfg.eta * np.diag([params.c_q[j], params.c_p[j]])
            rates.append(von_neumann_entropy(avg) - von_neumann_entropy(out))
            continue
        joint = TwoModeCov(a=out, b=pur.b, c=math.sqrt(cfg.eta) * pur.c)
        rate = von_neumann_entropy(out) - von_neumann_entropy(interleaved_to_block(joint.matrix()))
        if quantity == "assisted":
            rate += von_neumann_entropy(pur.a)
        rates.append(rate)
    return math.fsum(rates) / cfg.n


def strong_squeezing_ladder(quantity, maximize, limit):
    """Run ``maximize`` along STRONG_S_LADDER; return (value at S_STRONG, errors).

    At every s the returned encoding must keep the photon budget and its
    recomputed rate must match the reported one to 1e-9, so each reported
    value is an achievable rate.  The distance to ``limit`` must shrink
    strictly along the ladder.
    """
    errs, gaps = [], []
    for s in STRONG_S_LADDER:
        cfg = cfg10(0.9, s)
        res = maximize(cfg)
        p = res.params
        photons = math.fsum(
            (t + 0.5) * math.cosh(r) - 0.5 + 0.5 * (c_q + c_p)
            for t, r, c_q, c_p in zip(p.t, p.r, p.c_q, p.c_p)
        ) / cfg.n
        if photons > cfg.nbar + 1e-9:
            errs.append(f"{quantity} at s={s:.2f}: {photons:.12f} photons per use, budget {cfg.nbar}")
        rebuilt = recomputed_rate(quantity, cfg, p)
        if abs(rebuilt - res.value) > 1e-9:
            errs.append(f"{quantity} at s={s:.2f}: reported {res.value:.12f}, recomputed {rebuilt:.12f}")
        gaps.append(abs(res.value - limit))
    if not all(later < earlier for earlier, later in zip(gaps, gaps[1:])):
        ladder = ", ".join(f"s={s:.2f}: {gap:.3e}" for s, gap in zip(STRONG_S_LADDER, gaps))
        errs.append(f"{quantity}: distance to the limit does not shrink ({ladder})")
    return res.value, errs


def test_criterion_04_strong_squeezing_classical_limit():
    got, errs = strong_squeezing_ladder("classical", maximize_classical, LOG2_17)
    if not abs(got - LOG2_17) < 0.05:
        errs.append(f"classical at s={S_STRONG:.2f}: {got:.6f} vs log2(17)={LOG2_17:.6f}")
    assert not errs, "\n".join(errs)


def test_criterion_05_quantum_rate_vanishes_below_half_transmission():
    errs = []
    for eta in (0.1, 0.3, 0.49):
        for s in np.linspace(0.0, 3.0, 7):
            for temp in (0.0, 1.0, 2.0, 5.0):
                res = maximize_quantum(cfg10(eta, float(s), temp))
                if res.value != 0.0:
                    errs.append(f"eta={eta} s={s:.2f} T={temp}: {res.value!r}")
    assert not errs, "\n".join(errs)


def test_criterion_06_strong_squeezing_quantum_and_assisted_limits():
    q, errs = strong_squeezing_ladder("quantum", maximize_quantum, 0.0)
    if not q < 0.05:
        errs.append(f"quantum at s={S_STRONG:.2f}: {q:.6f}, expected < 0.05")
    e, e_errs = strong_squeezing_ladder("assisted", maximize_ent_assisted, G_OF_8)
    errs.extend(e_errs)
    if abs(e - G_OF_8) > 0.05:
        errs.append(f"assisted at s={S_STRONG:.2f}: {e:.6f} vs g(8)={G_OF_8:.6f}")
    assert not errs, "\n".join(errs)


def test_criterion_07_global_encodings_dominate_local_ones():
    errs = []
    pairs = {
        "classical-lower": "classical-local",
        "quantum": "quantum-local",
        "ent-assisted": "ent-assisted-local",
    }
    for fid in ("2a", "2b", "3a", "3b", "4a", "4b"):
        rows = []
        for spec in figure_specs(fid, s_steps=7):
            rows.extend(run_scan(spec))
        by_key = {(r["quantity"], r["eta"], r["T"], r["s"]): r["value_bits"] for r in rows}
        for (quantity, eta, temp, s), val in by_key.items():
            if quantity not in pairs:
                continue
            local = by_key[(pairs[quantity], eta, temp, s)]
            if val < local - 1e-9:
                errs.append(f"fig{fid} {quantity} eta={eta} T={temp} s={s}: {val:.9f} < {local:.9f}")
            if s == 0.0 and abs(val - local) > 1e-8:
                errs.append(f"fig{fid} {quantity} eta={eta} T={temp} s=0: differ by {val - local:.2e}")
    assert not errs, "\n".join(errs[:10])


def test_criterion_08_two_use_optimizers_match_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    errs = []
    for _ in range(12):
        s = float(rng.uniform(0.0, 3.0))
        temp = float(rng.uniform(0.0, 2.0))
        eta = float(rng.uniform(0.55, 0.95))
        cfg = ChannelConfig(n=2, eta=eta, s=s, temp=temp, nbar=8.0)
        for kind, fn in (
            ("classical", maximize_classical),
            ("quantum", maximize_quantum),
            ("ent-assisted", maximize_ent_assisted),
        ):
            got = fn(cfg).value
            ref = brute_force_oracle(cfg, kind)
            if abs(got - ref) > 1e-3:
                errs.append(
                    f"{kind} s={s:.3f} T={temp:.3f} eta={eta:.3f}: {got:.6f} vs {ref:.6f}"
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    assert not errs, "\n".join(errs)


def test_criterion_09_monotonicity_in_squeezing():
    errs = []
    s_grid = np.linspace(0.0, 3.0, 13)
    for k in range(1, 11):
        teffs = [local_effective_temperature(cfg10(0.9, float(s)), k) for s in s_grid]
        if not np.all(np.diff(teffs) >= -1e-12):
            errs.append(f"T_eff mode {k} not nondecreasing")
    for eta in FIG2A_ETAS:
        vals = [classical_lower_analytic(cfg10(eta, float(s))).value for s in s_grid]
        if not np.all(np.diff(vals) >= -1e-12):
            errs.append(f"classical lower bound not nondecreasing at eta={eta}")
    for temp in FIG2B_TEMPS:
        vals = [classical_lower_analytic(cfg10(0.9, float(s), temp)).value for s in s_grid]
        if not np.all(np.diff(vals) >= -1e-12):
            errs.append(f"classical lower bound not nondecreasing at T={temp}")
    for eta in FIG3A_ETAS:
        vals = [maximize_quantum(cfg10(eta, float(s))).value for s in np.linspace(0.0, 3.0, 7)]
        if not np.all(np.diff(vals) <= 1e-7):
            errs.append(f"quantum rate not nonincreasing at eta={eta}: {np.round(vals, 6)}")
    assert not errs, "\n".join(errs)


def test_criterion_10_environment_separability_contour():
    errs = []
    for s in np.linspace(-1.0, 3.0, 20):
        got = separability_boundary_temp(float(s))
        want = (math.exp(abs(s)) - 1.0) / 2.0
        if abs(got - want) > 1e-9:
            errs.append(f"s={s:.3f}: {got:.12f} vs {want:.12f}")
    assert not errs, "\n".join(errs)


def test_criterion_11_gradients_and_symplectic_solver():
    errs = []
    rng = np.random.default_rng(42)

    def check(name, point, got, fun, idx):
        x = list(point)
        h = 1e-6 * (1.0 + abs(x[idx]))
        hi, lo = x.copy(), x.copy()
        hi[idx] += h
        lo[idx] -= h
        fd = (fun(hi) - fun(lo)) / (2.0 * h)
        if abs(got - fd) > 1e-5 * (1.0 + abs(fd)):
            errs.append(f"{name}[{idx}]: {got:.9g} vs fd {fd:.9g}")

    for _ in range(100):
        t = float(rng.uniform(0.05, 3.0))
        r = float(rng.uniform(-1.0, 1.0))
        c_q = float(rng.uniform(0.05, 2.0))
        c_p = float(rng.uniform(0.05, 2.0))
        mode = GlobalEnvMode(1, float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.0, 1.5)))
        eta = float(rng.uniform(0.55, 0.95))

        grad = chi_mode_gradient(t, r, c_q, c_p, mode, eta)
        for i in range(4):
            check("chi", (t, r, c_q, c_p), grad[i],
                  lambda x: chi_mode(x[0], x[1], x[2], x[3], mode, eta), i)
        grad = coherent_information_gradient(t, r, mode, eta)
        for i in range(2):
            check("J", (t, r), grad[i],
                  lambda x: coherent_information(x[0], x[1], mode, eta), i)
        grad = quantum_mutual_information_gradient(t, r, mode, eta)
        for i in range(2):
            check("I", (t, r), grad[i],
                  lambda x: quantum_mutual_information(x[0], x[1], mode, eta), i)

    for m in range(1, 11):
        nus = np.sort(rng.uniform(0.5, 4.0, size=m))[::-1]
        sym = rng.normal(size=(2 * m, 2 * m))
        sym = expm(symplectic_form(m) @ (0.3 * (sym + sym.T)))
        cov = sym @ np.diag(np.concatenate([nus, nus])) @ sym.T
        got = symplectic_eigenvalues(cov)
        if np.max(np.abs(got - nus)) > 1e-9:
            errs.append(f"symplectic solve m={m}: planted-spectrum error {np.max(np.abs(got - nus)):.2e}")
        dense = np.sort(np.abs(np.linalg.eigvals(symplectic_form(m) @ cov).imag))[::-1][::2]
        if np.max(np.abs(got - dense)) > 1e-9:
            errs.append(f"symplectic solve m={m}: dense-oracle error {np.max(np.abs(got - dense)):.2e}")

    assert not errs, "\n".join(errs[:12])


def test_criterion_12_passive_environment_pipeline_is_equivalent():
    errs = []
    for eta in FIG2A_ETAS:
        for s in valid_s_points(eta):
            cfg = cfg10(eta, s)
            direct = maximize_classical(cfg).value
            modes = passive_env_modes(passive_spec_from_config(cfg))
            rebuilt = maximize_classical(cfg, modes=modes).value
            if abs(direct - rebuilt) > 1e-9:
                errs.append(f"eta={eta} s={s:.3f}: {direct:.12f} vs {rebuilt:.12f}")
    assert not errs, "\n".join(errs[:10])
