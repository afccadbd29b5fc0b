"""Per-mode rate formulas cross-checked against dense covariance computations."""

import dataclasses
import math

import numpy as np
import pytest

from memchan.channel import GlobalEnvMode
from memchan.gaussian import g_entropy
from memchan.information import (
    EncodingParams,
    chi_mode,
    chi_mode_gradient,
    coherent_information,
    coherent_information_gradient,
    mode_photon_number,
    quantum_mutual_information,
    quantum_mutual_information_gradient,
)
from reference_models import (
    chi_mode_mp,
    coherent_information_rotated,
    holevo_chi,
    interleaved_to_block,
    purify_single_mode,
    von_neumann_entropy,
)


def dense_chi(t, r, c_q, c_p, mode, eta):
    """Holevo quantity from explicit 2x2 output covariances."""
    seed = np.diag([(t + 0.5) * math.exp(r), (t + 0.5) * math.exp(-r)])
    noise = eta * seed + (1.0 - eta) * mode.covariance()
    avg = noise + eta * np.diag([c_q, c_p])
    return von_neumann_entropy(avg) - von_neumann_entropy(noise)


def dense_coherent_info(t, r, mode, eta):
    """S(B) - S(RB) from a 3-mode (signal, purifier, environment) covariance."""
    pur = purify_single_mode(t, r)
    full = np.zeros((6, 6))
    full[0:2, 0:2] = pur.a  # signal
    full[2:4, 2:4] = pur.b  # purifier
    full[0:2, 2:4] = pur.c.T
    full[2:4, 0:2] = pur.c
    full[4:6, 4:6] = mode.covariance()
    c, s = math.sqrt(eta), math.sqrt(1.0 - eta)
    bs = np.eye(6)
    bs[0:2, 0:2] = c * np.eye(2)
    bs[0:2, 4:6] = s * np.eye(2)
    bs[4:6, 0:2] = -s * np.eye(2)
    bs[4:6, 4:6] = c * np.eye(2)
    out = bs @ full @ bs.T
    s_b = von_neumann_entropy(interleaved_to_block(out[0:2, 0:2]))
    s_rb = von_neumann_entropy(interleaved_to_block(out[0:4, 0:4]))
    return s_b - s_rb


def random_interior_point(rng):
    t = float(rng.uniform(0.05, 3.0))
    r = float(rng.uniform(-1.0, 1.0))
    c_q = float(rng.uniform(0.05, 2.0))
    c_p = float(rng.uniform(0.05, 2.0))
    mode = GlobalEnvMode(1, float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.0, 1.5)))
    eta = float(rng.uniform(0.55, 0.95))
    return t, r, c_q, c_p, mode, eta


def corner_point(rng):
    """A (t, r, c_q, c_p, mode, eta) that often sits on a corner of the domain.

    |s_j| <= 115 (|s| <= 60 times the largest Omega eigenvalue), T in
    [0, 1e6], eta in [0, 1], and t, c_q, c_p up to about 1e6.
    """

    def corner_or(corners, draw):
        return float(rng.choice(corners)) if rng.random() < 0.25 else float(draw())

    s_j = corner_or((-115.0, 0.0, 115.0), lambda: rng.uniform(-1.0, 1.0) * 115.0 ** rng.random())
    temp = corner_or((0.0, 1e6), lambda: 10.0 ** rng.uniform(-3.0, 6.0))
    eta = corner_or((0.0, 1.0), rng.random)
    t = corner_or((0.0, 1e6), lambda: 10.0 ** rng.uniform(-6.0, 6.0))
    r = float(rng.uniform(-1.0, 1.0) * 15.0 ** rng.random())
    c_q, c_p = (corner_or((0.0, 1e6), lambda: 10.0 ** rng.uniform(-6.0, 6.0)) for _ in range(2))
    return t, r, c_q, c_p, GlobalEnvMode(1, s_j, temp), eta


class TestHolevo:
    def test_matches_dense_covariances(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            t, r, c_q, c_p, mode, eta = random_interior_point(rng)
            want = dense_chi(t, r, c_q, c_p, mode, eta)
            assert chi_mode(t, r, c_q, c_p, mode, eta) == pytest.approx(want, abs=1e-10)

    def test_matches_mpmath_at_domain_corners(self):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            t, r, c_q, c_p, mode, eta = corner_point(rng)
            got = chi_mode(t, r, c_q, c_p, mode, eta)
            assert got == pytest.approx(chi_mode_mp(t, r, c_q, c_p, mode, eta), abs=1e-13)

    def test_pure_seed_is_never_beaten(self):
        # Moving the seed's thermal part t into the modulation keeps the
        # photon number and the average output state; by concavity of the
        # entropy it cannot raise the conditional output entropy.  So the
        # Holevo solve searches pure seeds only.
        rng = np.random.default_rng(26)
        for _ in range(4000):
            t, r, c_q, c_p, mode, eta = corner_point(rng)
            pure = (0.0, r, c_q + t * math.exp(r), c_p + t * math.exp(-r))
            assert mode_photon_number(*pure) == pytest.approx(
                mode_photon_number(t, r, c_q, c_p), rel=1e-12, abs=1e-12)
            chi = chi_mode(t, r, c_q, c_p, mode, eta)
            assert chi_mode(*pure, mode, eta) >= chi - 1e-12 * max(1.0, abs(chi)), (t, r, c_q, c_p, mode, eta)

    def test_zero_modulation_is_zero(self):
        mode = GlobalEnvMode(1, 0.9, 0.2)
        assert chi_mode(1.2, 0.3, 0.0, 0.0, mode, 0.8) == 0.0

    def test_total_is_sum_of_modes(self):
        modes = [GlobalEnvMode(1, 0.7, 0.1), GlobalEnvMode(2, -0.7, 0.1), GlobalEnvMode(3, 0.0, 0.1)]
        params = EncodingParams(
            [0.4, 0.2, 1.0], [0.1, -0.3, 0.0], [1.0, 0.5, 2.0], [0.3, 0.8, 2.0]
        )
        total = holevo_chi(params, modes, 0.85)
        want = sum(
            chi_mode(params.t[j], params.r[j], params.c_q[j], params.c_p[j], modes[j], 0.85)
            for j in range(3)
        )
        assert total == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            t, r, c_q, c_p, mode, eta = random_interior_point(rng)
            grad = chi_mode_gradient(t, r, c_q, c_p, mode, eta)
            x0 = [t, r, c_q, c_p]
            for i in range(4):
                h = 1e-6 * (1.0 + abs(x0[i]))
                hi, lo = x0.copy(), x0.copy()
                hi[i] += h
                lo[i] -= h
                fd = (chi_mode(*hi, mode, eta) - chi_mode(*lo, mode, eta)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)


class TestCoherentInformation:
    def test_matches_dense_three_mode_computation(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            t, r, _, _, mode, eta = random_interior_point(rng)
            want = dense_coherent_info(t, r, mode, eta)
            assert coherent_information(t, r, mode, eta) == pytest.approx(want, abs=1e-9)

    def test_perfect_channel_returns_seed_entropy(self):
        mode = GlobalEnvMode(1, 1.2, 0.5)
        for t in (0.0, 0.7, 4.0):
            assert coherent_information(t, 0.3, mode, 1.0) == pytest.approx(
                g_entropy(t), abs=1e-10
            )

    def test_balanced_splitter_pure_env_is_zero(self):
        mode = GlobalEnvMode(1, 0.0, 0.0)
        assert coherent_information(2.0, 0.0, mode, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_mode_variances_are_computed_on_use(self):
        mode = GlobalEnvMode(1, 800.0, 0.0)  # constructs: nothing is evaluated yet
        with pytest.raises(OverflowError):
            mode.variances
        # once evaluated, the stored pair is the formula's, and stays put
        rng = np.random.default_rng(25)
        for k in range(300):
            temp = 0.0 if k % 7 == 0 else float(rng.uniform(0.0, 5.0))
            s = (115.0, -115.0)[k % 2] if k % 11 == 0 else float(rng.uniform(-115.0, 115.0))
            mode = GlobalEnvMode(1, s, temp)
            fresh = ((temp + 0.5) * math.exp(s), (temp + 0.5) * math.exp(-s))
            assert mode.variances == mode.variances == fresh

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            t, r, _, _, mode, eta = random_interior_point(rng)
            grad = coherent_information_gradient(t, r, mode, eta)
            for i, x in enumerate((t, r)):
                h = 1e-6 * (1.0 + abs(x))
                pts = [t, r]
                hi, lo = pts.copy(), pts.copy()
                hi[i] += h
                lo[i] -= h
                fd = (
                    coherent_information(*hi, mode, eta)
                    - coherent_information(*lo, mode, eta)
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)
        # idle input into a pure, unsqueezed environment: nu_plus == nu_minus
        with pytest.raises(ValueError, match="degenerate"):
            coherent_information_gradient(0.0, 0.0, GlobalEnvMode(1, 0.0, 0.0), 0.9)


class TestRotatedSeed:
    def test_zero_and_half_turn_recover_aligned_value(self):
        mode = GlobalEnvMode(1, 0.9, 0.3)
        base = coherent_information(0.8, 0.5, mode, 0.85)
        assert coherent_information_rotated(0.8, 0.5, 0.0, mode, 0.85) == pytest.approx(
            base, abs=1e-12
        )
        assert coherent_information_rotated(0.8, 0.5, math.pi, mode, 0.85) == pytest.approx(
            base, abs=1e-10
        )

    def test_quarter_turn_swaps_quadratures(self):
        mode = GlobalEnvMode(1, 0.9, 0.3)
        swapped = coherent_information(0.8, -0.5, mode, 0.85)
        assert coherent_information_rotated(0.8, 0.5, math.pi / 2, mode, 0.85) == pytest.approx(
            swapped, abs=1e-10
        )

    def test_aligned_seed_is_never_beaten(self):
        # scanning the rotation angle never improves on the aligned choices
        rng = np.random.default_rng(25)
        for _ in range(8):
            t, r, _, _, mode, eta = random_interior_point(rng)
            aligned = max(
                coherent_information(t, r, mode, eta),
                coherent_information(t, -r, mode, eta),
            )
            for theta in np.linspace(0.0, math.pi, 19):
                rotated = coherent_information_rotated(t, r, float(theta), mode, eta)
                assert rotated <= aligned + 1e-9


class TestMutualInformation:
    def test_equals_seed_entropy_plus_coherent_info(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            t, r, _, _, mode, eta = random_interior_point(rng)
            want = g_entropy(t) + coherent_information(t, r, mode, eta)
            assert quantum_mutual_information(t, r, mode, eta) == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            t, r, _, _, mode, eta = random_interior_point(rng)
            grad = quantum_mutual_information_gradient(t, r, mode, eta)
            for i, x in enumerate((t, r)):
                h = 1e-6 * (1.0 + abs(x))
                pts = [t, r]
                hi, lo = pts.copy(), pts.copy()
                hi[i] += h
                lo[i] -= h
                fd = (
                    quantum_mutual_information(*hi, mode, eta)
                    - quantum_mutual_information(*lo, mode, eta)
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)


class TestEncodingParams:
    def test_photon_accounting(self):
        assert mode_photon_number(0.0, 0.0, 0.0, 0.0) == 0.0
        assert mode_photon_number(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert mode_photon_number(0.0, 0.0, 2.0, 4.0) == pytest.approx(3.0)
        # squeezing alone carries photons: (cosh r - 1)/2
        assert mode_photon_number(0.0, 1.0, 0.0, 0.0) == pytest.approx(
            (math.cosh(1.0) - 1.0) / 2.0, rel=1e-12
        )

    def test_photon_numbers_are_derived(self):
        params = EncodingParams([0.5, 1.0], [0.2, -0.4], [1.0, 0.0], [0.0, 2.0])
        assert params.n_modes == 2
        assert params.t == (0.5, 1.0) and params.c_p == (0.0, 2.0)  # stored as tuples
        assert params.n_j == tuple(map(mode_photon_number, params.t, params.r, params.c_q, params.c_p))
        assert params.mean_photons() == pytest.approx(np.mean(params.n_j), abs=1e-12)
        assert dataclasses.asdict(params)["n_j"] == params.n_j
        moved = dataclasses.replace(params, c_q=(3.0, 0.0))
        assert moved.n_j == (mode_photon_number(0.5, 0.2, 3.0, 0.0), params.n_j[1])
        with pytest.raises(TypeError):  # a photon number is not an input
            EncodingParams(t=(0.5,), r=(0.0,), c_q=(0.0,), c_p=(0.0,), n_j=(3.0,))

    def test_rejects_non_finite_entries(self):
        # NaN passes the sign comparisons
        with pytest.raises(ValueError):
            EncodingParams([math.nan], [0.0], [0.0], [0.0])
        # finite inputs whose photon number (t + 1/2) cosh r overflows
        with pytest.raises(ValueError):
            EncodingParams([1e300], [700.0], [0.0], [0.0])
        # a squeezing whose cosh overflows, which math.cosh raises for
        with pytest.raises(ValueError, match="must be finite"):
            EncodingParams([0.0], [800.0], [0.0], [0.0])

    def test_rejects_negative_thermal_parameter(self):
        with pytest.raises(ValueError):
            EncodingParams([-0.2, 0.1, 0.2], [0.5, -0.5, 0.0], [0.0] * 3, [0.0] * 3)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EncodingParams([0.5], [0.0, 0.0], [0.0], [0.0])
        # no modes: mean_photons() would divide by zero
        with pytest.raises(ValueError):
            EncodingParams([], [], [], [])
