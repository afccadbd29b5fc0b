"""Per-mode rate formulas cross-checked against dense covariance computations."""

import math

import numpy as np
import pytest

from memchan.channel import GlobalEnvMode
from memchan.gaussian import (
    g_entropy,
    interleaved_to_block,
    purify_single_mode,
    von_neumann_entropy,
)
from memchan.information import (
    EncodingParams,
    chi_mode,
    chi_mode_gradient,
    coherent_information,
    coherent_information_gradient,
    coherent_information_rotated,
    holevo_chi,
    mode_photon_number,
    quantum_mutual_information,
    quantum_mutual_information_gradient,
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


class TestHolevo:
    def test_matches_dense_covariances(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            t, r, c_q, c_p, mode, eta = random_interior_point(rng)
            want = dense_chi(t, r, c_q, c_p, mode, eta)
            assert chi_mode(t, r, c_q, c_p, mode, eta) == pytest.approx(want, abs=1e-10)

    def test_zero_modulation_is_zero(self):
        mode = GlobalEnvMode(1, 0.9, 0.2)
        assert chi_mode(1.2, 0.3, 0.0, 0.0, mode, 0.8) == 0.0

    def test_total_is_sum_of_modes(self):
        modes = [GlobalEnvMode(1, 0.7, 0.1), GlobalEnvMode(2, -0.7, 0.1), GlobalEnvMode(3, 0.0, 0.1)]
        params = EncodingParams.from_free(
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

    def test_from_free_builds_consistent_budget(self):
        params = EncodingParams.from_free([0.5, 1.0], [0.2, -0.4], [1.0, 0.0], [0.0, 2.0])
        assert params.n_modes == 2
        for j in range(2):
            want = mode_photon_number(
                params.t[j], params.r[j], params.c_q[j], params.c_p[j]
            )
            assert params.n_j[j] == pytest.approx(want, abs=1e-12)
        assert params.mean_photons() == pytest.approx(np.mean(params.n_j), abs=1e-12)

    def test_rejects_inconsistent_budget(self):
        with pytest.raises(ValueError):
            EncodingParams(t=(0.5,), r=(0.0,), c_q=(0.0,), c_p=(0.0,), n_j=(3.0,))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            EncodingParams.from_free([0.5], [0.0, 0.0], [0.0], [0.0])
