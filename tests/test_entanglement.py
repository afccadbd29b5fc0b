"""Seed-state entanglement measures and environment separability boundary."""

import math

import numpy as np
import pytest

from memchan.channel import ChannelConfig, env_local_covariance, omega_spectrum
from memchan.entanglement import (
    SeedState,
    env_min_ppt_symplectic,
    env_separability_scan,
    env_two_mode_cov,
    mean_reduced_entropy,
    seed_local_covariance,
    separability_boundary_temp,
)
from memchan.gaussian import (
    g_entropy,
    interleaved_to_block,
    reduce_to_mode,
    symplectic_eigenvalues,
    von_neumann_entropy,
)
from memchan.information import EncodingParams
from memchan.optimize import maximize_classical

# 40-digit reference values
EXP_NEG1_HALF = 0.18393972058572116080  # e^-1 / 2
BOUNDARY_S1 = 0.85914091422952261768  # (e - 1) / 2


class TestSeedState:
    def test_validation(self):
        basis = omega_spectrum(3).vectors
        SeedState(t=(0.0, 0.1, 0.2), r=(0.5, -0.5, 0.0), basis=basis)
        with pytest.raises(ValueError):
            SeedState(t=(0.0, 0.1), r=(0.5, -0.5, 0.0), basis=basis)
        with pytest.raises(ValueError):
            SeedState(t=(-0.2, 0.1, 0.2), r=(0.5, -0.5, 0.0), basis=basis)
        with pytest.raises(ValueError):
            SeedState(t=(0.0, 0.1, 0.2), r=(0.5, -0.5, 0.0), basis=basis[:2])

    def test_from_encoding(self):
        spectrum = omega_spectrum(4)
        params = EncodingParams.from_free(
            [0.2, 0.0, 0.4, 0.0], [0.1, -0.2, 0.0, 0.3], [0.5] * 4, [0.5] * 4
        )
        seed = SeedState.from_encoding(params, spectrum)
        assert seed.n == 4
        assert seed.t == params.t
        assert seed.r == params.r


class TestReducedEntropy:
    def test_matches_dense_marginal_entropies(self):
        basis = omega_spectrum(5).vectors
        seed = SeedState(
            t=(0.3, 0.0, 0.1, 0.7, 0.0), r=(0.4, -0.2, 0.0, 0.9, 1.3), basis=basis
        )
        local = seed_local_covariance(seed)
        want = np.mean(
            [von_neumann_entropy(reduce_to_mode(local, k)) for k in range(1, 6)]
        )
        assert mean_reduced_entropy(seed) == pytest.approx(want, abs=1e-12)

    def test_product_seed_has_zero_entanglement_entropy(self):
        # vacuum seeds stay product states in any orthogonal basis
        basis = omega_spectrum(4).vectors
        seed = SeedState(t=(0.0,) * 4, r=(0.0,) * 4, basis=basis)
        assert mean_reduced_entropy(seed) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_seed_entropy_survives_rotation(self):
        # equal thermal occupation commutes with the basis change
        basis = omega_spectrum(4).vectors
        seed = SeedState(t=(0.6,) * 4, r=(0.0,) * 4, basis=basis)
        assert mean_reduced_entropy(seed) == pytest.approx(g_entropy(0.6), abs=1e-12)

    def test_optimal_memoryless_seed_is_product(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=0.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        seed = SeedState.from_encoding(res.params, omega_spectrum(10))
        assert mean_reduced_entropy(seed) == pytest.approx(0.0, abs=1e-8)

    def test_squeezed_seeds_are_entangled_across_modes(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=2.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        seed = SeedState.from_encoding(res.params, omega_spectrum(10))
        assert mean_reduced_entropy(seed) > 0.5


class TestEnvironmentSeparability:
    def test_two_mode_covariance_matches_channel_construction(self):
        for s, temp in ((0.8, 0.0), (1.5, 0.7)):
            pair = env_two_mode_cov(s, temp)
            cfg = ChannelConfig(n=2, eta=0.5, s=s, temp=temp)
            assert np.allclose(
                interleaved_to_block(pair.matrix()), env_local_covariance(cfg), atol=1e-12
            )

    def test_min_ppt_frozen_value(self):
        assert env_min_ppt_symplectic(1.0, 0.0) == pytest.approx(EXP_NEG1_HALF, abs=1e-14)

    def test_state_itself_is_physical(self):
        cov = interleaved_to_block(env_two_mode_cov(2.0, 0.3).matrix())
        assert symplectic_eigenvalues(cov).min() >= 0.5 - 1e-12

    def test_boundary_frozen_value(self):
        assert separability_boundary_temp(1.0) == pytest.approx(BOUNDARY_S1, abs=1e-10)

    def test_boundary_closed_form_along_s(self):
        for s in np.linspace(0.2, 3.0, 8):
            want = (math.exp(abs(s)) - 1.0) / 2.0
            assert separability_boundary_temp(float(s)) == pytest.approx(want, abs=1e-9)

    def test_no_squeezing_never_entangled(self):
        assert separability_boundary_temp(0.0) == pytest.approx(0.0, abs=1e-10)
        assert env_min_ppt_symplectic(0.0, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_ppt_splits_cleanly_across_boundary(self):
        s = 1.4
        t_star = (math.exp(s) - 1.0) / 2.0
        assert env_min_ppt_symplectic(s, t_star * 0.9) < 0.5
        assert env_min_ppt_symplectic(s, t_star * 1.1) > 0.5

    def test_scan_matches_pointwise_boundary(self):
        s_grid = np.linspace(0.0, 2.0, 9)
        rows = env_separability_scan(s_grid, np.linspace(0.0, 4.0, 5))
        assert rows.shape[1] == 2
        for s, t_b in rows:
            assert t_b == pytest.approx((math.exp(abs(s)) - 1.0) / 2.0, abs=1e-8)

    def test_scan_omits_out_of_range_crossings(self):
        rows = env_separability_scan(np.array([3.0]), np.linspace(0.0, 1.0, 3))
        # boundary at (e^3 - 1)/2 = 9.54 lies above the temperature grid
        assert rows.shape[0] == 0
