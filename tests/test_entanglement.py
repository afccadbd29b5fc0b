"""Seed-state entanglement measures and environment separability boundary."""

import math

import numpy as np
import pytest

from memchan.channel import ChannelConfig
from memchan.entanglement import (
    env_min_ppt_symplectic,
    env_separability_scan,
    mean_reduced_entropy,
    separability_boundary_temp,
)
from memchan.gaussian import g_entropy, symplectic_eigenvalues
from memchan.information import EncodingParams
from memchan.optimize import maximize_classical
from reference_models import (
    env_local_covariance,
    env_two_mode_cov,
    interleaved_to_block,
    ppt_min_symplectic,
    reduce_to_mode,
    seed_local_covariance,
    von_neumann_entropy,
)

# 40-digit reference values
EXP_NEG1_HALF = 0.18393972058572116080  # e^-1 / 2
BOUNDARY_S1 = 0.85914091422952261768  # (e - 1) / 2
EXP_NEG10_HALF = 2.2699964881242425768e-5  # e^-10 / 2
BOUNDARY_S10 = 11012.732897403358258  # (e^10 - 1) / 2
BOUNDARY_S25 = 36002449668.192936262  # (e^25 - 1) / 2


class TestReducedEntropy:
    def test_matches_dense_marginal_entropies(self):
        seed = EncodingParams(
            [0.3, 0.0, 0.1, 0.7, 0.0], [0.4, -0.2, 0.0, 0.9, 1.3], [0.0] * 5, [0.0] * 5
        )
        local = seed_local_covariance(seed)
        want = np.mean(
            [von_neumann_entropy(reduce_to_mode(local, k)) for k in range(1, 6)]
        )
        assert mean_reduced_entropy(seed) == pytest.approx(want, abs=1e-12)

    def test_product_seed_has_zero_entanglement_entropy(self):
        # vacuum seeds stay product states in any orthogonal basis
        seed = EncodingParams([0.0] * 4, [0.0] * 4, [0.0] * 4, [0.0] * 4)
        assert mean_reduced_entropy(seed) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_seed_entropy_survives_rotation(self):
        # equal thermal occupation commutes with the basis change
        seed = EncodingParams([0.6] * 4, [0.0] * 4, [0.0] * 4, [0.0] * 4)
        assert mean_reduced_entropy(seed) == pytest.approx(g_entropy(0.6), abs=1e-12)

    def test_optimal_memoryless_seed_is_product(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=0.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        assert mean_reduced_entropy(res.params) == pytest.approx(0.0, abs=1e-8)

    def test_squeezed_seeds_are_entangled_across_modes(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=2.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        assert mean_reduced_entropy(res.params) > 0.5


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

    def test_closed_form_matches_dense_ppt_eigensolve(self):
        # the dense 4x4 path loses digits to roundoff past |s| = 3
        for s in np.linspace(-3.0, 3.0, 13):
            for temp in (0.0, 0.4, 2.0, 6.0):
                want = ppt_min_symplectic(env_two_mode_cov(float(s), temp))
                assert env_min_ppt_symplectic(float(s), temp) == pytest.approx(want, rel=1e-9)

    def test_closed_forms_hold_at_strong_squeezing(self):
        assert env_min_ppt_symplectic(10.0, 0.0) == pytest.approx(EXP_NEG10_HALF, rel=1e-14)
        assert separability_boundary_temp(10.0) == pytest.approx(BOUNDARY_S10, rel=1e-14)
        assert separability_boundary_temp(-25.0) == pytest.approx(BOUNDARY_S25, rel=1e-14)

    def test_boundary_overflow_raises_value_error(self):
        for s in (800.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                separability_boundary_temp(s)

    def test_non_finite_input_raises_value_error(self):
        # direct library calls; the scan path is already guarded by ChannelConfig
        for s, temp in ((math.nan, 0.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -0.1)):
            with pytest.raises(ValueError):
                env_min_ppt_symplectic(s, temp)
        for s_grid, temp_grid in (([1.0, math.nan], [0.0, 6.0]), ([1.0], [math.nan]), ([1.0], [0.0, math.inf])):
            with pytest.raises(ValueError):
                env_separability_scan(s_grid, temp_grid)

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
        # (e^0.5 - 1)/2 = 0.32 lies below a grid starting at T = 1, (e^1.5 - 1)/2 inside it
        rows = env_separability_scan(np.array([0.5, 1.5]), np.linspace(1.0, 2.0, 3))
        assert rows[:, 0].tolist() == [1.5]
