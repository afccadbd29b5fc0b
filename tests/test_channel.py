"""Environment construction: coupling spectrum, local marginals, passive form."""

import math

import numpy as np
import pytest

from memchan.analytic import m_parameter
from memchan.channel import (
    MAX_ABS_S,
    MAX_TEMP,
    ChannelConfig,
    GlobalEnvMode,
    env_global_modes,
    local_effective_temperature,
    omega_spectrum,
)
from reference_models import (
    build_passive_env,
    env_local_covariance,
    omega_matrix,
    passive_env_modes,
    passive_spec_from_config,
    reduce_to_mode,
)

# 40-digit reference: cosh(1)/2
COSH1_HALF = 0.77154031740762188924


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(n=0, eta=0.5, s=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(n=2, eta=1.2, s=1.0)
        with pytest.raises(ValueError):
            ChannelConfig(n=2, eta=0.5, s=1.0, temp=-0.1)
        with pytest.raises(ValueError):
            ChannelConfig(n=2, eta=0.5, s=1.0, nbar=-1.0)
        with pytest.raises(ValueError):
            ChannelConfig(n=100, eta=0.5, s=1.0)
        # NaN slips past ordered comparisons; every non-finite value is rejected
        for bad in ({"eta": math.nan}, {"s": math.inf}, {"temp": math.nan}, {"temp": math.inf},
                    {"nbar": math.nan}, {"nbar": math.inf}):
            with pytest.raises(ValueError):
                ChannelConfig(**{"n": 2, "eta": 0.5, "s": 1.0, **bad})
        # the per-mode kernels overflow past the domain (from s = 95 at n = 10, at T = 1e80)
        for s in (MAX_ABS_S, -MAX_ABS_S):
            assert ChannelConfig(n=2, eta=0.5, s=s, temp=MAX_TEMP).s == s
        for bad in ({"s": 60.000001}, {"s": -95.0}, {"temp": 1.000001e6}, {"temp": 1e80}):
            with pytest.raises(ValueError):
                ChannelConfig(**{"n": 10, "eta": 0.9, "s": 0.0, "temp": 1.0, "nbar": 8.0, **bad})
        for bad in ({"n": 2.0}, {"n": True}, {"n": "2"}, {"eta": "0.5"}, {"s": None},
                    {"temp": 1j}, {"nbar": "8"}):
            with pytest.raises(ValueError):
                ChannelConfig(**{"n": 2, "eta": 0.5, "s": 1.0, **bad})

    def test_stores_builtin_numbers(self):
        cfg = ChannelConfig(n=np.int64(3), eta=np.float32(0.9), s=1, temp=np.float64(0.5), nbar=8)
        assert type(cfg.n) is int and cfg.n == 3
        for name in ("eta", "s", "temp", "nbar"):
            assert type(getattr(cfg, name)) is float, name
        assert cfg.eta == float(np.float32(0.9))
        assert cfg == ChannelConfig(n=3, eta=float(np.float32(0.9)), s=1.0, temp=0.5, nbar=8.0)


class TestOmega:
    def test_matrix_structure(self):
        w = omega_matrix(5)
        assert w.shape == (5, 5)
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0)
        assert np.all(w[np.abs(np.subtract.outer(range(5), range(5))) == 1] == 1)
        assert np.sum(w) == 8  # 2 * (n - 1) unit couplings

    def test_spectrum_closed_form(self):
        for n in (1, 2, 3, 7, 20):
            spec = omega_spectrum(n)
            want = np.sort(2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))[::-1]
            assert np.max(np.abs(spec.lambdas - want)) < 1e-12

    def test_spectrum_is_exactly_mirror_symmetric(self):
        for n in (2, 5, 10, 11):
            lam = omega_spectrum(n).lambdas
            assert np.array_equal(lam, -lam[::-1])

    def test_spectrum_is_cached_and_read_only(self):
        spec = omega_spectrum(7)
        assert omega_spectrum(7) is spec
        for arr in (spec.lambdas, spec.vectors):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_eigenpairs_against_dense_solver(self):
        for n in (1, 2, 3, 10, 37, 50):
            spec = omega_spectrum(n)
            w = omega_matrix(n)
            # rows of vectors are eigenvectors
            resid = spec.vectors @ w - spec.lambdas[:, None] * spec.vectors
            assert np.max(np.abs(resid)) < 1e-12
            gram = spec.vectors @ spec.vectors.T
            assert np.max(np.abs(gram - np.eye(n))) < 1e-12
            dense = np.sort(np.linalg.eigvalsh(w))[::-1]
            assert np.max(np.abs(spec.lambdas - dense)) < 1e-10


class TestGlobalModes:
    def test_mode_squeezings_follow_spectrum(self):
        cfg = ChannelConfig(n=6, eta=0.7, s=1.3, temp=0.4)
        modes = env_global_modes(cfg)
        lam = omega_spectrum(6).lambdas
        assert [m.index for m in modes] == list(range(1, 7))
        assert np.allclose([m.s for m in modes], 1.3 * lam)
        assert all(m.temp == 0.4 for m in modes)

    def test_mode_covariance(self):
        mode = GlobalEnvMode(index=1, s=0.8, temp=0.6)
        cov = mode.covariance()
        assert cov[0, 0] == pytest.approx(1.1 * math.exp(0.8), rel=1e-15)
        assert cov[1, 1] == pytest.approx(1.1 * math.exp(-0.8), rel=1e-15)


class TestLocalMarginals:
    def test_covariance_has_no_qp_coupling(self):
        cfg = ChannelConfig(n=5, eta=0.9, s=1.1, temp=0.3)
        cov = env_local_covariance(cfg)
        assert cov.shape == (10, 10)
        assert np.max(np.abs(cov[:5, 5:])) < 1e-12
        assert np.allclose(cov, cov.T, atol=1e-12)

    def test_quadrature_variances_balance(self):
        # the mirror-symmetric spectrum makes every local marginal thermal
        cfg = ChannelConfig(n=7, eta=0.9, s=1.7, temp=0.25)
        cov = env_local_covariance(cfg)
        for k in range(1, 8):
            marg = reduce_to_mode(cov, k)
            assert marg[0, 0] == pytest.approx(marg[1, 1], rel=1e-12)
            assert marg[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_effective_temperature_matches_marginal(self):
        cfg = ChannelConfig(n=7, eta=0.9, s=1.7, temp=0.25)
        cov = env_local_covariance(cfg)
        for k in range(1, 8):
            var = reduce_to_mode(cov, k)[0, 0]
            assert local_effective_temperature(cfg, k) == pytest.approx(var - 0.5, rel=1e-12)

    def test_two_mode_closed_form(self):
        # n=2 weights are 1/2 on each normal mode with s_j = +-s
        cfg = ChannelConfig(n=2, eta=0.5, s=1.0, temp=0.0)
        for k in (1, 2):
            t_eff = local_effective_temperature(cfg, k)
            assert t_eff == pytest.approx(COSH1_HALF - 0.5, abs=1e-14)

    def test_mean_effective_temperature_equals_m(self):
        cfg = ChannelConfig(n=9, eta=0.8, s=2.1, temp=1.5)
        mean_t = np.mean([local_effective_temperature(cfg, k) for k in range(1, 10)])
        assert mean_t == pytest.approx(m_parameter(cfg), rel=1e-12)

    def test_zero_squeezing_gives_bare_temperature(self):
        cfg = ChannelConfig(n=4, eta=0.5, s=0.0, temp=0.7)
        for k in range(1, 5):
            assert local_effective_temperature(cfg, k) == pytest.approx(0.7, abs=1e-13)

    def test_nondecreasing_in_squeezing(self):
        for k in (1, 3, 5):
            vals = [
                local_effective_temperature(ChannelConfig(n=10, eta=0.9, s=s, temp=0.0), k)
                for s in np.linspace(0.0, 3.0, 13)
            ]
            assert np.all(np.diff(vals) >= -1e-12)


class TestPassiveForm:
    def test_spec_validates_and_rebuilds_local_covariance(self):
        cfg = ChannelConfig(n=6, eta=0.9, s=1.4, temp=0.5)
        spec = passive_spec_from_config(cfg)
        spec.validate()
        assert np.allclose(build_passive_env(spec), env_local_covariance(cfg), atol=1e-12)

    def test_modes_roundtrip(self):
        cfg = ChannelConfig(n=6, eta=0.9, s=1.4, temp=0.5)
        spec = passive_spec_from_config(cfg)
        rebuilt = passive_env_modes(spec)
        direct = env_global_modes(cfg)
        assert np.allclose([m.s for m in rebuilt], [m.s for m in direct], atol=1e-12)
        assert np.allclose([m.temp for m in rebuilt], [m.temp for m in direct], atol=1e-12)

    def test_validate_rejects_nonorthogonal_blocks(self):
        cfg = ChannelConfig(n=3, eta=0.9, s=1.0, temp=0.0)
        spec = passive_spec_from_config(cfg)
        bad = type(spec)(x=spec.x * 1.01, y=spec.y, d_q=spec.d_q, d_p=spec.d_p)
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_uncertainty_violation(self):
        cfg = ChannelConfig(n=3, eta=0.9, s=1.0, temp=0.0)
        spec = passive_spec_from_config(cfg)
        bad = type(spec)(x=spec.x, y=spec.y, d_q=spec.d_q * 0.1, d_p=spec.d_p * 0.1)
        with pytest.raises(ValueError):
            bad.validate()
