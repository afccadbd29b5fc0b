"""End-to-end optimizer checks: analytic regime, symmetries, oracle agreement."""

import numpy as np
import pytest

from memchan.analytic import classical_lower_analytic, delta_term
from memchan.channel import ChannelConfig, env_global_modes
from memchan.gaussian import g_entropy
from memchan.optimize import (
    maximize_classical,
    maximize_ent_assisted,
    maximize_ent_assisted_local,
    maximize_quantum,
    maximize_quantum_local,
)
from reference_models import brute_force_oracle

G_OF_7P2 = 4.386538332596274923


class TestClassical:
    def test_matches_analytic_bound_in_valid_regime(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=1.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        bound = classical_lower_analytic(cfg)
        assert bound.valid
        assert res.value == pytest.approx(bound.value, abs=1e-9)
        assert res.converged
        assert 0.0 <= res.gap_to_analytic < 1e-9

    def test_memoryless_point(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=0.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        assert res.value == pytest.approx(G_OF_7P2, abs=1e-8)

    def test_even_in_squeezing_sign(self):
        plus = maximize_classical(ChannelConfig(n=5, eta=0.8, s=1.2, temp=0.5, nbar=8.0))
        minus = maximize_classical(ChannelConfig(n=5, eta=0.8, s=-1.2, temp=0.5, nbar=8.0))
        assert plus.value == pytest.approx(minus.value, abs=1e-10)

    def test_eta_edges(self):
        dark = maximize_classical(ChannelConfig(n=4, eta=0.0, s=1.0, temp=0.5, nbar=8.0))
        assert dark.value == 0.0
        clear = maximize_classical(ChannelConfig(n=4, eta=1.0, s=1.0, temp=0.5, nbar=8.0))
        assert clear.value == pytest.approx(g_entropy(8.0), abs=1e-12)

    def test_uniform_allocation_without_memory(self):
        cfg = ChannelConfig(n=6, eta=0.9, s=0.0, temp=0.3, nbar=8.0)
        res = maximize_classical(cfg)
        assert np.allclose(res.params.n_j, 8.0, atol=1e-6)

    def test_budget_respected(self):
        for s in (0.0, 1.0, 2.5):
            res = maximize_classical(ChannelConfig(n=7, eta=0.8, s=s, temp=0.4, nbar=8.0))
            assert res.params.mean_photons() == pytest.approx(8.0, abs=1e-6)


class TestQuantum:
    def test_exactly_zero_below_half_transmission(self):
        for eta in (0.1, 0.3, 0.49):
            for s in (0.0, 1.5, 3.0):
                res = maximize_quantum(ChannelConfig(n=4, eta=eta, s=s, temp=1.0, nbar=8.0))
                assert res.value == 0.0
                assert res.converged

    def test_memoryless_point_matches_delta(self):
        cfg = ChannelConfig(n=4, eta=0.9, s=0.0, temp=0.0, nbar=8.0)
        res = maximize_quantum(cfg)
        assert res.value == pytest.approx(delta_term(8.0, 0.9, 0.0), abs=1e-7)

    def test_even_in_squeezing_sign(self):
        plus = maximize_quantum(ChannelConfig(n=5, eta=0.9, s=1.2, temp=0.0, nbar=8.0))
        minus = maximize_quantum(ChannelConfig(n=5, eta=0.9, s=-1.2, temp=0.0, nbar=8.0))
        assert plus.value == pytest.approx(minus.value, abs=1e-10)

    def test_nonincreasing_in_squeezing(self):
        vals = [
            maximize_quantum(ChannelConfig(n=10, eta=0.9, s=float(s), temp=0.0, nbar=8.0)).value
            for s in np.linspace(0.0, 2.0, 6)
        ]
        assert np.all(np.diff(vals) <= 1e-7)

    def test_global_at_least_local(self):
        for s in (0.5, 1.5):
            cfg = ChannelConfig(n=10, eta=0.9, s=s, temp=0.0, nbar=8.0)
            assert maximize_quantum(cfg).value >= maximize_quantum_local(cfg).value - 1e-9


class TestEntAssisted:
    def test_memoryless_point(self):
        cfg = ChannelConfig(n=4, eta=0.9, s=0.0, temp=0.0, nbar=8.0)
        res = maximize_ent_assisted(cfg)
        want = g_entropy(8.0) + delta_term(8.0, 0.9, 0.0)
        assert res.value == pytest.approx(want, abs=1e-7)

    def test_exceeds_unassisted_classical(self):
        cfg = ChannelConfig(n=6, eta=0.8, s=1.0, temp=0.5, nbar=8.0)
        assert maximize_ent_assisted(cfg).value > maximize_classical(cfg).value

    def test_global_at_least_local(self):
        for s in (0.5, 1.5):
            cfg = ChannelConfig(n=10, eta=0.9, s=s, temp=0.0, nbar=8.0)
            assert (
                maximize_ent_assisted(cfg).value
                >= maximize_ent_assisted_local(cfg).value - 1e-9
            )

    def test_kkt_certificate(self):
        res = maximize_ent_assisted(ChannelConfig(n=10, eta=0.9, s=1.0, temp=0.0, nbar=8.0))
        assert res.converged
        assert res.kkt_residual <= 1e-4


class TestOracleAgreement:
    def test_two_mode_point(self):
        cfg = ChannelConfig(n=2, eta=0.85, s=1.1, temp=0.6, nbar=8.0)
        for kind, fn in (
            ("classical", maximize_classical),
            ("quantum", maximize_quantum),
            ("ent-assisted", maximize_ent_assisted),
        ):
            assert fn(cfg).value == pytest.approx(
                brute_force_oracle(cfg, kind), abs=1e-4
            ), kind

    def test_oracle_input_validation(self):
        cfg3 = ChannelConfig(n=3, eta=0.8, s=1.0, temp=0.0, nbar=8.0)
        with pytest.raises(ValueError):
            brute_force_oracle(cfg3, "classical")
        cfg2 = ChannelConfig(n=2, eta=0.8, s=1.0, temp=0.0, nbar=8.0)
        with pytest.raises(ValueError):
            brute_force_oracle(cfg2, "holevo")


class TestModesOverride:
    def test_explicit_modes_match_default(self):
        cfg = ChannelConfig(n=5, eta=0.9, s=1.0, temp=0.2, nbar=8.0)
        direct = maximize_classical(cfg)
        explicit = maximize_classical(cfg, modes=env_global_modes(cfg))
        assert explicit.value == pytest.approx(direct.value, abs=1e-12)

    def test_wrong_mode_count_rejected(self):
        cfg = ChannelConfig(n=5, eta=0.9, s=1.0, temp=0.2, nbar=8.0)
        with pytest.raises(ValueError):
            maximize_classical(cfg, modes=env_global_modes(cfg)[:3])
