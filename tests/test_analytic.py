"""Closed-form bounds: frozen reference values, validity flags, monotonicity."""

import math

import numpy as np
import pytest

from memchan.analytic import (
    asymptotic_ent_assisted,
    asymptotic_quantum,
    classical_lower_analytic,
    classical_lower_asymptotic,
    classical_upper_bound,
    delta_term,
    local_classical_lower,
    m_parameter,
)
from memchan.channel import ChannelConfig
from memchan.gaussian import g_entropy
from memchan.optimize import maximize_ent_assisted, maximize_quantum

# 40-digit reference values
M_N2_S1_T0 = 0.27154031740762188924  # cosh(1)/2 - 1/2
M_N3_S1_T1 = 2.178183556608570864  # 1.5*(2*cosh(sqrt(2)) + 1)/3 - 1/2
DELTA_8_09_0 = 2.602601424887475018
LOG2_17 = 4.087462841250339408
G_OF_8 = 4.529325012980811266
ASYM_N11 = 4.114651522281788091  # (10/11)*log2(17) + g(7.2)/11
DELTA_88_09_0 = 3.099963263058701402681  # all 88 photons of n=11, N=8 on one mode
# max over y of [10 g((88 - y)/10) + g(y) + delta(y)] / 11, reached at y = 10.0132
ASYM_EA_N11 = 4.770341185469434341491


class TestMParameter:
    def test_frozen_values(self):
        assert m_parameter(ChannelConfig(n=2, eta=0.5, s=1.0, temp=0.0)) == pytest.approx(
            M_N2_S1_T0, abs=1e-14
        )
        assert m_parameter(ChannelConfig(n=3, eta=0.5, s=1.0, temp=1.0)) == pytest.approx(
            M_N3_S1_T1, abs=1e-13
        )

    def test_zero_squeezing_returns_temperature(self):
        cfg = ChannelConfig(n=8, eta=0.7, s=0.0, temp=1.3)
        assert m_parameter(cfg) == pytest.approx(1.3, abs=1e-13)

    def test_increasing_in_squeezing_magnitude(self):
        vals = [
            m_parameter(ChannelConfig(n=10, eta=0.7, s=s, temp=0.5))
            for s in np.linspace(0.0, 3.0, 16)
        ]
        assert np.all(np.diff(vals) > 0)


class TestClassicalBounds:
    def test_upper_bound_formula_wiring(self):
        cfg = ChannelConfig(n=3, eta=0.8, s=1.0, temp=1.0, nbar=8.0)
        want = g_entropy(0.8 * 8.0 + 0.2 * m_parameter(cfg))
        assert classical_upper_bound(cfg).value == pytest.approx(want, abs=1e-14)

    def test_gap_is_output_noise_entropy(self):
        cfg = ChannelConfig(n=4, eta=0.6, s=0.8, temp=2.0, nbar=8.0)
        upper = classical_upper_bound(cfg).value
        lower = classical_lower_analytic(cfg).value
        assert upper - lower == pytest.approx(g_entropy(0.4 * 2.0), abs=1e-13)

    def test_bounds_coincide_at_zero_temperature(self):
        for s in (0.0, 0.7, 2.4):
            for eta in (0.3, 0.9):
                cfg = ChannelConfig(n=6, eta=eta, s=s, temp=0.0, nbar=8.0)
                diff = classical_upper_bound(cfg).value - classical_lower_analytic(cfg).value
                assert diff == 0.0

    def test_lower_valid_implies_upper_valid(self):
        for s in np.linspace(0.0, 3.0, 7):
            for temp in (0.0, 1.0, 4.0):
                cfg = ChannelConfig(n=5, eta=0.8, s=float(s), temp=temp, nbar=8.0)
                lower = classical_lower_analytic(cfg)
                upper = classical_upper_bound(cfg)
                assert (not lower.valid) or upper.valid

    def test_lower_bound_monotone_in_squeezing(self):
        for eta in (0.3, 0.6, 0.9):
            vals = [
                classical_lower_analytic(
                    ChannelConfig(n=10, eta=eta, s=float(s), temp=0.0, nbar=8.0)
                ).value
                for s in np.linspace(0.0, 3.0, 16)
            ]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_zero_squeezing_reduces_to_memoryless(self):
        for temp in (0.0, 1.0, 3.0):
            cfg = ChannelConfig(n=10, eta=0.9, s=0.0, temp=temp, nbar=8.0)
            bound = classical_lower_analytic(cfg)
            want = g_entropy(0.9 * 8.0 + 0.1 * temp) - g_entropy(0.1 * temp)
            assert bound.valid
            assert bound.value == pytest.approx(want, abs=1e-13)


class TestOptimalAllocation:
    def test_allocation_sums_to_budget_and_tilts_away_from_squeezing(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=1.0, temp=0.5, nbar=8.0)
        bound = classical_lower_analytic(cfg)
        n_opt = np.array([pm.n_opt for pm in bound.per_mode])
        assert np.mean(n_opt) == pytest.approx(8.0, abs=1e-10)
        svals = np.abs([pm.r for pm in bound.per_mode])  # r tracks the mode squeezing
        # strongly squeezed normal modes receive fewer signal photons
        order = np.argsort(svals)
        assert n_opt[order[0]] == n_opt.max()
        assert n_opt[order[-1]] == n_opt.min()

    def test_validity_flag_tracks_nonnegative_allocation(self):
        valid_cfg = ChannelConfig(n=10, eta=0.9, s=0.5, temp=0.0, nbar=8.0)
        assert classical_lower_analytic(valid_cfg).valid
        assert min(pm.n_opt for pm in classical_lower_analytic(valid_cfg).per_mode) >= 0.0
        # strong squeezing at low eta drives the outermost allocation negative
        invalid_cfg = ChannelConfig(n=10, eta=0.3, s=3.0, temp=0.0, nbar=8.0)
        bound = classical_lower_analytic(invalid_cfg)
        assert not bound.valid
        assert min(pm.n_opt for pm in bound.per_mode) < 0.0


class TestLocalRate:
    def test_zero_squeezing_matches_memoryless(self):
        cfg = ChannelConfig(n=6, eta=0.9, s=0.0, temp=1.0, nbar=8.0)
        want = g_entropy(0.9 * 8.0 + 0.1 * 1.0) - g_entropy(0.1)
        assert local_classical_lower(cfg) == pytest.approx(want, abs=1e-9)

    def test_never_exceeds_global_bound_when_valid(self):
        for s in (0.0, 0.5, 1.0):
            cfg = ChannelConfig(n=10, eta=0.9, s=s, temp=0.0, nbar=8.0)
            bound = classical_lower_analytic(cfg)
            if bound.valid:
                assert local_classical_lower(cfg) <= bound.value + 1e-9


class TestDelta:
    def test_frozen_value(self):
        assert delta_term(8.0, 0.9, 0.0) == pytest.approx(DELTA_8_09_0, abs=1e-12)

    def test_vanishes_at_balanced_splitter(self):
        # eta = 1/2, T = 0: output and complement spectra coincide
        assert delta_term(5.0, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_transmission(self):
        assert delta_term(8.0, 1.0, 0.0) == pytest.approx(g_entropy(8.0), abs=1e-12)


class TestAsymptotics:
    def test_classical_even_n(self):
        for eta in (0.3, 0.9):
            assert classical_lower_asymptotic(10, 8.0, eta, 0.0) == pytest.approx(
                LOG2_17, abs=1e-13
            )

    def test_classical_odd_n_frozen(self):
        assert classical_lower_asymptotic(11, 8.0, 0.9, 0.0) == pytest.approx(
            ASYM_N11, abs=1e-13
        )

    def test_quantum_limits(self):
        assert asymptotic_quantum(10, 8.0, 0.9, 0.0) == 0.0
        assert asymptotic_quantum(11, 8.0, 0.3, 0.0) == 0.0
        assert asymptotic_quantum(11, 8.0, 0.9, 0.0) == pytest.approx(
            DELTA_88_09_0 / 11.0, abs=1e-12
        )

    def test_ent_assisted_limits(self):
        assert asymptotic_ent_assisted(10, 8.0, 0.9, 0.0) == pytest.approx(G_OF_8, abs=1e-13)
        assert asymptotic_ent_assisted(11, 8.0, 0.9, 0.0) == pytest.approx(
            ASYM_EA_N11, abs=1e-12
        )

    def test_odd_n_limits_match_optimizer(self):
        # at s = 60 every squeezed pair of the n=11 chain is squeezed by more than 31
        cfg = ChannelConfig(n=11, eta=0.9, s=60.0, temp=0.0, nbar=8.0)
        quantum = maximize_quantum(cfg)
        assisted = maximize_ent_assisted(cfg)
        assert quantum.converged and assisted.converged
        assert quantum.value == pytest.approx(asymptotic_quantum(11, 8.0, 0.9, 0.0), abs=1e-5)
        assert assisted.value == pytest.approx(asymptotic_ent_assisted(11, 8.0, 0.9, 0.0), abs=1e-5)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            classical_lower_asymptotic(0, 8.0, 0.9, 0.0)
