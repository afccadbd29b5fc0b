"""Closed-form bounds: frozen reference values, validity flags, monotonicity."""

import math

import mpmath
import numpy as np
import pytest

from memchan.analytic import (
    _thermal_chi,
    asymptotic_ent_assisted,
    asymptotic_quantum,
    classical_lower_analytic,
    classical_lower_asymptotic,
    classical_upper_bound,
    delta_term,
    local_classical_lower,
    m_parameter,
)
from memchan.channel import ChannelConfig, local_effective_temperature
from memchan.gaussian import g_entropy
from memchan.optimize import maximize_classical, maximize_ent_assisted, maximize_quantum

from reference_models import allocate_photons_per_entry, g_entropy_mp

# 40-digit reference values
M_N2_S1_T0 = 0.27154031740762188924  # cosh(1)/2 - 1/2
M_N3_S1_T1 = 2.178183556608570864  # 1.5*(2*cosh(sqrt(2)) + 1)/3 - 1/2
DELTA_8_09_0 = 2.602601424887475018
LOG2_17 = 4.087462841250339408
G_OF_8 = 4.529325012980811266
# max over y of [10 log2(2 (88 - y)/10 + 1) + g(0.9 y)] / 11, reached at y = 7.9605
ASYM_N11 = 4.114653077055781290664
DELTA_88_09_0 = 3.099963263058701402681  # all 88 photons of n=11, N=8 on one mode
# max over y of [10 g((88 - y)/10) + g(y) + delta(y)] / 11, reached at y = 10.0132
ASYM_EA_N11 = 4.770341185469434341491


def local_temps(cfg):
    return [local_effective_temperature(cfg, k) for k in range(1, cfg.n + 1)]


def local_rate_mp(cfg, temps, alloc):
    """Local coherent-encoding rate of the allocation ``alloc``, in 50 digits."""
    with mpmath.workdps(50):
        eta = mpmath.mpf(cfg.eta)
        floors = [(1 - eta) * mpmath.mpf(temp) for temp in temps]
        total = sum(g_entropy_mp(eta * mpmath.mpf(float(x)) + f) - g_entropy_mp(f)
                    for f, x in zip(floors, alloc))
        return float(total / cfg.n)


def water_filled_rate_mp(cfg):
    """Local rate at the water level L, bisected in 50 digits.

    Mode k gets x_k = max(L - f_k, 0)/eta photons with floor
    f_k = (1-eta) T_eff(k), and L spends the whole budget n N.
    """
    with mpmath.workdps(50):
        eta = mpmath.mpf(cfg.eta)
        floors = [(1 - eta) * mpmath.mpf(temp) for temp in local_temps(cfg)]
        budget = eta * cfg.n * mpmath.mpf(cfg.nbar)
        lo, hi = min(floors), max(floors) + budget
        for _ in range(200):
            level = (lo + hi) / 2
            if sum(max(level - f, 0) for f in floors) < budget:
                lo = level
            else:
                hi = level
        total = sum(g_entropy_mp(max(hi, f)) - g_entropy_mp(f) for f in floors)
        return float(total / cfg.n)


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

    @pytest.mark.parametrize("n, eta, s, temp, value_hex, valid", [
        # upper bound valid, lower bound not
        (2, 0.5, 2.0, 1.0, "0x1.10ddcbf687693p+2", True),
        # every n_j = 8, but (n_j + 1/2)^2 - (k sinh s_j)^2 < 1/4
        (2, 0.1, 0.5, 5.0, "0x1.0817c2dbeb5b0p+2", False),
        # the outer n_j < 0; there |n_j + 1/2| < k |sinh s_j|, so a negative
        # n_j breaks the discriminant condition too
        (10, 0.1, 3.0, 0.0, "0x1.85bb532660505p+2", False),
        (3, 0.0, 1.0, 1.0, "0x0.0p+0", True),
        (3, 1.0, 1.0, 1.0, "0x1.21e07604ed456p+2", True),  # g(8)
    ])
    def test_upper_bound_value_and_flag_are_pinned(self, n, eta, s, temp, value_hex, valid):
        bound = classical_upper_bound(ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=8.0))
        assert (bound.value.hex(), bound.valid, bound.per_mode) == (value_hex, valid, ())

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

    def test_water_level_is_exact(self):
        # the exact water level against a 50-digit bisection on the level, and
        # no worse than the finite-difference water-filling of each entry.  The
        # oracle's own sum of g differences carries up to 1e-6 relative
        # roundoff at a budget of 1e-10 photons per mode, so its allocation is
        # valued in mpmath.
        errs = []
        for s in (0.0, 0.7, -2.5):
            for n in (1, 2, 3, 64):
                for eta in (1e-6, 0.5, 1.0):
                    for nbar in (0.0, 1e-4, 8.0, 1e6):
                        cfg = ChannelConfig(n=n, eta=eta, s=s, temp=0.5, nbar=nbar)
                        rate = local_classical_lower(cfg)
                        want = water_filled_rate_mp(cfg)
                        if abs(rate - want) > 1e-13 * abs(want):
                            errs.append(f"{cfg}: {rate!r} against mpmath {want!r}")
                        temps = local_temps(cfg)
                        fns = [_thermal_chi(eta, temp) for temp in temps]
                        oracle = local_rate_mp(cfg, temps, allocate_photons_per_entry(fns, nbar))
                        if rate < oracle - 4.0 * math.ulp(oracle):
                            errs.append(f"{cfg}: {rate!r} under the per-entry oracle {oracle!r}")
        assert not errs, "\n".join(errs)

    @pytest.mark.parametrize("n", [10, 64])
    def test_tiny_budget_on_roundoff_floors(self, n):
        # at s = 0, T = 0 some T_eff read -3e-16, and a budget below that
        # raised a math domain error; every floor is at least 0, as for g
        for nbar in (1e-300, 1e-20, 1e-12):
            cfg = ChannelConfig(n=n, eta=0.9, s=0.0, temp=0.0, nbar=nbar)
            rate = local_classical_lower(cfg)
            assert 0.0 < rate <= g_entropy(0.9 * nbar) * (1.0 + 1e-12), nbar

    @pytest.mark.parametrize("n, eta, s, temp, nbar, short", [
        (3, 0.11988612019629674, -4.459621866251353, 0.0, 1.8709673891494574e-4, 4.453500922115457e-07),
        (32, 1e-6, -0.276287239588634, 1.9627956509979316, 7900.894246696586, 0.004408990165852195),
    ])
    def test_coarse_probe_under_report_is_mended(self, n, eta, s, temp, nbar, short):
        # the finite-difference water-filling read ``short`` here: its probe
        # step max(1e-7 budget, 1e-9) was coarse against the budget
        cfg = ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar)
        rate = local_classical_lower(cfg)
        assert rate == pytest.approx(water_filled_rate_mp(cfg), rel=1e-13, abs=0.0)
        assert rate > short + 1e-9
        assert maximize_classical(cfg).value >= rate - 1e-9

    def test_never_exceeds_global_bound_when_valid(self):
        for s in (0.0, 0.5, 1.0):
            cfg = ChannelConfig(n=10, eta=0.9, s=s, temp=0.0, nbar=8.0)
            bound = classical_lower_analytic(cfg)
            if bound.valid:
                assert local_classical_lower(cfg) <= bound.value + 1e-9


def delta_mp(nbar, eta, temp):
    """delta_term's defining formula in 60 digits."""
    with mpmath.workdps(60):
        nbar, eta, temp = (mpmath.mpf(v) for v in (nbar, eta, temp))
        n_out = eta * nbar + (1 - eta) * temp
        d = mpmath.sqrt((nbar + n_out + 1) ** 2 - 4 * eta * nbar * (nbar + 1))
        return float(g_entropy_mp(n_out) - g_entropy_mp((d + n_out - nbar - 1) / 2)
                     - g_entropy_mp((d - n_out + nbar - 1) / 2))


class TestDelta:
    def test_frozen_value(self):
        assert delta_term(8.0, 0.9, 0.0) == pytest.approx(DELTA_8_09_0, abs=1e-12)

    def test_vanishes_at_balanced_splitter(self):
        # eta = 1/2, T = 0: output and complement spectra coincide
        assert delta_term(5.0, 0.5, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_transmission(self):
        assert delta_term(8.0, 1.0, 0.0) == pytest.approx(g_entropy(8.0), abs=1e-12)

    def test_matches_mpmath_over_the_domain(self):
        # the textbook form lost 6e-9 relative at N = 1e6, eta = 0.99, T = 0.1,
        # and read 0 for -2 at N = 1, eta = 0.5, T = 1e20, to cancellation in
        # D and in D - 1 -+ (N' - N)
        errs = []
        for eta in (0.0, 0.05, 0.5, 0.9, 0.99, 0.999, 1.0):
            for temp in (0.0, 1e-9, 1e-3, 1.0, 1e3, 1e6, 1e20):
                for nbar in (0.0, 1e-8, 1e-3, 1.0, 8.0, 1e6, 6.4e7):
                    got = delta_term(nbar, eta, temp)
                    want = delta_mp(nbar, eta, temp)
                    if abs(got - want) > 1e-14 * (1.0 + abs(want)):
                        errs.append(f"N, eta, T = {nbar}, {eta}, {temp}: {got!r} against {want!r}")
        assert not errs, "\n".join(errs)


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
        classical = maximize_classical(cfg)
        quantum = maximize_quantum(cfg)
        assisted = maximize_ent_assisted(cfg)
        assert classical.converged and quantum.converged and assisted.converged
        assert classical.value == pytest.approx(classical_lower_asymptotic(11, 8.0, 0.9, 0.0), abs=1e-9)
        assert quantum.value == pytest.approx(asymptotic_quantum(11, 8.0, 0.9, 0.0), abs=1e-5)
        assert assisted.value == pytest.approx(asymptotic_ent_assisted(11, 8.0, 0.9, 0.0), abs=1e-5)

    def test_rejects_bad_n(self):
        # (n, N, eta, T) outside ChannelConfig's domain, in the argument order of the limits
        bad = [(0, 8.0, 0.9, 0.0), (2.5, 8.0, 0.9, 0.0), (True, 8.0, 0.9, 0.0),
               (2, math.nan, 0.9, 0.0), (3, 8.0, 0.9, -1.0), (3, 8.0, 1.5, 0.0)]
        for fn in (classical_lower_asymptotic, asymptotic_quantum, asymptotic_ent_assisted):
            for args in bad:
                with pytest.raises(ValueError):
                    fn(*args)
