"""End-to-end optimizer checks: analytic regime, symmetries, oracle agreement."""

import bisect
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from memchan import optimize
from memchan.allocation import _golden_max
from memchan.analytic import (
    classical_lower_analytic,
    classical_lower_from_modes,
    classical_upper_bound,
    delta_term,
    local_classical_lower,
)
from memchan.channel import MAX_ABS_S, MAX_NBAR, MAX_TEMP, ChannelConfig, GlobalEnvMode, env_global_modes
from memchan.cli import main as cli_main
from memchan.gaussian import g_entropy
from memchan.information import mode_photon_number, quantum_mutual_information
from memchan.optimize import (
    _chi_inner,
    _chi_marginal,
    _cluster_modes,
    _coordinate_ascent,
    _FastCubic,
    _GroupSolver,
    _i_inner,
    _j_inner,
    _optimize_grouped,
    maximize_classical,
    maximize_ent_assisted,
    maximize_ent_assisted_local,
    maximize_quantum,
    maximize_quantum_local,
)
from reference_models import (
    _bf_mode_max,
    brute_force_oracle,
    coordinate_ascent_every_search,
    free_thermal_chi_oracle,
    passive_env_modes,
    passive_spec_from_config,
)
from test_acceptance import FIG2A_ETAS, cfg10, valid_s_points

G_OF_7P2 = 4.386538332596274923


def hex_dump(res):
    """(value, converged, iterations, kkt_residual) and the encoding, floats as float.hex."""
    fields = dataclasses.astuple(res.params)
    return ([res.value.hex(), res.converged, res.iterations, res.kkt_residual.hex()],
            [[v.hex() for v in field] for field in fields])


class TestClassical:
    def test_matches_analytic_bound_in_valid_regime(self):
        cfg = ChannelConfig(n=10, eta=0.9, s=1.0, temp=0.0, nbar=8.0)
        res = maximize_classical(cfg)
        bound = classical_lower_analytic(cfg)
        assert bound.valid
        assert res.value == pytest.approx(bound.value, abs=1e-9)
        assert res.converged
        # the closed form and its encoding are returned as they are, unsolved
        assert res.value == bound.value
        assert res.iterations == 0 and res.kkt_residual == 0.0
        assert all(t == 0.0 for t in res.params.t)
        assert list(res.params.r) == [mode.s for mode in env_global_modes(cfg)]

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
        # the closed form's edges, bit for bit: nothing gets through at eta = 0;
        # at eta = 1 each mode is modulated with 8 photons and no seed
        zero, eight = "0x0.0p+0", "0x1.0000000000000p+3"
        assert hex_dump(dark) == ([zero, True, 0, zero], [[zero] * 4] * 5)
        assert hex_dump(clear) == (["0x1.21e07604ed456p+2", True, 0, zero],
                                   [[zero] * 4] * 2 + [[eight] * 4] * 3)
        # they return before the common-temperature check, so mixed modes get them too
        mixed = [GlobalEnvMode(j + 1, 0.3 * (j - 1), 0.2 + 0.4 * j) for j in range(3)]
        for eta, want in ((0.0, 0.0), (1.0, g_entropy(4.0))):
            cfg = ChannelConfig(n=3, eta=eta, s=0.0, temp=0.5, nbar=4.0)
            bound = classical_lower_from_modes(mixed, eta, 4.0)
            assert bound.valid and bound.value == want
            res = maximize_classical(cfg, modes=mixed)
            assert res.value == want and res.iterations == 0
        with pytest.raises(ValueError, match="common environment temperature"):
            classical_lower_from_modes(mixed, 0.5, 4.0)

    @pytest.mark.parametrize("n, eta, s, t1, t2, nbar", [
        (2, 0.9, 0.5, 1.0, 2.0, 8.0), (4, 0.7, 1.2, 0.0, 3.0, 2.0), (5, 0.55, -2.0, 0.5, 0.6, 8.0)])
    def test_mixed_temperatures_lie_between_their_extremes(self, n, eta, s, t1, t2, nbar):
        # mixed temperatures have no closed form, so the numeric solve runs.  A
        # hotter mode is the colder one plus classical noise (t2 - t1) diag(e^s, e^-s),
        # so each mode's value, and the water-filled total, is ordered in temperature
        cfg = ChannelConfig(n=n, eta=eta, s=s, temp=t1, nbar=nbar)
        modes = env_global_modes(cfg)

        def rate(temps):
            return maximize_classical(cfg, modes=[GlobalEnvMode(m.index, m.s, t) for m, t in zip(modes, temps)])

        mixed = rate([(t1, t2)[j % 2] for j in range(n)])
        assert mixed.converged and mixed.iterations > 0
        assert rate([t1] * n).value + 1e-9 >= mixed.value >= rate([t2] * n).value - 1e-9

    def test_uniform_allocation_without_memory(self):
        cfg = ChannelConfig(n=6, eta=0.9, s=0.0, temp=0.3, nbar=8.0)
        res = maximize_classical(cfg)
        assert np.allclose(res.params.n_j, 8.0, atol=1e-6)

    def test_budget_respected(self):
        for s in (0.0, 1.0, 2.5):
            res = maximize_classical(ChannelConfig(n=7, eta=0.8, s=s, temp=0.4, nbar=8.0))
            assert res.params.mean_photons() == pytest.approx(8.0, abs=1e-6)

    def test_closed_form_bounds_numeric_optimum(self):
        # Outside its validity region the closed form is still an upper bound
        # (minimum output entropy g((1-eta) T), maximum g(eta N + (1-eta) M)),
        # which is what makes returning it inside the region exact.
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 16:
            temp = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 5.0))
            cfg = ChannelConfig(n=int(rng.choice([2, 3, 5, 10])), eta=float(rng.uniform(0.05, 0.95)),
                                s=float(rng.uniform(-3.0, 3.0)), temp=temp, nbar=8.0)
            bound = classical_lower_analytic(cfg)
            if bound.valid:
                continue
            assert maximize_classical(cfg).value <= bound.value + 1e-9, cfg
            checked += 1


@functools.lru_cache(maxsize=None)
def numeric_classical(eta, s, temp, passive=False):
    # the water-filled path, which maximize_classical skips where the closed form holds
    cfg = cfg10(eta, s, temp)
    modes = passive_env_modes(passive_spec_from_config(cfg)) if passive else env_global_modes(cfg)
    return _optimize_grouped(modes, cfg.eta, cfg.nbar, _chi_inner, _chi_marginal)


class TestNumericClassicalPath:
    """The optimizer tracks the closed form at acceptance criteria 1 and 3's points.

    ``maximize_classical`` returns the closed form there, so those criteria
    no longer run the numeric path.
    """

    def test_tracks_closed_form(self):
        points = [(eta, s, 0.0) for eta in FIG2A_ETAS for s in valid_s_points(eta)]
        points += [(0.9, 0.0, float(temp)) for temp in range(6)]
        errs = []
        for point in points:
            res = numeric_classical(*point)
            gap = res.value - classical_lower_analytic(cfg10(*point)).value
            if not -1e-6 <= gap <= 1e-11:
                errs.append(f"eta, s, T = {point}: numeric minus closed form {gap:.3e}")
            if any(t != 0.0 for t in res.params.t):
                errs.append(f"eta, s, T = {point}: thermal seed t = {res.params.t}")
        assert not errs, "\n".join(errs)

    def test_passive_modes_give_same_total(self):
        for s in valid_s_points(0.9)[::4]:
            passive = numeric_classical(0.9, s, 0.0, passive=True)
            assert all(t == 0.0 for t in passive.params.t), s
            assert passive.value == pytest.approx(numeric_classical(0.9, s, 0.0).value, abs=1e-9), s


class TestPureSeedHolevo:
    def test_matches_a_search_with_free_thermal_seed(self):
        # t = 0 is optimal (a seed's thermal part moved into the modulation
        # keeps the average output and cannot raise the conditional entropy),
        # so a solve at t = 0 must reach what a search over t reaches
        rng = np.random.default_rng(26)
        for _ in range(6):
            mode = GlobalEnvMode(1, float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.0, 3.0)))
            eta = float(rng.uniform(0.1, 0.95))
            nj = float(10.0 ** rng.uniform(-1.0, 1.5))
            value, (t, _, _, _) = _chi_inner(mode, eta, nj)
            assert t == 0.0
            oracle = free_thermal_chi_oracle(mode, eta, nj)
            assert value >= oracle - 1e-9, (mode, eta, nj, value, oracle)

    def test_solves_do_not_depend_on_order(self):
        # a Holevo solve is a function of (mode, eta, x) alone, so a group's
        # memo is the same whichever photon numbers were solved before
        rng = np.random.default_rng(7)
        nbar = 8.0
        for n, eta, s, temp in [(3, 0.9, 2.0, 0.5), (2, 0.6, -1.5, 2.0), (5, 0.75, 0.7, 0.0),
                                (10, 0.95, 3.0, 1.5), (4, 0.3, -2.5, 0.2)]:
            budget = n * nbar
            xs = [0.0, nbar, *(budget * (i / 12.0) ** 1.6 for i in range(1, 12)), 3.3, 17.25]
            modes = env_global_modes(ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar))
            for mode, indices in _cluster_modes(modes):
                memos = []
                for order in (sorted(xs), sorted(xs, reverse=True), rng.permutation(xs).tolist()):
                    solver = _GroupSolver(mode, indices, eta, _chi_inner, _chi_marginal)
                    for x in order:
                        solver.solve(x)
                    memos.append({x: (value.hex(), [v.hex() for v in params])
                                  for x, (value, params) in solver.memo.items()})
                assert memos[0] == memos[1] == memos[2], (n, eta, s, temp, mode)


J_ETAS = (0.5, 0.55, 0.7, 0.9, 0.99, 1.0)
SWEEP_TEMPS = (0.0, 0.1, 1.0, 10.0, 1e3, 1e6)
SWEEP_PHOTONS = (1e-6, 1e-3, 0.1, 1.0, 8.0, 1e3, 1e6)


class TestUnsqueezedClosedForm:
    """At s = 0 a mode is a thermal attenuator, solved in closed form.

    The best Gaussian input at fixed energy is coherent modulation for chi
    and a thermal seed for J and I (Holevo & Werner, PRA 63, 032312 (2001)).
    ``GlobalEnvMode(1, 5e-324, T)`` reaches the numeric search on the same
    channel: exp(+-5e-324) == 1.0, so its variances equal the s = 0 ones bit
    for bit, but its s is not 0.
    """

    @pytest.mark.parametrize("inner, etas", [
        (_j_inner, J_ETAS), (_i_inner, (0.05, 0.3) + J_ETAS), (_chi_inner, (0.05, 0.3) + J_ETAS),
    ], ids=["J", "I", "chi"])
    def test_closed_form_is_at_least_the_search(self, inner, etas):
        assert GlobalEnvMode(1, 5e-324, 1.0).variances == GlobalEnvMode(1, 0.0, 1.0).variances
        errs = []
        for eta in etas:
            for temp in SWEEP_TEMPS:
                for x in SWEEP_PHOTONS:
                    value, params = inner(GlobalEnvMode(1, 0.0, temp), eta, x)
                    searched, _ = inner(GlobalEnvMode(1, 5e-324, temp), eta, x)
                    point = f"eta, T, x = {eta}, {temp}, {x}"
                    if value < searched - 1e-12 * (1.0 + abs(value)):
                        errs.append(f"{point}: closed form {value!r} under the search {searched!r}")
                    # a search that finds no rate may return roundoff at a pure seed,
                    # which spends fewer photons; every real rate is the closed form
                    # and spends all of them
                    if value <= 1e-12:
                        continue
                    closed = (0.0, 0.0, x, x) if inner is _chi_inner else (x, 0.0, 0.0, 0.0)
                    if params != closed:
                        errs.append(f"{point}: {params} is not the closed form {closed}")
                    photons = mode_photon_number(*params)
                    if abs(photons - x) > 1e-8 * (1.0 + x):
                        errs.append(f"{point}: {params} spends {photons!r} photons")
        assert not errs, "\n".join(errs)

    @pytest.mark.parametrize("kind, inner", [
        ("classical", _chi_inner), ("quantum", _j_inner), ("ent-assisted", _i_inner),
    ])
    def test_closed_form_reaches_the_grid_oracle(self, kind, inner):
        for eta, temp, x in [(0.9, 0.0, 8.0), (0.7, 1.0, 0.5), (0.55, 0.1, 3.0), (0.99, 10.0, 20.0)]:
            value, _ = inner(GlobalEnvMode(1, 0.0, temp), eta, x)
            assert value >= _bf_mode_max(kind, 0.0, temp, eta, x) - 1e-9, (kind, eta, temp, x)


class TestIntegerInputs:
    # probes where an integer budget reaches the allocator's in-place rescale
    @pytest.mark.parametrize("fn, n, eta", [
        (maximize_quantum, 2, 0.55),
        (maximize_quantum, 10, 0.55),
        (maximize_quantum, 10, 0.7),
        (maximize_quantum_local, 2, 0.55),
        (maximize_quantum_local, 10, 0.55),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_integer_parameters_match_floats(self, fn, n, eta):
        got = fn(ChannelConfig(n=n, eta=eta, s=0, temp=1, nbar=8))
        want = fn(ChannelConfig(n=n, eta=eta, s=0.0, temp=1.0, nbar=8.0))
        assert got == want  # every field, encoding included, bit for bit


class TestInputDomain:
    @pytest.mark.parametrize("n", [2, 3])
    def test_corners_are_finite(self, n):
        # the corners of the input domain, with budgets from 1e-6 to 1e6 photons
        quantities = (*OPTIMIZERS, local_classical_lower, classical_upper_bound, classical_lower_analytic)
        for s in (MAX_ABS_S, -MAX_ABS_S):
            for temp in (0.0, MAX_TEMP):
                for nbar in (1e-6, 8.0, 1e6):
                    cfg = ChannelConfig(n=n, eta=0.9, s=s, temp=temp, nbar=nbar)
                    for fn in quantities:
                        res = fn(cfg)
                        value = res if isinstance(res, float) else res.value
                        assert math.isfinite(value) and value >= 0.0, (cfg, fn)

    def test_subnormal_output_photons_give_finite_rates(self):
        # eta * nbar = 1e-309 photons reach the output, below where 1/x overflows in g
        cfg = ChannelConfig(n=2, eta=1e-300, s=0.0, temp=0.0, nbar=1e-9)
        rates = (maximize_classical(cfg).value, classical_lower_analytic(cfg).value,
                 classical_upper_bound(cfg).value, local_classical_lower(cfg))
        assert all(math.isfinite(rate) and rate > 0.0 for rate in rates), rates

    def test_upper_bound_corners_are_finite(self):
        # at tiny eta, k = (1 - eta)/eta (T + 1/2) squares past the float range
        corners = itertools.product((2, 3, 64), (1e-300, 1e-200, 1e-16, 0.5, 1.0 - 1e-16),
                                    (60.0, -60.0, -1.0, 0.0), (0.0, 1e6), (0.0, 1e-9, 1e6))
        for n, eta, s, temp, nbar in corners:
            bound = classical_upper_bound(ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar))
            assert math.isfinite(bound.value) and type(bound.valid) is bool, (n, eta, s, temp, nbar)

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="i2 cancels near eta = 1, so g_entropy reads nu_plus - 1/2 below 0 "
                              "(-1.9e-9 at n = 2, -4.9e-4 at n = 33)")
    @pytest.mark.parametrize("fn", [maximize_quantum, maximize_ent_assisted])
    @pytest.mark.parametrize("n, temp", [(2, 0.0), (33, 1e6)])
    def test_near_unit_transmission_is_finite(self, fn, n, temp):
        res = fn(ChannelConfig(n=n, eta=0.9999999999999999, s=2.0, temp=temp, nbar=1e6))
        assert math.isfinite(res.value) and res.value >= 0.0

    def test_budget_past_the_domain_is_rejected(self, capsys):
        # at N = 1e300 classical_upper_bound overflowed and the quantum optimizers raised mid-solve
        assert ChannelConfig(n=2, eta=0.9, s=0.5, temp=1.0, nbar=MAX_NBAR).nbar == MAX_NBAR
        for nbar in (1.000001e6, 1e300):
            with pytest.raises(ValueError, match="nbar"):
                ChannelConfig(n=2, eta=0.9, s=0.5, temp=1.0, nbar=nbar)
        code = cli_main(["scan", "--quantity", "classical-upper", "--n", "2", "--nbar", "1e300",
                         "--s-steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: nbar must lie in [0, 1e+06]")


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
        # the s = 0 points are the benchmark's memoryless points near eta 0.789
        # (seed 69) and 0.797 (seed 106), just above the Q > 0 threshold,
        # where the per-mode value is convex and fewer active modes do better
        cfgs = [ChannelConfig(n=10, eta=0.9, s=s, temp=0.0, nbar=8.0) for s in (0.5, 1.5)]
        cfgs += [ChannelConfig(n=32, eta=0.7893299052811846, s=0.0, temp=0.8946265838724848, nbar=8.0),
                 ChannelConfig(n=16, eta=0.7971484104069333, s=0.0, temp=0.9678465899259469, nbar=8.0)]
        for cfg in cfgs:
            assert maximize_quantum(cfg).value >= maximize_quantum_local(cfg).value - 1e-9, cfg

    @pytest.mark.parametrize("fn", [maximize_quantum, maximize_quantum_local])
    def test_convex_threshold_uses_fewer_modes(self, fn):
        # spreading 256 photons over all 32 modes gives 0.0013045; 17 active
        # modes give 0.0039303
        res = fn(ChannelConfig(n=32, eta=0.78933, s=0.0, temp=0.89463, nbar=8.0))
        assert res.value >= 0.0039303 - 1e-9
        assert not res.converged
        assert res.params.mean_photons() <= 8.0 + 1e-9

    def test_under_plob_bound(self):
        # Q <= max(0, -log2[(1-eta) eta^T] - g(T)) for every N (Pirandola et al.,
        # Nat. Commun. 8, 15043 (2017)); each normal mode is a thermal attenuator
        # between two squeezers, which leave the bound unchanged
        rng = np.random.default_rng(6)
        for _ in range(16):
            temp = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 3.0))
            cfg = ChannelConfig(n=int(rng.choice([2, 3, 5, 10])), eta=float(rng.uniform(0.5, 0.99)),
                                s=float(rng.uniform(-3.0, 3.0)), temp=temp,
                                nbar=float(rng.uniform(0.5, 10.0)))
            plob = max(0.0, -math.log2((1.0 - cfg.eta) * cfg.eta**temp) - g_entropy(temp))
            for fn in (maximize_quantum, maximize_quantum_local):
                assert fn(cfg).value <= plob + 1e-9, (cfg, fn.__name__)

    @staticmethod
    def holevo_werner(eta, temp):
        # the thermal-input coherent information of a thermal attenuator as
        # the input energy grows (Holevo & Werner, PRA 63, 032312 (2001));
        # squeezers around the attenuator move the energy, not the supremum
        return max(math.log2(eta / (1.0 - eta)) - g_entropy(temp), 0.0)

    def test_mode_solves_under_holevo_werner_limit(self):
        for eta, temp, s_j, x in itertools.product((0.55, 0.7, 0.8, 0.9, 0.97), (0.0, 0.3, 1.0, 3.0),
                                                   (0.0, 0.5, 2.0, 5.0), (0.1, 1.0, 8.0, 64.0)):
            value = _j_inner(GlobalEnvMode(0, s_j, temp), eta, x)[0]
            assert value <= self.holevo_werner(eta, temp) + 1e-12, (eta, temp, s_j, x)

    def test_under_holevo_werner_limit(self):
        rng = np.random.default_rng(15)
        for _ in range(12):
            temp = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 3.0))
            cfg = ChannelConfig(n=int(rng.choice([2, 3, 5, 10])), eta=float(rng.uniform(0.5, 0.99)),
                                s=float(rng.uniform(-3.0, 3.0)), temp=temp,
                                nbar=float(rng.uniform(0.5, 10.0)))
            assert maximize_quantum(cfg).value <= self.holevo_werner(cfg.eta, temp) + 1e-12, cfg


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

    @pytest.mark.parametrize("temp", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_exactly_zero_without_transmission(self, n, temp):
        # at eta = 0 the output does not depend on the input, so no rate is
        # solved: an exact 0, converged, as maximize_quantum gives below 1/2
        cfg = ChannelConfig(n=n, eta=0.0, s=1.5, temp=temp, nbar=8.0)
        zero = "0x0.0p+0"
        for fn in (maximize_ent_assisted, maximize_ent_assisted_local):
            assert hex_dump(fn(cfg)) == ([zero, True, 0, zero], [[zero] * n] * 5), fn.__name__

    def test_kkt_certificate(self):
        res = maximize_ent_assisted(ChannelConfig(n=10, eta=0.9, s=1.0, temp=0.0, nbar=8.0))
        assert res.converged
        assert res.kkt_residual <= 1e-4

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the seed node grid's first node, at about 0.91 photons, hides the "
                              "weak groups' curvature below it from the allocation")
    def test_at_least_assisted_rate_of_classical_input(self):
        # The average input state of C's encoding, sent as an assisted input,
        # spends the same photons, so C_E is at least I at that input.  At
        # high T the exact C_E allocation gives the weak groups a fraction of
        # a photon each, but the first seed node sits at budget (1/12)^1.6,
        # about 0.91 photons at the first point: the cubic bridge cannot see
        # the curvature below it, so C_E gives them about 2.3 photons each
        # and reads low.  Both solved value functions are concave there.
        points = [(5, 0.543, 0.32, 4171.0, 9.61), (3, 0.517, 1.47, 75638.0, 15.0)]
        points += [(5, eta, s, 1e4, 8.0) for eta in (0.55, 0.7, 0.9) for s in (0.3, 1.5)]
        errs = []
        for i, (n, eta, s, temp, nbar) in enumerate(points):
            cfg = ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar)
            classical = maximize_classical(cfg)
            assisted = maximize_ent_assisted(cfg).value
            p = classical.params
            rates = []
            for mode, t, r, cq, cp in zip(env_global_modes(cfg), p.t, p.r, p.c_q, p.c_p):
                aq = (t + 0.5) * math.exp(r) + cq
                ap = (t + 0.5) * math.exp(-r) + cp
                rates.append(quantum_mutual_information(math.sqrt(aq * ap) - 0.5,
                                                        0.5 * math.log(aq / ap), mode, eta))
            average_input = math.fsum(rates) / n
            if assisted < average_input - 1e-9:
                errs.append(f"{cfg}: C_E {assisted} < I at C's average input {average_input}")
            if i < 2 and classical.value > assisted + 1e-9:
                errs.append(f"{cfg}: C {classical.value} > C_E {assisted}")
        assert not errs, "\n".join(errs)


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
    # the optimizers that take a modes= override, and the largest variance
    # (temp + 1/2) e^|s| a mode may carry
    MODE_OPTIMIZERS = (maximize_classical, maximize_quantum, maximize_ent_assisted)
    MAX_VARIANCE = (MAX_TEMP + 0.5) * math.exp(2.0 * MAX_ABS_S)

    def test_explicit_modes_match_default(self):
        cfg = ChannelConfig(n=5, eta=0.9, s=1.0, temp=0.2, nbar=8.0)
        direct = maximize_classical(cfg)
        explicit = maximize_classical(cfg, modes=env_global_modes(cfg))
        assert explicit.value == pytest.approx(direct.value, abs=1e-12)

    def test_wrong_mode_count_rejected(self):
        cfg = ChannelConfig(n=5, eta=0.9, s=1.0, temp=0.2, nbar=8.0)
        with pytest.raises(ValueError):
            maximize_classical(cfg, modes=env_global_modes(cfg)[:3])

    @pytest.mark.parametrize("s, temp", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf),
        (0.0, -3.0), (0.0, -2e-9), (800.0, 0.0), (2.0 * MAX_ABS_S + 1.0, 0.0),
        (0.0, 1e300), (2.0 * MAX_ABS_S - 1.0, 10.0 * MAX_TEMP),
    ])
    @pytest.mark.parametrize("fn", MODE_OPTIMIZERS, ids=lambda fn: fn.__name__)
    def test_out_of_domain_modes_rejected(self, fn, s, temp):
        # unchecked, these returned nan or failed inside the solve
        cfg = ChannelConfig(n=2, eta=0.9, s=0.0, temp=0.0, nbar=2.0)
        with pytest.raises(ValueError, match="mode 1"):
            fn(cfg, modes=[GlobalEnvMode(1, s, temp), GlobalEnvMode(2, -s, temp)])

    @pytest.mark.parametrize("s, temp", [
        (2.0 * MAX_ABS_S, MAX_TEMP), (-2.0 * MAX_ABS_S, 0.0), (0.0, MAX_VARIANCE - 0.5),
        (MAX_ABS_S, MAX_VARIANCE / math.exp(MAX_ABS_S) - 0.5), (0.0, -5.55e-17),
    ])
    @pytest.mark.parametrize("fn", MODE_OPTIMIZERS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("nbar", [2.0, MAX_NBAR])
    def test_modes_at_the_bound_give_finite_rates(self, fn, nbar, s, temp):
        cfg = ChannelConfig(n=2, eta=0.9, s=0.0, temp=0.0, nbar=nbar)
        res = fn(cfg, modes=[GlobalEnvMode(1, s, temp), GlobalEnvMode(2, -s, temp)])
        assert math.isfinite(res.value) and res.value >= 0.0


class TestTinyBudget:
    @pytest.mark.parametrize("nbar", [1e-11, 1e-12])
    def test_budget_below_node_resolution(self, nbar):
        # every photon number rounds to the idle node: a zero rate, not a crash
        cfg = ChannelConfig(n=2, eta=0.9, s=0.5, temp=0.0, nbar=nbar)
        for fn in (
            maximize_classical,
            maximize_quantum,
            maximize_ent_assisted,
            maximize_quantum_local,
            maximize_ent_assisted_local,
        ):
            value = fn(cfg).value
            assert math.isfinite(value) and 0.0 <= value <= 1e-9, fn.__name__


OPTIMIZERS = (
    maximize_classical,
    maximize_quantum,
    maximize_ent_assisted,
    maximize_quantum_local,
    maximize_ent_assisted_local,
)


@functools.lru_cache(maxsize=None)
def solved_outside_closed_form(fn, s):
    # classical_lower_analytic is invalid here, so every value is water-filled
    return fn(ChannelConfig(n=10, eta=0.9, s=s, temp=1.0, nbar=8.0))


class TestResultTypes:
    @pytest.mark.parametrize("fn", OPTIMIZERS, ids=lambda fn: fn.__name__)
    def test_builtin_scalars_and_json(self, fn):
        res = solved_outside_closed_form(fn, 2.0)
        # numpy.float64 subclasses float, so the exact type is checked
        assert type(res.value) is float
        assert type(res.kkt_residual) is float
        assert type(res.converged) is bool and type(res.iterations) is int
        for name, values in dataclasses.asdict(res.params).items():
            assert all(type(v) is float for v in values), name
        json.dumps(dataclasses.asdict(res))


class TestMirroredEncodings:
    @pytest.mark.parametrize("s", [2.0, -2.0])
    @pytest.mark.parametrize("fn", OPTIMIZERS[:3], ids=lambda fn: fn.__name__)
    def test_partner_modes_are_q_p_images(self, fn, s):
        # modes j and n+1-j see squeezing s_j and -s_j
        assert not classical_lower_analytic(ChannelConfig(n=10, eta=0.9, s=s, temp=1.0,
                                                          nbar=8.0)).valid
        p = solved_outside_closed_form(fn, s).params
        n = p.n_modes
        for j in range(n // 2):
            k = n - 1 - j
            assert p.t[k] == p.t[j]
            assert p.r[k] == -p.r[j]
            assert (p.c_q[k], p.c_p[k]) == (p.c_p[j], p.c_q[j])
        if fn is not maximize_classical:
            assert set(p.c_q) | set(p.c_p) == {0.0}


# float.hex of (value, converged, iterations, kkt_residual) and a digest of
# the encoding's float.hex, for numerically solved points outside the
# closed form's range; changes that only cut work must keep them
SOLVED_PINS = {
    (10, -2.0): {
        maximize_classical: (["0x1.041e0a7a707c6p+2", True, 125, "0x1.139233e000000p-28"],
                             "49b09c3f8583598c"),
        maximize_quantum: (["0x1.91065efa480c4p-1", True, 125, "0x1.ff19daa400000p-27"],
                           "0a79a102d9d01c8a"),
        maximize_ent_assisted: (["0x1.4e1735c4716f1p+2", True, 125, "0x1.25ffdb4c00000p-25"],
                                "1079730e7a81a4e4"),
    },
    (32, -2.0): {
        maximize_classical: (["0x1.048f6fe550fe4p+2", True, 400, "0x1.57e0ba4000000p-27"],
                             "a3a3bf476f7efd9b"),
        maximize_quantum: (["0x1.86af9c94196dep-1", True, 400, "0x1.fde7737c00000p-27"],
                           "fb1412b5cfa6ae23"),
        maximize_ent_assisted: (["0x1.4ca21234d20bfp+2", True, 400, "0x1.52d43bc200000p-24"],
                                "0a1db6b236225a31"),
    },
    (2, 3.0): {
        maximize_classical: (["0x1.08a36af6c2cb8p+2", True, 15, "0x0.0p+0"], "aa412d1825e3aecf"),
        maximize_quantum: (["0x1.6af9964bc9744p-1", True, 15, "0x0.0p+0"], "a987303c425519e2"),
        maximize_ent_assisted: (["0x1.474e9a9d15fe8p+2", True, 15, "0x0.0p+0"],
                                "57effa66dc04f0f5"),
    },
}


# the same for points where the allocation rounds stop early: one group at
# s = 0, which takes the whole budget and stops after one round, and five
# groups at a zero quantum rate (one round)
EARLY_STOP_PINS = {
    (maximize_quantum, (10, 0.9, 0.0, 1.0, 8.0)): (
        ["0x1.09365d3707649p+0", True, 15, "0x0.0p+0"], "aaec97b5ac1c6296"),
    (maximize_ent_assisted, (10, 0.9, 0.0, 1.0, 8.0)): (
        ["0x1.642e0d52af1e8p+2", True, 15, "0x0.0p+0"], "aaec97b5ac1c6296"),
    (maximize_quantum_local, (10, 0.9, 0.0, 1.0, 8.0)): (
        ["0x1.09365d370764dp+0", True, 15, "0x0.0p+0"], "aaec97b5ac1c6296"),
    (maximize_ent_assisted_local, (10, 0.9, 0.0, 1.0, 8.0)): (
        ["0x1.642e0d52af1e9p+2", True, 15, "0x0.0p+0"], "aaec97b5ac1c6296"),
    (maximize_ent_assisted, (10, 0.9, 0.0, 1.0, 1e6)): (
        ["0x1.68b4fe93fca33p+4", True, 16, "0x0.0p+0"], "558ee86a2d64ca7f"),
    (maximize_quantum, (10, 0.796, -1.94, 3.18, 8.0)): (
        ["0x1.999999999999ap-54", False, 80, "0x0.0p+0"], "bf32d294383a3ccf"),
}


# the same for zero-rate points where a later allocation ties the best exact
# total: the optimizer keeps the first, and keeping a tying later one moves
# iterations and the KKT residual (a round's allocation at the first two
# points, the refined one at the third, where it would also read converged)
TIE_PINS = {
    (maximize_quantum, (10, 0.8980879096033949, -13.885477690132578, 3.78220051365797, 8.0)): (
        ["0x1.999999999999ap-54", True, 76, "0x0.0p+0"], "193006b0548003d4"),
    (maximize_quantum, (5, 0.55, 0.7, 2.0, 8.0)): (
        ["0x1.999999999999ap-54", True, 46, "0x0.0p+0"], "f0d948a02712ae57"),
    (maximize_quantum, (10, 0.7589827448823017, 6.718859142986293, 4.4358881046317125, 0.5)): (
        ["0x1.999999999999ap-54", False, 86, "0x1.0f00bc165e2a1p-3"], "20696487ff41e9c0"),
}


def _pin_ids(v):
    return v.__name__ if callable(v) else "-".join(map(str, v))


def _pinned(res):
    """(head, encoding digest) of a result, as the pins store them."""
    head, encoding = hex_dump(res)
    return head, hashlib.sha256(json.dumps(encoding).encode()).hexdigest()[:16]


class TestEarlyStopPins:
    @pytest.mark.parametrize("fn, point", list(EARLY_STOP_PINS), ids=_pin_ids)
    def test_bit_for_bit(self, fn, point):
        assert _pinned(fn(ChannelConfig(*point))) == EARLY_STOP_PINS[fn, point]


class TestTiePins:
    @pytest.mark.parametrize("fn, point", list(TIE_PINS), ids=_pin_ids)
    def test_bit_for_bit(self, fn, point):
        assert _pinned(fn(ChannelConfig(*point))) == TIE_PINS[fn, point]


class TestSolvedPins:
    @pytest.mark.parametrize("fn", OPTIMIZERS[:3], ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("n, s", list(SOLVED_PINS), ids=["n10", "n32", "n2"])
    def test_bit_for_bit(self, fn, n, s):
        cfg = ChannelConfig(n=n, eta=0.9, s=s, temp=1.0, nbar=8.0)
        assert not classical_lower_analytic(cfg).valid
        assert _pinned(fn(cfg)) == SOLVED_PINS[n, s][fn]


class TestBuiltinFloats:
    @pytest.mark.parametrize("n", [10, 32])
    @pytest.mark.parametrize("fn", OPTIMIZERS[:3], ids=lambda fn: fn.__name__)
    def test_solves_and_refine_see_builtin_floats(self, monkeypatch, fn, n):
        # a numpy.float64 photon number would be keyed by numpy's round,
        # which is not Python's correctly rounded one
        seen = []
        solve = _GroupSolver.solve
        refine = optimize._exact_refine

        def recording_solve(self, nj):
            seen.append(type(nj))
            return solve(self, nj)

        def recording_refine(solvers, weights, budget, start):
            x = refine(solvers, weights, budget, start)
            seen.extend(type(v) for v in (*start, *x))
            assert type(weights) is list and type(x) is list
            return x

        monkeypatch.setattr(_GroupSolver, "solve", recording_solve)
        monkeypatch.setattr(optimize, "_exact_refine", recording_refine)
        cfg = ChannelConfig(n=n, eta=0.9, s=-2.0, temp=1.0, nbar=8.0)
        assert not classical_lower_analytic(cfg).valid
        fn(cfg)
        assert seen and set(seen) == {float}


class TestGroupedAllocation:
    # C has a valid closed form at this point and runs no allocation
    @pytest.mark.parametrize("fn", OPTIMIZERS[1:3], ids=lambda fn: fn.__name__)
    def test_one_value_function_per_group(self, monkeypatch, fn):
        # n = 10 at s = 1 has five +s/-s pairs: each round water-fills one
        # cubic per pair, weighted by the pair's two modes
        calls = []
        allocate = optimize.allocate_photons

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return allocate(*args, **kwargs)

        monkeypatch.setattr(optimize, "allocate_photons", recording)
        cfg = ChannelConfig(n=10, eta=0.9, s=1.0, temp=1.0, nbar=8.0)
        fn(cfg)
        assert len(calls) == 3
        for args, kwargs in calls:
            assert not kwargs and len(args) == 3
            fns, weights, nbar = args
            assert len(fns) == len(weights) == 5
            assert weights == [2] * 5 and sum(weights) == cfg.n
            assert nbar == cfg.nbar

    # a round whose allocation adds no node ends the rounds: the next would
    # see the same nodes and return the same allocation
    @pytest.mark.parametrize("fn, point, rounds", [
        (maximize_quantum, (10, 0.9, 0.0, 1.0, 8.0), 1),
        (maximize_ent_assisted, (10, 0.9, 0.0, 1.0, 8.0), 1),
        (maximize_quantum_local, (10, 0.9, 0.0, 1.0, 8.0), 1),
        (maximize_ent_assisted_local, (10, 0.9, 0.0, 1.0, 8.0), 1),
        (maximize_ent_assisted, (10, 0.9, 0.0, 1.0, 1e6), 1),
        (maximize_quantum, (10, 0.796, -1.94, 3.18, 8.0), 1),
        (maximize_quantum, (10, 0.9, 1.0, 1.0, 8.0), 3),
        (maximize_ent_assisted, (10, 0.9, 1.0, 1.0, 8.0), 3),
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_rounds_stop_once_no_node_is_added(self, monkeypatch, fn, point, rounds):
        calls = []  # each call's node count per group cubic
        allocate = optimize.allocate_photons

        def recording(fns, weights, nbar):
            calls.append(tuple(len(f.breaks) for f in fns))
            return allocate(fns, weights, nbar)

        monkeypatch.setattr(optimize, "allocate_photons", recording)
        fn(ChannelConfig(*point))
        assert len(calls) == rounds
        assert len(set(calls)) == len(calls)  # every round sees new nodes


# large budgets at n = 32 (16 groups), where a BLAS dot product in the Newton
# refine made C_E differ by up to 2.4e-7 between OpenBLAS kernels
KERNEL_POINTS = [(32, 0.6, -7.0, 100.0, 1e6), (32, 0.93, -7.0, 0.3, 2e5),
                 (32, 0.93, -7.0, 0.3, 1e6), (32, 0.6, 2.0, 100.0, 2e5)]


class TestKernelIndependence:
    def test_same_bits_under_a_pre_avx_blas_kernel(self):
        """C, Q and C_E agree bit for bit under the native and the Prescott kernels.

        ``OPENBLAS_CORETYPE=Prescott`` makes a dynamic-arch OpenBLAS use its
        pre-AVX kernels, which every x86-64 CPU runs.  Where numpy is not
        built on a dynamic-arch OpenBLAS, the variable changes nothing, and
        the test passes without showing anything.
        """
        code = (
            "import dataclasses\n"
            "from memchan import ChannelConfig, maximize_classical, maximize_ent_assisted, "
            "maximize_quantum\n"
            f"for n, eta, s, temp, nbar in {KERNEL_POINTS!r}:\n"
            "    cfg = ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar)\n"
            "    for fn in (maximize_classical, maximize_quantum, maximize_ent_assisted):\n"
            "        res = fn(cfg)\n"
            "        print(res.value.hex(), res.converged, res.iterations, res.kkt_residual.hex(),\n"
            "              [[v.hex() for v in f] for f in dataclasses.astuple(res.params)])\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)  # as pytest imports memchan
        native, prescott = (
            subprocess.run([sys.executable, "-c", code], env=run_env, capture_output=True,
                           text=True, check=True).stdout
            for run_env in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})
        )
        assert native.count("\n") == 3 * len(KERNEL_POINTS)
        assert native == prescott


def _separable(rng, d):
    # optima beyond the box on some coordinates, so the clamp binds there
    a, b, c = rng.uniform(0.5, 2.0, d), rng.uniform(0.0, 0.5, d), rng.uniform(-3.0, 3.0, d)
    return lambda x: -math.fsum(ai * (xi - ci) ** 2 + bi * math.exp(xi)
                                for ai, bi, ci, xi in zip(a, b, c, x))


def _coupled(rng, d):
    # a strongly correlated quadratic: every search moves its coordinate
    rho = rng.uniform(0.8, 0.95) if d == 2 else rng.uniform(0.4, 0.45)
    a = np.full((d, d), rho) + (1.0 - rho) * np.eye(d)
    c = rng.uniform(-1.0, 1.0, d)
    return lambda x: -float((np.asarray(x) - c) @ a @ (np.asarray(x) - c))


def _box(i, x):
    return -2.0, 2.0


class TestCoordinateAscent:
    """The inner solves' ascent skips a line search only where its answer is known.

    ``coordinate_ascent_every_search`` is the loop that runs every search;
    the skipping loop must return its point and value bit for bit.
    """

    @staticmethod
    def searches(monkeypatch, module):
        # record (line, interval) of each line search run from ``module``
        log = []

        def spy(fn, lo, hi, tol):
            log.append((fn, lo.hex(), hi.hex()))
            return _golden_max(fn, lo, hi, tol)

        monkeypatch.setattr(f"{module}._golden_max", spy)
        return log

    @staticmethod
    def line(fun):
        def along(i, x):
            rest = list(x)

            def value(v):
                trial = rest.copy()
                trial[i] = v
                return fun(trial)

            value.inputs = (i, tuple(v.hex() for v in rest[:i] + rest[i + 1:]))
            return value
        return along

    @pytest.mark.parametrize("family, skips", [(_separable, True), (_coupled, False)])
    def test_equals_every_search(self, monkeypatch, family, skips):
        rng = np.random.default_rng(31)
        for trial in range(12):
            d = 2 + trial % 2
            fun = family(rng, d)
            x0 = rng.uniform(-2.0, 2.0, d).tolist()
            every = self.searches(monkeypatch, "reference_models")
            want = coordinate_ascent_every_search(fun, x0, _box)
            fewer = self.searches(monkeypatch, "memchan.optimize")
            got = _coordinate_ascent(self.line(fun), x0, _box)
            assert ([v.hex() for v in got[0]], got[1].hex()) == \
                ([v.hex() for v in want[0]], want[1].hex()), (family.__name__, trial)
            # no coordinate is searched twice running with the same inputs
            for i in range(d):
                runs = [(fn.inputs[1], lo, hi) for fn, lo, hi in fewer if fn.inputs[0] == i]
                assert all(a != b for a, b in zip(runs, runs[1:])), (family.__name__, trial, i)
            if skips:
                assert len(fewer) < len(every), (trial, len(fewer), len(every))
            else:
                assert len(fewer) == len(every), (trial, len(fewer), len(every))


def sorted_nodes(rng, k, hi=40.0):
    return np.unique(np.concatenate(([0.0], rng.uniform(0.0, hi, k - 1))))


class TestPchipBridge:
    """The allocation bridge equals scipy's PchipInterpolator bit for bit."""

    @staticmethod
    def assert_matches_scipy(xs, ys):
        cubic = _FastCubic(list(xs), list(ys))
        reference = PchipInterpolator(xs, ys)
        breaks = reference.x.tolist()
        assert cubic.breaks == breaks
        assert cubic.coefs == reference.c.T.tolist()

        def horner(x):
            # scipy's breaks and coefficients, evaluated in the cubic's order
            x = min(max(x, breaks[0]), breaks[-1])
            k = min(max(bisect.bisect_right(breaks, x) - 1, 0), len(breaks) - 2)
            dx = x - breaks[k]
            c3, c2, c1, c0 = reference.c[:, k].tolist()
            return ((c3 * dx + c2) * dx + c1) * dx + c0

        lo, hi = breaks[0], breaks[-1]
        mids = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:])]
        # scipy sums c0 + c1 dx + c2 dx^2 + c3 dx^3 rather than use Horner's
        # rule, so its values equal the cubic's only where dx = 0, and elsewhere
        # up to rounding (6 ulp of the largest node value in these draws)
        exact = breaks[:-1] + [lo - 1.0]
        tol = 1e-14 * max(abs(y) for y in ys)
        for x in breaks + mids + [lo - 1.0, hi + 1.0]:
            value = cubic(x)
            assert value.hex() == horner(x).hex(), x
            want = float(reference(min(max(x, lo), hi)))
            assert value == want if x in exact else abs(value - want) <= tol, x

    def test_two_and_three_nodes(self):
        rng = np.random.default_rng(0)
        for k in (2, 3):
            for _ in range(50):
                xs = np.sort(rng.choice(np.linspace(0.0, 20.0, 401), k, replace=False))
                self.assert_matches_scipy(xs.tolist(), rng.normal(size=k).tolist())

    def test_concave_log_curves(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            xs = sorted_nodes(rng, int(rng.integers(4, 40)))
            ys = rng.uniform(0.1, 3.0) * np.log2(1.0 + rng.uniform(0.2, 5.0) * xs)
            self.assert_matches_scipy(xs.tolist(), ys.tolist())

    def test_flat_zero_then_rise(self):
        # the quantum value: exactly zero below a photon threshold, then rising
        rng = np.random.default_rng(2)
        for _ in range(100):
            xs = sorted_nodes(rng, int(rng.integers(4, 40)))
            ys = np.maximum(xs - rng.uniform(0.0, 30.0), 0.0) ** rng.uniform(0.5, 2.0)
            self.assert_matches_scipy(xs.tolist(), ys.tolist())

    def test_sign_changes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            xs = sorted_nodes(rng, int(rng.integers(4, 40)))
            ys = np.round(rng.normal(size=len(xs)), 1)  # includes equal neighbours
            self.assert_matches_scipy(xs.tolist(), ys.tolist())

    def test_numpy_float64_inputs(self):
        # a general helper: it converts its nodes, so numpy scalars give scipy's cubic too
        rng = np.random.default_rng(4)
        xs = sorted_nodes(rng, 14)
        ys = np.sin(xs) + 0.1 * xs
        self.assert_matches_scipy(list(xs), list(ys))

    def test_package_import_leaves_scipy_unloaded(self):
        code = "import sys, memchan; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},  # as pytest imports it
        )
        assert proc.returncode == 0
