"""End-to-end optimizer checks: analytic regime, symmetries, oracle agreement."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

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
from memchan.optimize import (
    _chi_inner,
    _chi_marginal,
    _FastCubic,
    _optimize_grouped,
    maximize_classical,
    maximize_ent_assisted,
    maximize_ent_assisted_local,
    maximize_quantum,
    maximize_quantum_local,
)
from reference_models import brute_force_oracle, passive_env_modes, passive_spec_from_config
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
    return _optimize_grouped(modes, cfg.eta, cfg.nbar, _chi_inner, _chi_marginal).value


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
            gap = numeric_classical(*point) - classical_lower_analytic(cfg10(*point)).value
            if not -1e-6 <= gap <= 1e-11:
                errs.append(f"eta, s, T = {point}: numeric minus closed form {gap:.3e}")
        assert not errs, "\n".join(errs)

    def test_passive_modes_give_same_total(self):
        for s in valid_s_points(0.9)[::4]:
            passive = numeric_classical(0.9, s, 0.0, passive=True)
            assert passive == pytest.approx(numeric_classical(0.9, s, 0.0), abs=1e-9), s


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
        for s in (0.5, 1.5):
            cfg = ChannelConfig(n=10, eta=0.9, s=s, temp=0.0, nbar=8.0)
            assert maximize_quantum(cfg).value >= maximize_quantum_local(cfg).value - 1e-9

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


def sorted_nodes(rng, k, hi=40.0):
    return np.unique(np.concatenate(([0.0], rng.uniform(0.0, hi, k - 1))))


class TestPchipBridge:
    """The allocation bridge equals scipy's PchipInterpolator bit for bit."""

    @staticmethod
    def assert_matches_scipy(xs, ys):
        cubic = _FastCubic(list(xs), list(ys))
        reference = PchipInterpolator(xs, ys)
        assert cubic.breaks == reference.x.tolist()
        assert cubic.coefs == reference.c.T.tolist()

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
        # memo keys and values can be numpy scalars (from the linspace grids)
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
