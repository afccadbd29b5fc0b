"""Entropy helpers and symplectic machinery against independent references."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.linalg import expm

from memchan.gaussian import (
    TwoModeCov,
    UnphysicalStateError,
    g_entropy,
    g_prime,
    interleaved_to_block,
    ppt_min_symplectic,
    purify_single_mode,
    reduce_to_mode,
    symplectic_eigenvalues,
    symplectic_form,
    von_neumann_entropy,
)

getcontext().prec = 50

# 40-digit reference values
G_OF_8 = 4.529325012980811266
G_OF_7P2 = 4.386538332596274923


def g_reference(x):
    """Textbook form of g evaluated in 50-digit decimal arithmetic."""
    if x == 0.0:
        return 0.0
    d = Decimal(repr(x))
    ln2 = Decimal(2).ln()
    return float(((d + 1) * (d + 1).ln() - d * d.ln()) / ln2)


def random_symplectic(rng, m):
    """exp(K) with K in the symplectic Lie algebra: K = Omega R, R symmetric."""
    r = rng.normal(size=(2 * m, 2 * m))
    r = 0.35 * (r + r.T)
    return expm(symplectic_form(m) @ r)


class TestGEntropy:
    def test_known_values(self):
        assert g_entropy(0.0) == 0.0
        assert g_entropy(1.0) == pytest.approx(2.0, abs=1e-14)
        assert g_entropy(8.0) == pytest.approx(G_OF_8, abs=1e-13)
        assert g_entropy(7.2) == pytest.approx(G_OF_7P2, abs=1e-13)

    def test_matches_decimal_reference(self):
        for x in (1e-14, 1e-9, 1e-4, 0.03, 0.5, 1.0, 3.7, 8.0, 123.0, 1e6):
            assert g_entropy(x) == pytest.approx(g_reference(x), rel=1e-12)

    def test_roundoff_clamp_and_rejection(self):
        assert g_entropy(-1e-12) == 0.0
        with pytest.raises(ValueError):
            g_entropy(-1e-6)

    def test_monotone_and_concave_increments(self):
        xs = np.linspace(0.0, 12.0, 200)
        vals = [g_entropy(x) for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) < 0)


class TestGPrime:
    def test_closed_form(self):
        for x in (1e-6, 0.2, 1.0, 8.0, 500.0):
            d = Decimal(repr(x))
            ref = float((1 + 1 / d).ln() / Decimal(2).ln())
            assert g_prime(x) == pytest.approx(ref, rel=1e-13)

    def test_matches_finite_difference(self):
        for x in (0.05, 0.9, 4.0, 30.0):
            h = 1e-6 * x
            fd = (g_entropy(x + h) - g_entropy(x - h)) / (2 * h)
            assert g_prime(x) == pytest.approx(fd, rel=1e-7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            g_prime(0.0)
        with pytest.raises(ValueError):
            g_prime(-0.3)


class TestContainers:
    def test_single_mode_matrix_and_nu(self):
        # squeezed thermal state (t, r) = (0.7, 0.4): nu = t + 1/2
        mat = np.diag([1.2 * math.exp(0.4), 1.2 * math.exp(-0.4)])
        nus = symplectic_eigenvalues(mat)
        assert nus[0] == pytest.approx(1.2, rel=1e-12)

    def test_two_mode_matrix_layout(self):
        a = np.array([[2.0, 0.1], [0.1, 1.5]])
        b = np.array([[1.1, 0.0], [0.0, 0.9]])
        c = np.array([[0.3, 0.0], [0.0, -0.3]])
        mat = TwoModeCov(a, b, c).matrix()
        assert np.allclose(mat[:2, :2], a)
        assert np.allclose(mat[2:, 2:], b)
        assert np.allclose(mat[2:, :2], c)
        assert np.allclose(mat, mat.T)

    def test_two_mode_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            TwoModeCov(np.eye(3), np.eye(2), np.zeros((2, 2)))


class TestOrderings:
    def test_interleaved_to_block_indexing(self):
        # entry (q1, p2) must move from [0, 3] to [0, 1 + m]
        mat = np.zeros((4, 4))
        mat[0, 3] = mat[3, 0] = 0.7
        blk = interleaved_to_block(mat)
        assert blk[0, 3] == 0.7

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            interleaved_to_block(np.eye(3))

    def test_reduce_to_mode(self):
        cov = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # q1 q2 q3 p1 p2 p3
        marg = reduce_to_mode(cov, 2)
        assert np.allclose(marg, np.diag([2.0, 5.0]))
        with pytest.raises(ValueError):
            reduce_to_mode(cov, 0)
        with pytest.raises(ValueError):
            reduce_to_mode(cov, 4)


class TestSymplecticEigenvalues:
    def test_planted_spectrum_under_symplectic_conjugation(self):
        rng = np.random.default_rng(11)
        for m in range(1, 11):
            nus = np.sort(rng.uniform(0.5, 4.0, size=m))[::-1]
            d = np.diag(np.concatenate([nus, nus]))
            s = random_symplectic(rng, m)
            cov = s @ d @ s.T
            got = symplectic_eigenvalues(cov)
            assert np.max(np.abs(got - nus)) < 1e-9

    def test_matches_complex_eigensolve(self):
        rng = np.random.default_rng(12)
        for m in (1, 2, 3, 5, 8, 10):
            nus = np.sort(rng.uniform(0.5, 3.0, size=m))[::-1]
            s = random_symplectic(rng, m)
            cov = s @ np.diag(np.concatenate([nus, nus])) @ s.T
            # independent route: eigenvalues of Omega cov come in +-i nu pairs
            ev = np.linalg.eigvals(symplectic_form(m) @ cov)
            ref = np.sort(np.abs(ev.imag))[::-1][::2]
            got = symplectic_eigenvalues(cov)
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            symplectic_eigenvalues(np.eye(3))
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            symplectic_eigenvalues(bad)
        with pytest.raises(UnphysicalStateError):
            symplectic_eigenvalues(0.4 * np.eye(4))
        nus = symplectic_eigenvalues(0.4 * np.eye(4), check=False)
        assert np.allclose(nus, [0.4, 0.4])


class TestEntropy:
    def test_thermal_product(self):
        ts = [0.0, 0.3, 2.0]
        cov = np.diag([t + 0.5 for t in ts] * 2)
        want = sum(g_entropy(t) for t in ts)
        assert von_neumann_entropy(cov) == pytest.approx(want, abs=1e-12)

    def test_invariant_under_symplectic(self):
        rng = np.random.default_rng(4)
        cov = np.diag([1.7, 0.9, 1.7, 0.9])
        s = random_symplectic(rng, 2)
        assert von_neumann_entropy(s @ cov @ s.T) == pytest.approx(
            von_neumann_entropy(cov), abs=1e-10
        )

    def test_vacuum_is_zero(self):
        assert von_neumann_entropy(0.5 * np.eye(6)) == 0.0


class TestPurification:
    def test_marginal_and_purity(self):
        for t, r in ((0.0, 0.0), (0.8, 0.0), (0.0, 1.1), (2.5, -0.7)):
            pur = purify_single_mode(t, r)
            want = np.diag([(t + 0.5) * math.exp(r), (t + 0.5) * math.exp(-r)])
            assert np.allclose(pur.a, want, atol=1e-12)
            nus = pur.symplectic_eigenvalues()
            assert np.max(np.abs(nus - 0.5)) < 1e-12

    def test_entanglement_entropy_equals_input_entropy(self):
        t, r = 1.4, 0.6
        pur = purify_single_mode(t, r)
        blk = interleaved_to_block(pur.matrix())
        partner = reduce_to_mode(blk, 2)
        assert von_neumann_entropy(partner) == pytest.approx(g_entropy(t), abs=1e-10)


class TestPPT:
    def test_two_mode_squeezed_thermal(self):
        # purification of a thermal state: nu_tilde = v - sqrt(v^2 - 1/4)
        for t in (0.2, 0.5, 3.0):
            v = t + 0.5
            pur = purify_single_mode(t, 0.0)
            want = v - math.sqrt(v * v - 0.25)
            assert ppt_min_symplectic(pur) == pytest.approx(want, abs=1e-12)

    def test_product_state_stays_separable(self):
        prod = TwoModeCov(np.diag([0.9, 0.9]), np.diag([1.4, 1.4]), np.zeros((2, 2)))
        assert ppt_min_symplectic(prod) >= 0.5

    def test_rejects_unphysical_input(self):
        with pytest.raises(UnphysicalStateError):
            ppt_min_symplectic(TwoModeCov(0.3 * np.eye(2), np.eye(2), np.zeros((2, 2))))
