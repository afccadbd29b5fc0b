"""Water-filling allocator against closed-form and symmetry oracles."""

import math

import numpy as np
import pytest

from memchan.allocation import AllocationError, allocate_photons
from memchan.gaussian import g_entropy, g_prime


class TestBasicProperties:
    def test_identical_modes_split_evenly(self):
        alloc = allocate_photons([lambda x: g_entropy(0.9 * x)] * 5, 5, 3.0)
        assert alloc.shape == (5,)
        assert np.allclose(alloc, 3.0, atol=1e-6)
        assert math.fsum(alloc) == pytest.approx(15.0, abs=1e-9)

    def test_budget_and_nonnegativity(self):
        fns = [
            lambda x: g_entropy(0.9 * x),
            lambda x: g_entropy(0.9 * x + 1.7),
            lambda x: 0.5 * g_entropy(0.3 * x + 0.2),
        ]
        alloc = allocate_photons(fns, 3, 2.0)
        assert np.all(alloc >= 0.0)
        assert math.fsum(alloc) == pytest.approx(6.0, abs=1e-9)

    def test_zero_budget(self):
        alloc = allocate_photons([g_entropy] * 4, 4, 0.0)
        assert np.array_equal(alloc, np.zeros(4))


class TestClosedFormOracle:
    def test_two_mode_offset_channels(self):
        # maximize g(0.9 x1) + g(0.9 x2 + c) under x1 + x2 = 8: equal marginals
        # force 0.9 x1 = 0.9 x2 + c, so x1 - x2 = c / 0.9
        c = 1.35
        fns = [lambda x: g_entropy(0.9 * x), lambda x: g_entropy(0.9 * x + c)]
        alloc = allocate_photons(fns, 2, 4.0)
        want_x1 = (8.0 + c / 0.9) / 2.0
        assert alloc[0] == pytest.approx(want_x1, abs=1e-6)
        assert alloc[1] == pytest.approx(8.0 - want_x1, abs=1e-6)

    def test_marginals_equalize_at_interior_optimum(self):
        offsets = [0.0, 0.4, 1.1, 2.0]
        fns = [lambda x, c=c: g_entropy(0.8 * x + c) for c in offsets]
        alloc = allocate_photons(fns, 4, 5.0)
        marginals = [0.8 * g_prime(0.8 * x + c) for x, c in zip(alloc, offsets)]
        assert np.ptp(marginals) < 1e-6

    def test_weak_mode_is_starved(self):
        # a nearly flat mode should receive (almost) nothing
        fns = [lambda x: g_entropy(0.9 * x), lambda x: 1e-6 * math.tanh(x)]
        alloc = allocate_photons(fns, 2, 3.0)
        assert alloc[0] == pytest.approx(6.0, abs=1e-5)
        assert alloc[1] == pytest.approx(0.0, abs=1e-5)


class TestInfoAndErrors:
    def test_return_info_concave_path(self):
        alloc, info = allocate_photons(
            [lambda x: g_entropy(0.9 * x)] * 3, 3, 2.0, return_info=True
        )
        assert not info["fallback"]
        assert info["mu"] > 0.0
        assert math.fsum(alloc) == pytest.approx(6.0, abs=1e-9)

    def test_nonconcave_falls_back_but_allocates(self):
        # a convex kink defeats the water-filling screen
        fns = [lambda x: max(0.0, x - 2.0) ** 2, lambda x: g_entropy(x)]
        alloc, info = allocate_photons(fns, 2, 3.0, return_info=True)
        assert info["fallback"]
        assert math.fsum(alloc) == pytest.approx(6.0, abs=1e-6)
        assert np.all(alloc >= -1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(AllocationError):
            allocate_photons([], 0, 1.0)
        with pytest.raises(AllocationError):
            allocate_photons([lambda x: x] * 2, 2, -1.0)
        with pytest.raises(AllocationError):
            allocate_photons([lambda x: x], 2, 1.0)
