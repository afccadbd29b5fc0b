"""Water-filling allocator against closed-form and symmetry oracles."""

import math

import numpy as np
import pytest

from memchan import allocation
from memchan.allocation import AllocationError, allocate_photons
from memchan.gaussian import g_entropy, g_prime
from memchan.optimize import _FastCubic

from reference_models import allocate_photons_per_entry


class TestBasicProperties:
    def test_identical_modes_split_evenly(self):
        alloc = allocate_photons([lambda x: g_entropy(0.9 * x)] * 5, 3.0)
        assert alloc.shape == (5,)
        assert np.allclose(alloc, 3.0, atol=1e-6)
        assert math.fsum(alloc) == pytest.approx(15.0, abs=1e-9)

    def test_budget_and_nonnegativity(self):
        fns = [
            lambda x: g_entropy(0.9 * x),
            lambda x: g_entropy(0.9 * x + 1.7),
            lambda x: 0.5 * g_entropy(0.3 * x + 0.2),
        ]
        alloc = allocate_photons(fns, 2.0)
        assert np.all(alloc >= 0.0)
        assert math.fsum(alloc) == pytest.approx(6.0, abs=1e-9)

    def test_integer_budget(self):
        # an int budget must not give an int64 allocation, which cannot be rescaled in place
        alloc = allocate_photons([lambda x: x] * 2, 8)
        assert alloc.dtype == np.float64
        assert alloc.tolist() == allocate_photons([lambda x: x] * 2, 8.0).tolist() == [8.0, 8.0]

    def test_zero_budget(self):
        alloc = allocate_photons([g_entropy] * 4, 0.0)
        assert np.array_equal(alloc, np.zeros(4))


class TestClosedFormOracle:
    def test_two_mode_offset_channels(self):
        # maximize g(0.9 x1) + g(0.9 x2 + c) under x1 + x2 = 8: equal marginals
        # force 0.9 x1 = 0.9 x2 + c, so x1 - x2 = c / 0.9
        c = 1.35
        fns = [lambda x: g_entropy(0.9 * x), lambda x: g_entropy(0.9 * x + c)]
        alloc = allocate_photons(fns, 4.0)
        want_x1 = (8.0 + c / 0.9) / 2.0
        assert alloc[0] == pytest.approx(want_x1, abs=1e-6)
        assert alloc[1] == pytest.approx(8.0 - want_x1, abs=1e-6)

    def test_marginals_equalize_at_interior_optimum(self):
        offsets = [0.0, 0.4, 1.1, 2.0]
        fns = [lambda x, c=c: g_entropy(0.8 * x + c) for c in offsets]
        alloc = allocate_photons(fns, 5.0)
        marginals = [0.8 * g_prime(0.8 * x + c) for x, c in zip(alloc, offsets)]
        assert np.ptp(marginals) < 1e-6

    def test_weak_mode_is_starved(self):
        # a nearly flat mode should receive (almost) nothing
        fns = [lambda x: g_entropy(0.9 * x), lambda x: 1e-6 * math.tanh(x)]
        alloc = allocate_photons(fns, 3.0)
        assert alloc[0] == pytest.approx(6.0, abs=1e-5)
        assert alloc[1] == pytest.approx(0.0, abs=1e-5)


class TestInfoAndErrors:
    def test_return_info_concave_path(self):
        alloc, info = allocate_photons(
            [lambda x: g_entropy(0.9 * x)] * 3, 2.0, return_info=True
        )
        assert not info["fallback"]
        assert info["mu"] > 0.0
        assert math.fsum(alloc) == pytest.approx(6.0, abs=1e-9)

    def test_nonconcave_falls_back_but_allocates(self):
        # a convex kink defeats the water-filling screen
        fns = [lambda x: max(0.0, x - 2.0) ** 2, lambda x: g_entropy(x)]
        alloc, info = allocate_photons(fns, 3.0, return_info=True)
        assert info["fallback"]
        assert alloc.tolist() == [3.0, 3.0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(AllocationError):
            allocate_photons([], 1.0)
        with pytest.raises(AllocationError):
            allocate_photons([lambda x: x] * 2, -1.0)
        for nbar in (math.nan, math.inf):
            with pytest.raises(AllocationError):
                allocate_photons([lambda x: x] * 2, nbar)


def _cubic(eta, offset):
    xs = [24.0 * (i / 12.0) ** 1.6 for i in range(13)]
    return _FastCubic(xs, [g_entropy(eta * x + offset) for x in xs])


def _kink(x):
    return max(0.0, x - 1.0) ** 2


def _starved():
    # nearly flat beyond 1e-7, so beside a steep cubic it gets a few 1e-7 photons:
    # the bisection probes x < h on it, and x + h >= budget on the steep one
    xs = [0.0] + [1e-7 * 2.0 ** k for k in range(28)] + [24.0]
    return _FastCubic(xs, [2e-7 * math.tanh(x / 1e-7) for x in xs])


class _Unhashable:
    """Defines __eq__ without __hash__, so instances cannot be dict keys."""

    def __init__(self, offset):
        self.offset = offset

    def __eq__(self, other):
        return isinstance(other, _Unhashable) and other.offset == self.offset

    def __call__(self, x):
        return g_entropy(0.9 * x + self.offset)


class TestSharedWork:
    """Entries that are one object are evaluated once, with the same bits as evaluating each."""

    @pytest.mark.parametrize("case", ["shared", "equal-closures", "mixed", "fallback", "unhashable",
                                      "clip-edges"])
    def test_matches_per_entry_oracle(self, case):
        a, b = _cubic(0.9, 0.0), _cubic(0.8, 0.7)
        fns = {
            # one cubic per normal-mode group, as the optimizer passes them
            "shared": [a] * 5 + [b] * 5,
            "equal-closures": [lambda x: g_entropy(0.9 * x + 0.3) for _ in range(6)],
            "mixed": [a, b, a, lambda x: g_entropy(0.7 * x), b, a],
            "fallback": [_kink, g_entropy, _kink, g_entropy],
            "unhashable": [_Unhashable(0.2)] * 3 + [_Unhashable(0.2), _Unhashable(0.5)],
            "clip-edges": [_starved(), a],
        }[case]
        for nbar in (0.5, 3.0, 8.0):
            alloc, info = allocate_photons(fns, nbar, return_info=True)
            want, want_info = allocate_photons_per_entry(fns, nbar, return_info=True)
            assert alloc.tolist() == want.tolist(), (case, nbar)
            assert info["mu"] == want_info["mu"] and info["fallback"] == want_info["fallback"]
            assert info["fallback"] == (case == "fallback")

    def test_clip_edges_are_probed(self, monkeypatch):
        # the "clip-edges" case above reaches both ends of the probe interval's clip
        probes = []
        memoized = allocation._memoized_marginal

        def recording(fn, budget, h):
            marginal = memoized(fn, budget, h)

            def probe(x):
                probes.append((x, budget, h))
                return marginal(x)

            return probe

        monkeypatch.setattr(allocation, "_memoized_marginal", recording)
        alloc = allocate_photons([_starved(), _cubic(0.9, 0.0)], 3.0)
        assert 0.0 < alloc[0] < 1e-6
        assert any(0.0 < x < h for x, _, h in probes)
        assert any(x < budget <= x + h for x, budget, h in probes)

    def test_unhashable_callable_allocates(self):
        fn = _Unhashable(0.2)
        with pytest.raises(TypeError):
            hash(fn)
        alloc = allocate_photons([fn] * 4, 2.0)
        assert np.allclose(alloc, 2.0, atol=1e-6)

    def test_shared_function_runs_a_tenth_as_often(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return g_entropy(0.9 * x)

        allocate_photons_per_entry([f] * 10, 3.0)
        per_entry, calls[0] = calls[0], 0
        allocate_photons([f] * 10, 3.0)
        assert 10 * calls[0] <= per_entry
