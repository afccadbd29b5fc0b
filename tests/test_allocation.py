"""Water-filling allocator against closed-form, symmetry and per-mode oracles."""

import math

import numpy as np
import pytest

from memchan import allocation
from memchan.allocation import AllocationError, allocate_photons
from memchan.gaussian import g_entropy, g_prime
from memchan.optimize import _FastCubic

from reference_models import allocate_photons_full_walk, allocate_photons_per_entry


def weighted_total(alloc, weights):
    return math.fsum(w * x for w, x in zip(weights, alloc))


class TestBasicProperties:
    def test_identical_modes_split_evenly(self):
        # five equal but distinct functions, and one group of five modes
        alloc, _ = allocate_photons([lambda x: g_entropy(0.9 * x) for _ in range(5)], [1] * 5, 3.0)
        assert len(alloc) == 5
        assert np.allclose(alloc, 3.0, atol=1e-6)
        assert math.fsum(alloc) == pytest.approx(15.0, abs=1e-9)
        alloc, _ = allocate_photons([lambda x: g_entropy(0.9 * x)], [5], 3.0)
        assert alloc == [3.0]

    def test_budget_and_nonnegativity(self):
        fns = [
            lambda x: g_entropy(0.9 * x),
            lambda x: g_entropy(0.9 * x + 1.7),
            lambda x: 0.5 * g_entropy(0.3 * x + 0.2),
        ]
        for weights in ([1, 1, 1], [2, 1, 3]):
            alloc, _ = allocate_photons(fns, weights, 2.0)
            assert min(alloc) >= 0.0
            assert weighted_total(alloc, weights) == pytest.approx(2.0 * sum(weights), abs=1e-9)

    def test_integer_budget(self):
        alloc, _ = allocate_photons([lambda x: x] * 2, [1, 1], 8)
        assert alloc == allocate_photons([lambda x: x] * 2, [1, 1], 8.0)[0] == [8.0, 8.0]

    def test_zero_budget(self):
        alloc, info = allocate_photons([g_entropy] * 2, [1, 3], 0.0)
        assert alloc == [0.0, 0.0]
        assert not info["fallback"]

    def test_photons_are_builtin_floats(self):
        # on the water-filling, fallback and zero-budget paths, also for
        # numpy inputs and a value function that returns numpy scalars
        steep = lambda x: g_entropy(0.9 * x)  # noqa: E731
        cases = [
            ([steep, lambda x: g_entropy(0.9 * x + 1.0)], [3, 1], 2.0),
            ([steep, lambda x: np.float64(g_entropy(0.8 * x))], [np.int64(2), 2], np.float64(8.0)),
            ([lambda x: max(0.0, x - 2.0) ** 2, g_entropy], [1, 2], 3.0),
            ([steep], [4], np.float64(0.0)),
            ([steep], [np.int64(3)], np.float64(2.0)),  # one group takes the whole budget
            ([lambda x: 0.0] * 2, [1, 1], 1.0),  # every marginal 0 at the origin
        ]
        for fns, weights, nbar in cases:
            alloc, info = allocate_photons(fns, weights, nbar)
            assert type(alloc) is list
            assert [type(x) for x in alloc] == [float] * len(fns), (weights, nbar)


class TestClosedFormOracle:
    def test_two_mode_offset_channels(self):
        # maximize g(0.9 x1) + g(0.9 x2 + c) under x1 + x2 = 8: equal marginals
        # force 0.9 x1 = 0.9 x2 + c, so x1 - x2 = c / 0.9
        c = 1.35
        fns = [lambda x: g_entropy(0.9 * x), lambda x: g_entropy(0.9 * x + c)]
        alloc, _ = allocate_photons(fns, [1, 1], 4.0)
        want_x1 = (8.0 + c / 0.9) / 2.0
        assert alloc[0] == pytest.approx(want_x1, abs=1e-6)
        assert alloc[1] == pytest.approx(8.0 - want_x1, abs=1e-6)

    def test_weighted_offset_channels(self):
        # maximize 3 g(0.9 x1) + g(0.9 x2 + c) under 3 x1 + x2 = 16: the same
        # equal marginals give x1 = x2 + c / 0.9, so 4 x2 + 3 c / 0.9 = 16
        c = 1.35
        fns = [lambda x: g_entropy(0.9 * x), lambda x: g_entropy(0.9 * x + c)]
        alloc, _ = allocate_photons(fns, [3, 1], 4.0)
        want_x2 = (16.0 - 3.0 * c / 0.9) / 4.0
        assert alloc[0] == pytest.approx(want_x2 + c / 0.9, abs=1e-6)
        assert alloc[1] == pytest.approx(want_x2, abs=1e-6)

    def test_marginals_equalize_at_interior_optimum(self):
        offsets = [0.0, 0.4, 1.1, 2.0]
        fns = [lambda x, c=c: g_entropy(0.8 * x + c) for c in offsets]
        alloc, _ = allocate_photons(fns, [1, 2, 1, 3], 5.0)
        marginals = [0.8 * g_prime(0.8 * x + c) for x, c in zip(alloc, offsets)]
        assert np.ptp(marginals) < 1e-6

    def test_weak_mode_is_starved(self):
        # a nearly flat mode should receive (almost) nothing
        fns = [lambda x: g_entropy(0.9 * x), lambda x: 1e-6 * math.tanh(x)]
        alloc, _ = allocate_photons(fns, [1, 1], 3.0)
        assert alloc[0] == pytest.approx(6.0, abs=1e-5)
        assert alloc[1] == pytest.approx(0.0, abs=1e-5)


class TestInfoAndErrors:
    def test_info_concave_path(self):
        alloc, info = allocate_photons([lambda x: g_entropy(0.9 * x)] * 2, [1, 2], 2.0)
        assert not info["fallback"]
        assert info["mu"] > 0.0
        assert weighted_total(alloc, [1, 2]) == pytest.approx(6.0, abs=1e-9)

    def test_nonconcave_falls_back_but_allocates(self):
        # a convex kink defeats the water-filling screen
        fns = [lambda x: max(0.0, x - 2.0) ** 2, lambda x: g_entropy(x)]
        for weights in ([1, 1], [2, 1]):
            alloc, info = allocate_photons(fns, weights, 3.0)
            assert info["fallback"]
            assert alloc == [3.0, 3.0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(AllocationError):
            allocate_photons([], [], 1.0)
        with pytest.raises(AllocationError):
            allocate_photons([lambda x: x] * 2, [1, 1], -1.0)
        for nbar in (math.nan, math.inf):
            with pytest.raises(AllocationError):
                allocate_photons([lambda x: x] * 2, [1, 1], nbar)
        # one weight per function
        for weights in ([1], [1, 1, 1], []):
            with pytest.raises(AllocationError):
                allocate_photons([lambda x: x] * 2, weights, 1.0)
        # each weight a positive integer, and a bool is not one
        for bad in (0, -1, 1.5, 2.0, True, False, None, "2", math.nan):
            with pytest.raises(AllocationError):
                allocate_photons([lambda x: x] * 2, [1, bad], 1.0)


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


ORACLE_CASES = ["shared", "equal-closures", "mixed", "uneven", "fallback", "clip-edges"]


def _oracle_case(case):
    """(fns, weights) of a named case."""
    a, b = _cubic(0.9, 0.0), _cubic(0.8, 0.7)
    return {
        # one cubic per normal-mode group, as the optimizer passes them
        "shared": ([a, b], [5, 5]),
        "equal-closures": ([lambda x: g_entropy(0.9 * x + 0.3) for _ in range(6)], [1] * 6),
        "mixed": ([a, b, lambda x: g_entropy(0.7 * x)], [3, 2, 1]),
        "uneven": ([a, b], [1, 31]),
        "fallback": ([_kink, g_entropy], [2, 2]),
        "clip-edges": ([_starved(), a], [1, 1]),
    }[case]


class TestPerModeOracle:
    """Groups with weights give what the per-mode list of the same functions gives."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_per_entry_oracle(self, case):
        fns, weights = _oracle_case(case)
        per_mode = [fn for fn, w in zip(fns, weights) for _ in range(w)]
        for nbar in (0.5, 3.0, 8.0):
            budget = sum(weights) * nbar
            alloc, info = allocate_photons(fns, weights, nbar)
            want, want_info = allocate_photons_per_entry(per_mode, nbar, return_info=True)
            got = [x for x, w in zip(alloc, weights) for _ in range(w)]
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * budget, (case, nbar)
            assert info["fallback"] == want_info["fallback"] == (case == "fallback")

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
        alloc, _ = allocate_photons([_starved(), _cubic(0.9, 0.0)], [1, 1], 3.0)
        assert 0.0 < alloc[0] < 1e-6
        assert any(0.0 < x < h for x, _, h in probes)
        assert any(x < budget <= x + h for x, budget, h in probes)


def _random_case(rng):
    """1 to 8 groups with weights in {1, 2, 5, 31} and nbar from 1e-5 to 1e6.

    The value functions are PCHIP cubics on the optimizer's node grid, g
    closures, convex kinks (which the concavity screen rejects) and tanh
    functions that starve beside a steep one.
    """
    weights = [int(rng.choice([1, 2, 5, 31])) for _ in range(int(rng.integers(1, 9)))]
    nbar = float(10.0 ** rng.uniform(-5.0, 6.0))
    budget = sum(weights) * nbar
    grid = sorted({0.0, budget, *(budget * (i / 12.0) ** 1.6 for i in range(1, 12)),
                   *rng.uniform(0.0, budget, int(rng.integers(0, 7)))})
    fns = []
    for _ in weights:
        eta, offset, scale = rng.uniform(0.05, 1.0), rng.choice([0.0, rng.uniform(0.0, 5.0)]), rng.choice([1.0, 1e-3])
        kind = rng.choice(["cubic", "cubic", "cubic", "closure", "kink", "starved"])
        if kind == "cubic":
            fns.append(_FastCubic(grid, [scale * g_entropy(eta * x + offset) for x in grid]))
        elif kind == "closure":
            fns.append(lambda x, eta=eta, offset=offset: g_entropy(eta * x + offset))
        elif kind == "kink":
            fns.append(lambda x, c=rng.uniform(0.0, budget): max(0.0, x - c) ** 2)
        else:
            fns.append(lambda x, a=10.0 ** rng.uniform(-9.0, -5.0): 2.0 * a * math.tanh(x / a))
    return fns, weights, nbar


def _counted(fns):
    """The functions wrapped to count their calls, and the list of counts."""
    calls = [0] * len(fns)

    def wrap(g, fn):
        def counted(x):
            calls[g] += 1
            return fn(x)
        return counted

    return [wrap(g, fn) for g, fn in enumerate(fns)], calls


class TestFullWalkOracle:
    """Deciding each water-level step from brackets changes no bit of the result.

    One group that water-fills takes the whole budget without a search; the
    full walk's bisection lands within an ulp of it.
    """

    @staticmethod
    def _dump(result):
        alloc, info = result
        return [x.hex() for x in alloc], info["mu"].hex(), info["fallback"]

    def test_random_inputs_match_bit_for_bit(self):
        rng = np.random.default_rng(35)
        one_group = 0
        for case in range(300):
            fns, weights, nbar = _random_case(rng)
            got = allocate_photons(fns, weights, nbar)
            want = allocate_photons_full_walk(fns, weights, nbar)
            if len(weights) > 1 or want[1]["fallback"]:
                assert self._dump(got) == self._dump(want), case
                continue
            one_group += 1
            (x,), info = got
            (want_x,), want_info = want
            assert x == float(nbar) and weights[0] * x == sum(weights) * float(nbar), case
            assert info["fallback"] is want_info["fallback"] is False, case
            assert abs(want_x - nbar) <= math.ulp(nbar), case
            assert abs(info["mu"] - want_info["mu"]) <= 1e-9 * (1.0 + abs(want_info["mu"])), case
        assert one_group > 0

    def test_one_group_runs_no_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(allocation, "_walk", walk)
        rng = np.random.default_rng(35)
        for case in range(300):
            fns, weights, nbar = _random_case(rng)
            if len(weights) == 1:
                allocate_photons(fns, weights, nbar)
        for weights in ([1], [2], [31]):
            alloc, info = allocate_photons([_cubic(0.9, 0.0)], weights, 8.0)
            assert alloc == [8.0] and not info["fallback"]
        with pytest.raises(AssertionError, match="walked"):  # two groups do walk
            allocate_photons(*_oracle_case("shared"), 8.0)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_named_cases_match_bit_for_bit(self, case):
        fns, weights = _oracle_case(case)
        for nbar in (1e-5, 0.5, 3.0, 8.0, 1e6):
            got = self._dump(allocate_photons(fns, weights, nbar))
            assert got == self._dump(allocate_photons_full_walk(fns, weights, nbar)), nbar

    def test_extreme_budgets_match(self):
        # subnormal budgets, and budgets where budget + budget or the totals overflow
        fns = [lambda x: math.log1p(x / 1e300), lambda x: math.log1p(x / 3e300)]
        # the full walk raises OverflowError from fsum here, or returns [0.0, 0.0]
        # at [1, 2] and N = 5e307, spending none of the budget
        overflowing = {(1, 2): (2e307, 5e307), (1, 1): (5e307,)}
        for weights in ([1], [3], [1, 2], [1, 1]):
            for nbar in (5e-324, 1e-310, 2e307, 5e307, 1.5e308):
                args = fns[:len(weights)], weights, nbar
                if nbar in overflowing.get(tuple(weights), ()):
                    with pytest.raises(AllocationError, match="overflow"):
                        allocate_photons(*args)
                elif len(weights) == 1:
                    # the full walk returns [0.0] at [3] and N = 2e307 or 5e307
                    alloc, info = allocate_photons(*args)
                    assert alloc == [nbar], (weights, nbar)
                    assert info["fallback"] == allocate_photons_full_walk(*args)[1]["fallback"]
                else:
                    got, want = (self._dump(allocate(*args))
                                 for allocate in (allocate_photons, allocate_photons_full_walk))
                    assert got == want, (weights, nbar)

    def test_probes_a_quarter_of_the_full_walk(self):
        fns, weights = _oracle_case("shared")
        counted, calls = _counted(fns)
        allocate_photons(counted, weights, 8.0)
        full_counted, full_calls = _counted(fns)
        allocate_photons_full_walk(full_counted, weights, 8.0)
        assert 4 * sum(calls) <= sum(full_calls), (calls, full_calls)
