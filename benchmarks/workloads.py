"""Seeded workload inputs and the closed-loop operation runner.

A point workload is a list of blocks.  Every block holds the same mix of
block sizes n and quantities; the continuous parameters (s, T, eta) come
from a low-discrepancy design that the seed jitters slightly, so that runs
with different seeds evaluate different points but do the same work.  The
number of blocks is fixed by the requested run length and the block's
nominal cost on the reference machine, so a run does a fixed amount of
work and its wall time compares across commits.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

NBAR = 8.0

# Nominal seconds per block on the reference machine (2-core Xeon, Python
# 3.11, while the shared host ran fast); only used to turn --seconds into a
# block count.
NOMINAL_BLOCK_S = {"correlated": 8.7, "memoryless": 7.3}

POINT_QUANTITIES = {
    "correlated": ("classical", "quantum", "ent-assisted"),
    "memoryless": (
        "classical",
        "quantum",
        "ent-assisted",
        "quantum-local",
        "ent-assisted-local",
        "classical-local",
    ),
}

# quantity -> (module, function); looked up at call time so a traced run
# sees the wrapped functions
ENTRY_POINTS = {
    "classical": ("optimize", "maximize_classical"),
    "quantum": ("optimize", "maximize_quantum"),
    "ent-assisted": ("optimize", "maximize_ent_assisted"),
    "quantum-local": ("optimize", "maximize_quantum_local"),
    "ent-assisted-local": ("optimize", "maximize_ent_assisted_local"),
    "classical-local": ("analytic", "local_classical_lower"),
}

# Figure workload: the full figure set at a reduced grid.  At --s-steps 2
# every panel keeps its eta and T grids and evaluates s = 0 and s = 3.
FIGURE_S_STEPS = 2


@dataclass(frozen=True)
class Point:
    n: int
    eta: float
    s: float
    temp: float
    nbar: float = NBAR

    def key(self) -> list:
        return [self.n, self.eta, self.s, self.temp, self.nbar]


def block_count(workload: str, seconds: float) -> int:
    """The most blocks that fit in ``seconds`` at the nominal cost, rounded
    down to a power of two, where the base-2 coordinate of the Halton design
    below is evenly stratified; at least one."""
    return 2 ** max(0, math.floor(math.log2(max(seconds / NOMINAL_BLOCK_S[workload], 1.0))))


# Block layouts: the block sizes n of the points in one block, in order.
# correlated is mostly n=10, with two n=2 points and one n=32 point.  The
# n=32 point's three evaluations are the slowest of the block; keeping them
# fewer than the 10 operations beyond the tail percentile puts that
# percentile inside the dense cluster of slow n=10 evaluations, where it is
# steady, instead of on the gap between n=10 and n=32 costs.
_LAYOUT = {
    "correlated": (10, 10, 2, 10, 10, 32, 10, 10, 2, 10, 10, 10),
    "memoryless": (16, 32, 64),
}
_S_RANGE = {"correlated": (-15.0, 15.0), "memoryless": (0.0, 0.0)}
WORKLOADS_ID = {"correlated": 0, "memoryless": 1}
JITTER = 0.02


def _radical_inverse(i: int, base: int) -> float:
    scale, out = 1.0, 0.0
    while i:
        scale /= base
        out += scale * (i % base)
        i //= base
    return out


def _design(seed: int, workload: str, n: int, count: int) -> list[tuple[float, float, float]]:
    """``count`` points in [0, 1]^3: a Halton sequence, each point moved by a
    small seeded jitter.

    The Halton sequence, under a shift fixed per workload and block size,
    spreads (T, eta, s) evenly over their ranges.  The seed moves every
    point by at most ``JITTER`` of each range, reflected at the ends, so
    seeds give different inputs but the same mix of cheap and expensive
    points: near a point the optimizer does the same work, while over the
    whole range the cost of one point varies more than tenfold (an n=32
    quantum point costs 0.2 to 5 s).  The design for fewer blocks is a
    prefix of the design for more.
    """
    shift = np.random.default_rng([WORKLOADS_ID[workload], n]).random(3)
    jitter = np.random.default_rng([seed, WORKLOADS_ID[workload], n]).uniform(
        -JITTER, JITTER, (count, 3))
    points = []
    for i in range(count):
        coords = []
        for d, base in enumerate((2, 3, 5)):
            u = (_radical_inverse(i, base) + shift[d]) % 1.0 + float(jitter[i, d])
            coords.append(-u if u < 0.0 else 2.0 - u if u > 1.0 else u)
        points.append(tuple(coords))
    return points


def point_ops(workload: str, seed: int, blocks: int) -> list[tuple[Point, str]]:
    """The ordered (point, quantity) operations of a point workload."""
    layout = _LAYOUT[workload]
    s_lo, s_hi = _S_RANGE[workload]
    designs = {n: iter(_design(seed, workload, n, blocks * layout.count(n))) for n in set(layout)}
    ops = []
    for _ in range(blocks):
        for n in layout:
            u_t, u_eta, u_s = next(designs[n])
            point = Point(n, 0.5 + 0.45 * float(u_eta), s_lo + (s_hi - s_lo) * float(u_s),
                          5.0 * float(u_t))
            ops.extend((point, quantity) for quantity in POINT_QUANTITIES[workload])
    return ops


@dataclass
class OpRecord:
    point: Point
    quantity: str
    ms: float
    value: float = math.nan
    converged: bool = True
    iterations: int = 0
    error: str | None = None
    failed: str | None = None  # reason, when the op raised or failed a check


def run_point_ops(memchan, ops, on_op=None) -> tuple[list[OpRecord], float]:
    """Evaluate ops one after another; returns records and wall seconds.

    ``on_op`` is an optional context-manager factory wrapped around each
    operation (the traced run opens its root span there).
    """
    records = []
    wall0 = time.perf_counter()
    for point, quantity in ops:
        module_name, func_name = ENTRY_POINTS[quantity]
        func = getattr(getattr(memchan, module_name), func_name)
        cfg = memchan.ChannelConfig(n=point.n, eta=point.eta, s=point.s,
                                    temp=point.temp, nbar=point.nbar)
        ctx = on_op() if on_op is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                res = func(cfg)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            ms = (time.perf_counter() - t0) * 1e3
            records.append(OpRecord(point, quantity, ms, error=f"{type(exc).__name__}: {exc}",
                                    failed="raised"))
            continue
        ms = (time.perf_counter() - t0) * 1e3
        if isinstance(res, float):
            records.append(OpRecord(point, quantity, ms, value=res))
        else:
            records.append(OpRecord(point, quantity, ms, value=float(res.value),
                                    converged=bool(res.converged),
                                    iterations=int(res.iterations)))
    return records, time.perf_counter() - wall0


def warm_up(memchan) -> None:
    """One small evaluation so lazy set-up is paid before timing starts."""
    memchan.optimize.maximize_classical(memchan.ChannelConfig(n=2, eta=0.9, s=0.5, temp=0.0,
                                                             nbar=NBAR))
