"""Microseconds per call of the entropy kernels on seeded inputs.

Inputs are drawn from the region the optimizer visits: mode squeezing
|s_j| <= 30 (|s| <= 15 times chain eigenvalues below 2), T in [0, 5],
eta in [0.5, 0.95], photon numbers up to 64, and seeds (t, r, c_q, c_p)
that saturate or sit inside the energy constraint.  The kernels are called
through their defining modules, so the numbers survive a rewiring of the
optimizer's call sites; a kernel that no longer exists is reported absent.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

CALLS = 4000
REPEATS = 5

KERNELS = {
    "gaussian.g_entropy": ("gaussian", "g_entropy"),
    "information.chi_mode": ("information", "chi_mode"),
    "information.coherent_information": ("information", "coherent_information"),
    "information.quantum_mutual_information": ("information", "quantum_mutual_information"),
}


def _inputs(memchan, seed: int):
    rng = np.random.default_rng([seed, 7])
    args = []
    for _ in range(CALLS):
        nj = float(rng.uniform(0.0, 64.0))
        cap = nj + 0.5
        t = float(rng.uniform(0.0, 1.0)) * nj
        rmax = math.acosh(max(cap / (t + 0.5), 1.0))
        r = float(rng.uniform(-rmax, rmax))
        ctot = max(2.0 * (cap - (t + 0.5) * math.cosh(r)), 0.0)
        f = float(rng.uniform(0.0, 1.0))
        mode = memchan.GlobalEnvMode(0, float(rng.uniform(-30.0, 30.0)),
                                     float(rng.uniform(0.0, 5.0)))
        eta = float(rng.uniform(0.5, 0.95))
        args.append((t, r, f * ctot, (1.0 - f) * ctot, mode, eta, nj))
    return args


def run(memchan, seed: int) -> dict[str, float]:
    """Median over REPEATS of the mean µs per call, per kernel present."""
    args = _inputs(memchan, seed)
    calls = {
        "gaussian.g_entropy": lambda fn: [fn(a[6]) for a in args],
        "information.chi_mode": lambda fn: [fn(a[0], a[1], a[2], a[3], a[4], a[5]) for a in args],
        "information.coherent_information": lambda fn: [fn(a[0], a[1], a[4], a[5]) for a in args],
        "information.quantum_mutual_information":
            lambda fn: [fn(a[0], a[1], a[4], a[5]) for a in args],
    }
    out = {}
    for name, (module_name, attr) in KERNELS.items():
        fn = getattr(getattr(memchan, module_name, None), attr, None)
        if fn is None:
            continue
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            values = calls[name](fn)
            times.append((time.perf_counter() - t0) / len(values) * 1e6)
        out[f"{name}.us_per_call"] = statistics.median(times)
    return out
