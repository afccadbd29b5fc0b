"""Deterministic parameter scans and figure-data emission.

A scan evaluates one quantity on a cartesian (eta, T, s) grid at fixed
(n, N) and yields one row per grid point.  Rows are plain dicts with a
fixed column set so they serialize identically to CSV and JSON; all float
payloads are rounded to 12 significant digits at the output boundary,
making reruns byte-identical regardless of parallelism degree.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import classical_lower_analytic, classical_upper_bound, local_classical_lower
from .channel import MAX_ABS_S, MAX_TEMP, ChannelConfig, omega_spectrum
from .entanglement import SeedState, env_min_ppt_symplectic, env_separability_scan, mean_reduced_entropy
from .optimize import (
    maximize_classical,
    maximize_ent_assisted,
    maximize_ent_assisted_local,
    maximize_quantum,
    maximize_quantum_local,
)

__all__ = ["QUANTITIES", "COLUMNS", "ScanSpec", "run_scan", "write_rows", "emit_figure_data"]

QUANTITIES = (
    "classical-lower",
    "classical-upper",
    "classical-local",
    "quantum",
    "quantum-local",
    "ent-assisted",
    "ent-assisted-local",
    "seed-entropy",
    "separability",
)

COLUMNS = ("n", "eta", "s", "T", "N", "quantity", "value_bits", "analytic_valid", "converged")


@dataclass(frozen=True)
class ScanSpec:
    """One quantity on an (eta, T, s) grid at fixed n and N.

    For ``separability`` rows the value_bits column carries the smallest
    symplectic eigenvalue of the partially transposed environment state
    (separable iff >= 1/2), not an information quantity.
    """

    quantity: str
    n: int
    nbar: float
    etas: tuple[float, ...]
    temps: tuple[float, ...]
    s_values: tuple[float, ...]
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}")
        if self.quantity == "separability" and self.n != 2:
            raise ValueError("separability scans require n=2")
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "temps", tuple(float(t) for t in self.temps))
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        if not self.etas or not self.temps or not self.s_values:
            raise ValueError("scan grids must be nonempty")
        # NaN fails every ordered comparison, so these also reject it
        if any(not 0.0 <= e <= 1.0 for e in self.etas):
            raise ValueError("eta grid must lie in [0, 1]")
        if any(not 0.0 <= t <= MAX_TEMP for t in self.temps):
            raise ValueError(f"temperature grid must lie in [0, {MAX_TEMP:g}]")
        if any(not abs(s) <= MAX_ABS_S for s in self.s_values):
            raise ValueError(f"s grid must lie in [-{MAX_ABS_S:g}, {MAX_ABS_S:g}]")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        # n and nbar range checks are delegated to ChannelConfig
        ChannelConfig(n=self.n, eta=self.etas[0], s=self.s_values[0], temp=self.temps[0], nbar=self.nbar)

    @classmethod
    def from_ranges(
        cls,
        quantity: str,
        n: int,
        nbar: float,
        etas,
        temps,
        s_min: float,
        s_max: float,
        s_steps: int,
        jobs: int = 1,
    ) -> "ScanSpec":
        if s_steps < 1:
            raise ValueError("s_steps must be >= 1")
        if s_steps == 1:
            s_values = (float(s_min),)
        else:
            s_values = tuple(np.linspace(s_min, s_max, s_steps))
        return cls(
            quantity=quantity,
            n=n,
            nbar=nbar,
            etas=tuple(np.atleast_1d(etas).astype(float)),
            temps=tuple(np.atleast_1d(temps).astype(float)),
            s_values=s_values,
            jobs=jobs,
        )


def _evaluate_point(quantity: str, n: int, eta: float, s: float, temp: float, nbar: float):
    """Value, analytic-validity flag, and convergence flag at one grid point."""
    if quantity == "separability":
        return env_min_ppt_symplectic(s, temp), True, True
    cfg = ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar)
    if quantity == "classical-lower":
        res = maximize_classical(cfg)
        return res.value, classical_lower_analytic(cfg).valid, res.converged
    if quantity == "classical-upper":
        bound = classical_upper_bound(cfg)
        return bound.value, bound.valid, True
    if quantity == "classical-local":
        return local_classical_lower(cfg), True, True
    if quantity == "quantum":
        res = maximize_quantum(cfg)
        return res.value, False, res.converged
    if quantity == "quantum-local":
        res = maximize_quantum_local(cfg)
        return res.value, False, res.converged
    if quantity == "ent-assisted":
        res = maximize_ent_assisted(cfg)
        return res.value, False, res.converged
    if quantity == "ent-assisted-local":
        res = maximize_ent_assisted_local(cfg)
        return res.value, False, res.converged
    if quantity == "seed-entropy":
        res = maximize_classical(cfg)
        seed = SeedState.from_encoding(res.params, omega_spectrum(n))
        return mean_reduced_entropy(seed), classical_lower_analytic(cfg).valid, res.converged
    raise ValueError(f"unknown quantity {quantity!r}")


def _eval_task(task):
    quantity, n, eta, s, temp, nbar = task
    value, valid, converged = _evaluate_point(quantity, n, eta, s, temp, nbar)
    return {
        "n": n,
        "eta": eta,
        "s": s,
        "T": temp,
        "N": nbar,
        "quantity": quantity,
        "value_bits": float(value),
        "analytic_valid": bool(valid),
        "converged": bool(converged),
    }


def run_scan(spec: ScanSpec, progress=None) -> list[dict]:
    """Evaluate the scan grid; rows ordered eta-major, then T, then s.

    ``progress`` is an optional stream for tick lines (e.g. sys.stderr);
    output rows are independent of the parallelism degree.
    """
    tasks = [
        (spec.quantity, spec.n, eta, s, temp, spec.nbar)
        for eta in spec.etas
        for temp in spec.temps
        for s in spec.s_values
    ]
    total = len(tasks)
    tick = max(1, total // 10)
    rows = []
    if spec.jobs == 1:
        mapped = map(_eval_task, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=spec.jobs)
        mapped = pool.map(_eval_task, tasks, chunksize=max(1, total // (4 * spec.jobs)))
    try:
        for i, row in enumerate(mapped, start=1):
            rows.append(row)
            if progress is not None and (i % tick == 0 or i == total):
                print(f"scan {spec.quantity}: {i}/{total} points", file=progress)
    finally:
        if spec.jobs > 1:
            pool.shutdown()
    return rows


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _csv_cell(key: str, value):
    if key == "n":
        return str(value)
    if key == "quantity":
        return value
    if key in ("analytic_valid", "converged"):
        return "true" if value else "false"
    return _fmt(value)


def format_rows(rows: list[dict], fmt: str, columns=COLUMNS) -> str:
    """Render rows as CSV or JSON text with 12-significant-digit payloads."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(key, row[key]) for key in columns])
        return buf.getvalue()
    if fmt == "json":
        payload = []
        for row in rows:
            out = {}
            for key in columns:
                value = row[key]
                out[key] = float(_fmt(value)) if isinstance(value, float) else value
            payload.append(out)
        return json.dumps(payload, indent=1) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected csv or json")


def write_rows(rows: list[dict], path, fmt: str, columns=COLUMNS) -> Path:
    """Serialize rows to CSV or JSON with 12-significant-digit payloads."""
    path = Path(path)
    path.write_text(format_rows(rows, fmt, columns))
    return path


# Grids behind the standard figure panels, panel -> (etas, temps, quantities):
# n=10 curves of value vs |s| on [0, 3], except the two-use panel 6, which
# scans the (s, T) plane at n=2.
_FIGURES = {
    "2a": ((0.1, 0.3, 0.5, 0.7, 0.9), (0.0,), ("classical-lower", "classical-local")),
    "2b": ((0.9,), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), ("classical-lower", "classical-local")),
    "3a": ((0.6, 0.7, 0.8, 0.9), (0.0,), ("quantum", "quantum-local")),
    "3b": ((0.9,), (0.0, 0.5, 1.0, 1.5), ("quantum", "quantum-local")),
    "4a": ((0.1, 0.3, 0.5, 0.7, 0.9), (0.0,), ("ent-assisted", "ent-assisted-local")),
    "4b": ((0.9,), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), ("ent-assisted", "ent-assisted-local")),
    "5": ((0.9,), (0.0,), ("seed-entropy",)),
}
FIGURE_IDS = (*_FIGURES, "6")


def figure_specs(figure_id: str, s_steps: int = 31, jobs: int = 1) -> list[ScanSpec]:
    """Scan specs backing one figure panel (N=8 throughout)."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    if figure_id == "6":
        temps = tuple(np.linspace(0.0, 6.0, s_steps))
        return [
            ScanSpec.from_ranges(q, n=2, nbar=8.0, etas=(0.9,), temps=temps,
                                 s_min=0.0, s_max=3.0, s_steps=s_steps, jobs=jobs)
            for q in ("classical-lower", "seed-entropy", "quantum", "ent-assisted", "separability")
        ]
    etas, temps, quantities = _FIGURES[figure_id]
    return [
        ScanSpec.from_ranges(q, n=10, nbar=8.0, etas=etas, temps=temps, s_min=0.0, s_max=3.0,
                             s_steps=s_steps, jobs=jobs)
        for q in quantities
    ]


def emit_figure_data(figure_id: str, out_dir=".", *, s_steps: int = 31, fmt: str = "csv",
                     jobs: int = 1, progress=None) -> list[Path]:
    """Write the data series behind one figure panel; returns written paths.

    Panels with both global and local curves get both quantities in one
    file.  Panel 6 scans the (s, T) plane with ``s_steps`` points per axis
    and additionally gets a separability-boundary file with
    (s, T_boundary) pairs.
    """
    specs = figure_specs(figure_id, s_steps=s_steps, jobs=jobs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for spec in specs:
        rows.extend(run_scan(spec, progress=progress))
    paths = [write_rows(rows, out_dir / f"fig{figure_id}.{fmt}", fmt)]
    if figure_id == "6":
        boundary = env_separability_scan(specs[0].s_values, specs[0].temps)
        brows = [
            {"s": float(s), "T_boundary": float(tb), "quantity": "separability-boundary"}
            for s, tb in boundary
        ]
        paths.append(
            write_rows(brows, out_dir / f"fig6_boundary.{fmt}", fmt,
                       columns=("s", "T_boundary", "quantity"))
        )
    return paths
