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
from .channel import ChannelConfig, _as_int
from .entanglement import env_min_ppt_symplectic, env_separability_scan, mean_reduced_entropy
from .optimize import (
    maximize_classical,
    maximize_ent_assisted,
    maximize_ent_assisted_local,
    maximize_quantum,
    maximize_quantum_local,
)

__all__ = ["QUANTITIES", "COLUMNS", "ScanSpec", "run_scan", "write_rows", "emit_figure_data"]

COLUMNS = ("n", "eta", "s", "T", "N", "quantity", "value_bits", "analytic_valid", "converged")


def _optimized(res, analytic_valid=False):
    return res.value, analytic_valid, res.converged


def _classical_upper(cfg: ChannelConfig):
    bound = classical_upper_bound(cfg)
    return bound.value, bound.valid, True


def _seed_entropy(cfg: ChannelConfig):
    res = maximize_classical(cfg)
    return mean_reduced_entropy(res.params), classical_lower_analytic(cfg).valid, res.converged


# quantity -> evaluator of a ChannelConfig returning (value, analytic-valid,
# converged).  Each body looks its callees up at call time, so a wrapper put
# on this module's attribute (as the benchmark's tracer does) sees every call.
_ROWS = {
    "classical-lower": lambda cfg: _optimized(maximize_classical(cfg), classical_lower_analytic(cfg).valid),
    "classical-upper": _classical_upper,
    "classical-local": lambda cfg: (local_classical_lower(cfg), True, True),
    "quantum": lambda cfg: _optimized(maximize_quantum(cfg)),
    "quantum-local": lambda cfg: _optimized(maximize_quantum_local(cfg)),
    "ent-assisted": lambda cfg: _optimized(maximize_ent_assisted(cfg)),
    "ent-assisted-local": lambda cfg: _optimized(maximize_ent_assisted_local(cfg)),
    "seed-entropy": _seed_entropy,
    "separability": lambda cfg: (env_min_ppt_symplectic(cfg.s, cfg.temp), True, True),
}
QUANTITIES = tuple(_ROWS)


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

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}")
        if self.quantity == "separability" and self.n != 2:
            raise ValueError("separability scans require n=2")
        # ChannelConfig checks every grid value, and n and nbar with them
        for name, field in (("etas", "eta"), ("temps", "temp"), ("s_values", "s")):
            grid = tuple(float(v) for v in getattr(self, name))
            if not grid:
                raise ValueError("scan grids must be nonempty")
            for value in grid:
                ChannelConfig(**{"n": self.n, "eta": 1.0, "s": 0.0, "nbar": self.nbar, field: value})
            object.__setattr__(self, name, grid)

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
    ) -> "ScanSpec":
        s_steps = _as_int("s_steps", s_steps)
        if s_steps < 1:
            raise ValueError("s_steps must be >= 1")
        return cls(
            quantity=quantity,
            n=n,
            nbar=nbar,
            etas=tuple(np.atleast_1d(etas).astype(float)),
            temps=tuple(np.atleast_1d(temps).astype(float)),
            s_values=tuple(np.linspace(s_min, s_max, s_steps)),
        )


def _eval_task(task):
    quantity, n, eta, s, temp, nbar = task
    value, valid, converged = _ROWS[quantity](ChannelConfig(n=n, eta=eta, s=s, temp=temp, nbar=nbar))
    return dict(zip(COLUMNS, (n, eta, s, temp, nbar, quantity, float(value), bool(valid), bool(converged))))


def _worker_count(jobs) -> int:
    """``jobs`` as a builtin int >= 1; anything else raises ValueError."""
    jobs = _as_int("jobs", jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


def run_scan(spec: ScanSpec, jobs: int = 1, progress=None) -> list[dict]:
    """Evaluate the scan grid; rows ordered eta-major, then T, then s.

    ``jobs`` worker processes (1 runs in this process) give the same rows;
    ``progress`` is an optional stream for tick lines (e.g. sys.stderr).
    """
    jobs = _worker_count(jobs)
    tasks = [
        (spec.quantity, spec.n, eta, s, temp, spec.nbar)
        for eta in spec.etas
        for temp in spec.temps
        for s in spec.s_values
    ]
    total = len(tasks)
    tick = max(1, total // 10)
    rows = []
    if jobs == 1:
        mapped = map(_eval_task, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=jobs)
        mapped = pool.map(_eval_task, tasks, chunksize=max(1, total // (4 * jobs)))
    try:
        for i, row in enumerate(mapped, start=1):
            rows.append(row)
            if progress is not None and (i % tick == 0 or i == total):
                print(f"scan {spec.quantity}: {i}/{total} points", file=progress)
    finally:
        if jobs > 1:
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
        payload = [{key: float(_fmt(row[key])) if isinstance(row[key], float) else row[key] for key in columns}
                   for row in rows]
        return json.dumps(payload, indent=1) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected csv or json")


def write_rows(rows: list[dict], path, fmt: str, columns=COLUMNS) -> Path:
    """Serialize rows to CSV or JSON with 12-significant-digit payloads."""
    path = Path(path)
    path.write_text(format_rows(rows, fmt, columns))
    return path


# Grids behind the standard figure panels, panel -> (n, etas, temps,
# quantities): n=10 curves of value vs |s| on [0, 3], except the two-use
# panel 6, which scans the (s, T) plane; its temps None stands for the
# s_steps-point grid on [0, 6].
_FIGURES = {
    "2a": (10, (0.1, 0.3, 0.5, 0.7, 0.9), (0.0,), ("classical-lower", "classical-local")),
    "2b": (10, (0.9,), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), ("classical-lower", "classical-local")),
    "3a": (10, (0.6, 0.7, 0.8, 0.9), (0.0,), ("quantum", "quantum-local")),
    "3b": (10, (0.9,), (0.0, 0.5, 1.0, 1.5), ("quantum", "quantum-local")),
    "4a": (10, (0.1, 0.3, 0.5, 0.7, 0.9), (0.0,), ("ent-assisted", "ent-assisted-local")),
    "4b": (10, (0.9,), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), ("ent-assisted", "ent-assisted-local")),
    "5": (10, (0.9,), (0.0,), ("seed-entropy",)),
    "6": (2, (0.9,), None, ("classical-lower", "seed-entropy", "quantum", "ent-assisted", "separability")),
}
FIGURE_IDS = tuple(_FIGURES)


def figure_specs(figure_id: str, s_steps: int = 31) -> list[ScanSpec]:
    """Scan specs backing one figure panel (N=8 throughout)."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    n, etas, temps, quantities = _FIGURES[figure_id]
    if temps is None:
        temps = np.linspace(0.0, 6.0, _as_int("s_steps", s_steps))
    return [
        ScanSpec.from_ranges(q, n=n, nbar=8.0, etas=etas, temps=temps, s_min=0.0, s_max=3.0,
                             s_steps=s_steps)
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
    if fmt not in ("csv", "json"):  # inputs are checked before any scan runs or the directory is made
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    jobs = _worker_count(jobs)
    specs = figure_specs(figure_id, s_steps=s_steps)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for spec in specs:
        rows.extend(run_scan(spec, jobs=jobs, progress=progress))
    paths = [write_rows(rows, out_dir / f"fig{figure_id}.{fmt}", fmt)]
    if figure_id == "6":
        brows = [{"s": float(s), "T_boundary": float(tb), "quantity": "separability-boundary"}
                 for s, tb in env_separability_scan(specs[0].s_values, specs[0].temps)]
        paths.append(write_rows(brows, out_dir / f"fig6_boundary.{fmt}", fmt,
                                columns=("s", "T_boundary", "quantity")))
    return paths
