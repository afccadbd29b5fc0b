"""In-memory span tracing of memchan's layers, driven from outside the package.

Layer entry points are wrapped where they are called: ``optimize`` and
``analytic`` bind ``allocate_photons``, ``chi_mode`` and the others at
import, so each binding is patched in the module that calls it.  Every
non-leaf call records a span (name, start, end, parent); the hot entropy
kernels are leaves that only add a call count and their time to the
enclosing span's child coverage, which keeps a 48k-call point cheap to
trace.  Self time of a span is its duration minus its children's.

A wrap target that no longer exists is listed in ``missing`` and its
metrics are reported as absent; the run goes on.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# (module the name is looked up in, attribute, span name, kind)
#   kind "span": recorded span;  "leaf": call count + time only
TARGETS = [
    ("cli", "main", "cli.main", "span"),
    ("scan", "run_scan", "scan.run_scan", "span"),
    ("scan", "_eval_task", "scan.row", "span"),
    ("scan", "write_rows", "scan.write_rows", "span"),
    ("scan", "maximize_classical", "optimize.maximize_classical", "span"),
    ("scan", "maximize_quantum", "optimize.maximize_quantum", "span"),
    ("scan", "maximize_ent_assisted", "optimize.maximize_ent_assisted", "span"),
    ("scan", "maximize_quantum_local", "optimize.maximize_quantum_local", "span"),
    ("scan", "maximize_ent_assisted_local", "optimize.maximize_ent_assisted_local", "span"),
    ("scan", "classical_lower_analytic", "analytic.classical_lower_analytic", "span"),
    ("scan", "classical_upper_bound", "analytic.classical_upper_bound", "span"),
    ("scan", "local_classical_lower", "analytic.local_classical_lower", "span"),
    ("scan", "mean_reduced_entropy", "entanglement.mean_reduced_entropy", "span"),
    ("scan", "env_min_ppt_symplectic", "entanglement.env_min_ppt_symplectic", "span"),
    ("scan", "env_separability_scan", "entanglement.env_separability_scan", "span"),
    ("optimize", "maximize_classical", "optimize.maximize_classical", "span"),
    ("optimize", "maximize_quantum", "optimize.maximize_quantum", "span"),
    ("optimize", "maximize_ent_assisted", "optimize.maximize_ent_assisted", "span"),
    ("optimize", "maximize_quantum_local", "optimize.maximize_quantum_local", "span"),
    ("optimize", "maximize_ent_assisted_local", "optimize.maximize_ent_assisted_local", "span"),
    ("optimize", "_optimize_grouped", "optimize.optimize_grouped", "span"),
    ("optimize", "_chi_inner", "optimize.inner.chi", "span"),
    ("optimize", "_j_inner", "optimize.inner.j", "span"),
    ("optimize", "_i_inner", "optimize.inner.i", "span"),
    ("optimize", "_exact_refine", "optimize.exact_refine", "span"),
    ("optimize", "allocate_photons", "allocation.allocate_photons", "span"),
    ("optimize", "classical_lower_from_modes", "analytic.classical_lower_from_modes", "span"),
    ("optimize", "env_global_modes", "channel.env_global_modes", "span"),
    ("optimize", "local_effective_temperature", "channel.local_effective_temperature", "span"),
    ("optimize", "chi_mode", "information.chi_mode", "leaf"),
    ("optimize", "coherent_information", "information.coherent_information", "leaf"),
    ("optimize", "quantum_mutual_information", "information.quantum_mutual_information", "leaf"),
    ("analytic", "local_classical_lower", "analytic.local_classical_lower", "span"),
    ("analytic", "classical_lower_from_modes", "analytic.classical_lower_from_modes", "span"),
    ("analytic", "allocate_photons", "allocation.allocate_photons", "span"),
    ("analytic", "env_global_modes", "channel.env_global_modes", "span"),
    ("analytic", "local_effective_temperature", "channel.local_effective_temperature", "span"),
]

def _capture(result):
    """The fields of a traced call's result that feed per-layer metrics."""
    if hasattr(result, "kkt_residual"):  # OptResult
        return {"kkt": float(result.kkt_residual), "iterations": int(result.iterations)}
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], dict) \
            and "fallback" in result[1]:  # allocate_photons(..., return_info=True)
        return {"fallback": bool(result[1]["fallback"])}
    return None


class Patcher:
    """Replaces module attributes and puts the originals back on restore()."""

    def __init__(self):
        self._saved = []

    def patch(self, module, attr, make_wrapper) -> bool:
        original = getattr(module, attr, None)
        if original is None:
            return False
        setattr(module, attr, make_wrapper(original))
        self._saved.append((module, attr, original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Span recorder.  A span is [name, start, end, parent, child_s, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patcher = Patcher()

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][4] += rec[2] - rec[1]

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[5] = _capture(out)
            return out

        return wrapper

    def _leaf_wrapper(self, name, fn):
        agg = self.leaves.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper

    def install(self, memchan) -> None:
        for module_name, attr, name, kind in TARGETS:
            module = getattr(memchan, module_name, None)
            factory = self._leaf_wrapper if kind == "leaf" else self._span_wrapper
            if module is None or not self._patcher.patch(
                module, attr, lambda fn, name=name, factory=factory: factory(name, fn)
            ):
                self.missing.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        self._patcher.restore()

    def dump(self, path) -> None:
        """Write spans as [name, start_us, end_us, parent, child_us, info] rows."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [s[0], round((s[1] - t0) * 1e6, 1), round((s[2] - t0) * 1e6, 1), s[3],
             round(s[4] * 1e6, 1), s[5]]
            for s in self.spans
        ]
        payload = {"columns": ["name", "start_us", "end_us", "parent", "child_us", "info"],
                   "leaves": self.leaves, "missing": self.missing, "spans": rows}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def layer_of(name: str) -> str:
    """Span name -> metric group: inner solves and the refine step are kept
    apart from the rest of optimize."""
    if name.startswith("optimize.inner."):
        return "optimize.inner"
    if name == "optimize.exact_refine":
        return "optimize.refine"
    return name.split(".", 1)[0]


def summarize(tracer: Tracer) -> dict:
    """Per-group inclusive time (outermost spans only), self time and counts."""
    spans = tracer.spans
    groups = [layer_of(s[0]) for s in spans]
    inclusive: dict[str, float] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list] = {}  # name -> [calls, inclusive seconds]
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        group = groups[i]
        self_s[group] = self_s.get(group, 0.0) + dur - s[4]
        agg = by_name.setdefault(s[0], [0, 0.0])
        agg[0] += 1
        agg[1] += dur
        p = s[3]
        nested = False
        while p >= 0:
            if groups[p] == group:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            inclusive[group] = inclusive.get(group, 0.0) + dur
    leaf_calls = sum(v[0] for v in tracer.leaves.values())
    leaf_s = sum(v[1] for v in tracer.leaves.values())
    return {"inclusive": inclusive, "self": self_s, "by_name": by_name,
            "leaf_calls": leaf_calls, "leaf_s": leaf_s}
