#!/usr/bin/env python3
"""memchan benchmark: capacity-point latency and figure-set throughput.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload correlated --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table
    python3 benchmarks/run.py --self-test

Workloads (see workloads.py): ``correlated`` and ``memoryless`` evaluate
seeded ChannelConfig points, one quantity per operation; ``figures`` writes
the whole figure set through ``memchan figure`` and counts one scan row as
one operation.  The loop is closed with one caller, in one process, with
``--jobs 1`` and BLAS threads capped at 1.

With ``--trace 0`` the run reports the end-to-end metrics; a point
workload evaluates its operations in PASSES passes and times each at its
best.  With ``--trace 1`` it runs the same operations once untraced and
once traced, and reports per-layer metrics.  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics.  Full results, with the machine record and, for traced runs, the
spans, are written to benchmarks/out/.
"""

from __future__ import annotations

import os

# Caps must be set before numpy is imported; child processes inherit them.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import checks
import microbench
import workloads
from tracing import Patcher, Tracer, summarize

WORKLOADS = ("correlated", "memoryless", "figures")
# The workloads BENCHMARK.json lists.  memoryless still runs, but carries no
# bound: its timings spread past 0.25 between runs on the shared host, and
# some seeds fail the global >= local check (see README.md).
GATED_WORKLOADS = ("correlated", "figures")
SETUP_PROBES = 3
# An untraced run of a point workload evaluates its operations PASSES times
# over, one pass after another.  Each operation's latency is its best over
# the passes, and wall_s is the fastest pass: a slowdown of the shared host
# that lasts a few seconds then costs an operation only if it strikes every
# pass.  Slower swings, between runs a minute apart, stay; they are why
# figures, whose one pass over the figure set takes 20 to 30 s, gains
# nothing from more passes and runs once.  memoryless gets one pass: its
# four blocks fill a run alone, and fewer blocks would put its median and
# tail on the gaps between block sizes, where they jumped by half between
# runs.
PASSES = {"correlated": 3, "memoryless": 1}
PROBE_TIMEOUT_S = 60

# metric -> unit.  END_TO_END lists what a run reports; GATED and PER_LAYER
# are the subsets named in BENCHMARK.json (the self-test checks that).  The
# three metrics left out of GATED can read exactly 0, so they are reported
# but carry no regression bound.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "wall_s": "s",
    "failed_frac": "fraction",
    "unconverged_frac": "fraction",
    "value_max_dev": "bits",
    "peak_rss_mb": "MB",
}
GATED = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "wall_s", "peak_rss_mb")
PER_LAYER = (
    "gaussian.g_entropy.us_per_call",
    "information.chi_mode.us_per_call",
    "information.coherent_information.us_per_call",
    "information.quantum_mutual_information.us_per_call",
    "information.kernel_calls_per_op",
    "information.kernel_share",
    "optimize.inner_solves_per_op",
    "optimize.inner_ms_per_solve",
    "optimize.inner_share",
    "optimize.refine_ms_per_op",
    "optimize.self_ms_per_op",
    "optimize.kkt_residual_p50",
    "optimize.kkt_residual_max",
    "allocation.allocate_photons.calls_per_op",
    "allocation.allocate_photons.ms_per_call",
    "allocation.share",
    "allocation.fallback_frac",
    "analytic.share",
    "analytic.classical_lower_from_modes.ms_per_call",
    "channel.share",
    "channel.env_global_modes.ms_per_call",
    "entanglement.share",
    "scan.self_share",
    "static.src_lines",
    "static.public_names",
    "trace.overhead_frac",
)
_UNIT_SUFFIXES = (("us_per_call", "us"), ("ms_per_call", "ms"),
                  ("ms_per_solve", "ms"), ("ms_per_op", "ms"), ("ms_per_row", "ms"),
                  ("per_op", "count"), ("share", "fraction"), ("frac", "fraction"),
                  ("kkt_residual_p50", "bits/photon"), ("kkt_residual_max", "bits/photon"),
                  ("src_lines", "lines"), ("public_names", "count"))


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


MAXIMIZE_SPANS = {f"optimize.maximize_{q}" for q in
                  ("classical", "quantum", "ent_assisted", "quantum_local", "ent_assisted_local")}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a probe failed, ...)."""


# ---------------------------------------------------------------------------
# program under test


def import_memchan():
    """Import memchan from this checkout's src/, never from elsewhere."""
    if not (SRC / "memchan" / "__init__.py").is_file():
        raise BenchError(f"no memchan sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import memchan
    import memchan.cli

    where = Path(memchan.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported memchan from {where}, not from {SRC}")
    return memchan


def prepare(workload: str, seed: int, seconds: float):
    """Everything done before the first timed operation; returns (memchan, ops)."""
    memchan = import_memchan()
    ops = None
    if workload != "figures":
        ops = workloads.point_ops(workload, seed,
                                   workloads.block_count(workload, seconds / PASSES[workload]))
    workloads.warm_up(memchan)
    return memchan, ops


def measure_setup(workload: str, seed: int, seconds: float) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first timed
    operation being due, over SETUP_PROBES processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# the figure workload


def figure_dir(tag: str) -> Path:
    path = OUT_DIR / f"figures-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_figures(memchan, out_dir: Path, tracer=None, panels=None):
    """Write every figure panel via the CLI; returns (row ms, wall s, exit codes)."""
    rows_ms: list[float] = []

    def timed(fn):
        def wrapper(task):
            t0 = time.perf_counter()
            try:
                return fn(task)
            finally:
                rows_ms.append((time.perf_counter() - t0) * 1e3)
        return wrapper

    patcher = Patcher()
    patcher.patch(memchan.scan, "_eval_task", timed)
    if tracer is not None:
        tracer.install(memchan)
    codes = {}
    t0 = time.perf_counter()
    try:
        with redirect_stderr(io.StringIO()):
            for fid in panels or memchan.scan.FIGURE_IDS:
                argv = ["figure", fid, "--s-steps", str(workloads.FIGURE_S_STEPS),
                        "--out-dir", str(out_dir), "--jobs", "1"]
                try:
                    with tracer.span("bench.figure") if tracer else nullcontext():
                        codes[fid] = memchan.cli.main(argv)
                except Exception as exc:  # a crashed panel fails its rows, not the run
                    codes[fid] = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        patcher.restore()
    return rows_ms, wall, codes


def check_figures(out_dir: Path, codes: dict, ref_dir: Path | None = None, panels=None):
    """Compare the written CSVs with the stored ones and check invariants.

    Returns (rows, failed reasons per row, problems, max |value - reference|).
    """
    ref_dir = ref_dir or checks.REF_DIR / "figures"
    rows, reasons, problems = [], [], []
    max_dev = 0.0
    for fid, code in codes.items():
        if code != 0:
            problems.append(f"figure {fid} exited with {code}")
    files = sorted(p.name for p in ref_dir.glob("fig*.csv")
                   if panels is None or p.stem.split("_")[0][3:] in panels)
    for name in files:
        ref = checks.read_csv(ref_dir / name)
        got = checks.read_csv(out_dir / name) if (out_dir / name).is_file() else []
        file_reasons, dev = checks.compare_csv(got, ref)
        max_dev = max(max_dev, dev)
        file_reasons += ["row missing from output"] * (len(ref) - len(got))
        got += [None] * (len(ref) - len(got))
        if name.startswith("fig6_boundary"):
            problems += [f"{name} row {i}: {r}" for i, r in enumerate(file_reasons) if r]
            continue
        rows += got
        reasons += file_reasons
    present = [i for i, row in enumerate(rows) if row is not None]
    bad = checks.invariant_failures(checks.figure_rows_for_invariants([rows[i] for i in present]))
    for j, why in bad.items():
        i = present[j]
        reasons[i] = reasons[i] or why
    return rows, reasons, problems, max_dev


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / count))) if count else 0


def end_to_end_metrics(latencies, attempted, failed, unconverged, wall, setup_times,
                       max_dev) -> tuple[dict, dict]:
    """(metrics by name, details) of an untraced run.

    ``latencies`` are the operations' best times over the passes, ``wall``
    the fastest pass.
    """
    done = len(latencies)
    q = tail_percentile(done)
    metrics = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "ops_per_s": done / wall if wall > 0 else None,
        "op_ms_p50": statistics.median(latencies) if latencies else None,
        "op_ms_tail": float(np.percentile(latencies, q)) if latencies else None,
        "wall_s": wall,
        "failed_frac": failed / attempted,
        "unconverged_frac": unconverged / done if done else None,
        "value_max_dev": max_dev,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"tail_percentile": q, "samples": done, "attempted": attempted, "failed": failed,
               "unconverged": unconverged, "setup_probes_s": setup_times}
    return {k: v for k, v in metrics.items() if v is not None}, details


def layer_metrics(memchan, tracer: Tracer, ops: int, wall_traced: float, wall_untraced: float,
                  inner_solves: int | None, seed: int) -> dict:
    """Per-layer metrics of one traced pass over ``ops`` operations.

    ``inner_solves`` is the exact OptResult.iterations total of the untraced
    pass; when None (figures) it is summed from the traced results.
    """
    summary = summarize(tracer)
    inc, self_s, by = summary["inclusive"], summary["self"], summary["by_name"]
    m: dict[str, float] = {}
    m.update(microbench.run(memchan, seed))
    if tracer.leaves:
        m["information.kernel_calls_per_op"] = summary["leaf_calls"] / ops
        m["information.kernel_share"] = summary["leaf_s"] / wall_traced
        for name, (calls, secs) in tracer.leaves.items():
            m[f"{name}.calls_per_op"] = calls / ops
            if calls:
                m[f"{name}.traced_us_per_call"] = secs / calls * 1e6

    spans = tracer.spans
    results = [s[5] for s in spans
               if s[0] in MAXIMIZE_SPANS and s[5] is not None
               and (s[3] < 0 or spans[s[3]][0] not in MAXIMIZE_SPANS)]
    if inner_solves is None and results:
        inner_solves = sum(r["iterations"] for r in results)
    if inner_solves is not None:
        m["optimize.inner_solves_per_op"] = inner_solves / ops
    inner_count = sum(agg[0] for name, agg in by.items() if name.startswith("optimize.inner."))
    if inner_count:
        m["optimize.inner_ms_per_solve"] = inc["optimize.inner"] / inner_count * 1e3
        m["optimize.inner_share"] = inc["optimize.inner"] / wall_traced
        m["optimize.inner_self_ms_per_solve"] = self_s["optimize.inner"] / inner_count * 1e3
    if "optimize.exact_refine" in by:
        m["optimize.refine_ms_per_op"] = by["optimize.exact_refine"][1] / ops * 1e3
    if "optimize" in self_s:
        m["optimize.self_ms_per_op"] = self_s["optimize"] / ops * 1e3
    kkts = [r["kkt"] for r in results]
    if kkts:
        m["optimize.kkt_residual_p50"] = statistics.median(kkts)
        m["optimize.kkt_residual_max"] = max(kkts)

    alloc = by.get("allocation.allocate_photons")
    if alloc:
        m["allocation.allocate_photons.calls_per_op"] = alloc[0] / ops
        m["allocation.allocate_photons.ms_per_call"] = alloc[1] / alloc[0] * 1e3
        m["allocation.share"] = inc["allocation"] / wall_traced
        flags = [s[5]["fallback"] for s in spans
                 if s[0] == "allocation.allocate_photons" and s[5] is not None]
        if flags:
            m["allocation.fallback_frac"] = sum(flags) / len(flags)

    for layer in ("analytic", "channel", "entanglement"):
        m[f"{layer}.share"] = inc.get(layer, 0.0) / wall_traced
        for name, (calls, secs) in by.items():
            if name.startswith(layer + "."):
                m[f"{name}.ms_per_call"] = secs / calls * 1e3
    m["scan.self_share"] = self_s.get("scan", 0.0) / wall_traced
    rows = by.get("scan.row", (0, 0.0))[0]
    if rows:
        m["scan.self_ms_per_row"] = self_s["scan"] / rows * 1e3
        m["scan.write_ms_per_row"] = by.get("scan.write_rows", (0, 0.0))[1] / rows * 1e3
    if "cli" in self_s:
        m["cli.self_ms_per_call"] = self_s["cli"] / by["cli.main"][0] * 1e3

    m["static.src_lines"] = sum(len(p.read_text().splitlines())
                                for p in (SRC / "memchan").glob("*.py"))
    m["static.public_names"] = len(memchan.__all__)
    m["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    return m


def predictions(workload: str, m: dict, missing: list[str]) -> list[str]:
    """The predicted layer shares, stated as confirmed or refuted."""
    claim = {"correlated": "inner solves dominate correlated",
             "memoryless": "allocation dominates memoryless"}.get(workload)
    if claim is None:
        return []
    inner = m.get("optimize.inner_share")
    alloc = m.get("allocation.share")
    unseen = [t for t in missing if "inner" in t or "allocate" in t]
    if inner is None or alloc is None or unseen:
        return [f"{claim}: not checked, the trace misses {unseen or 'a share'}"]
    if workload == "correlated":
        ok = inner >= 0.5 and inner > alloc
    else:
        ok = alloc >= 0.5 and alloc > inner
    verdict = "confirmed" if ok else "refuted"
    return [f"{claim}: {verdict} (inner share {inner:.3f}, allocation share {alloc:.3f})"]


def machine_record() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAPS},
        "jobs": 1,
    }


# ---------------------------------------------------------------------------
# one run


def _point_pass(memchan, ops, tracer=None):
    on_op = (lambda: tracer.span("bench.op")) if tracer is not None else None
    if tracer is not None:
        tracer.install(memchan)
    try:
        return workloads.run_point_ops(memchan, ops, on_op)
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result (last-line fields plus details)."""
    setup_times = [] if trace else measure_setup(workload, seed, seconds)
    memchan, ops = prepare(workload, seed, seconds)
    problems: list[str] = []
    extra: dict = {}

    if workload == "figures":
        out = figure_dir("untraced")
        rows_ms, wall, codes = run_figures(memchan, out)
        rows, reasons, problems, max_dev = check_figures(out, codes)
        attempted = len(rows)
        failed = sum(1 for r in reasons if r)
        unconverged = sum(1 for row in rows if row is not None and row["converged"] == "false")
        latencies = rows_ms
        failures = [f"row {i}: {r}" for i, r in enumerate(reasons) if r]
        inner_solves = None
    else:
        runs = [_point_pass(memchan, ops) for _ in range(1 if trace else PASSES[workload])]
        records = runs[0][0]
        for later, _ in runs[1:]:
            for a, b in zip(records, later):
                if a.error is None and not b.value == a.value:
                    a.failed = a.failed or "value differs between passes"
        max_dev = checks.check_point_records(workload, seed, records)
        attempted = len(records)
        failed = sum(1 for r in records if r.failed)
        unconverged = sum(1 for r in records if r.error is None and not r.converged)
        latencies = [min(run[i].ms for run, _ in runs)
                     for i, r in enumerate(records) if r.error is None]
        wall = min(wall_i for _, wall_i in runs)
        extra["pass_walls_s"] = [wall_i for _, wall_i in runs]
        failures = [f"op {i} {r.quantity} {r.point}: {r.failed} {r.error or ''}".strip()
                    for i, r in enumerate(records) if r.failed]
        extra["operations"] = [[r.point.n, r.quantity, [run[i].ms for run, _ in runs], r.converged]
                               for i, r in enumerate(records)]
        inner_solves = sum(r.iterations for r in records)

    metrics, details = end_to_end_metrics(latencies, attempted, failed, unconverged, wall,
                                          setup_times, max_dev)
    if trace:
        tracer = Tracer()
        if workload == "figures":
            out = figure_dir("traced")
            _, wall_t, codes_t = run_figures(memchan, out, tracer)
            _, reasons_t, problems_t, _ = check_figures(out, codes_t)
            problems += [f"traced: {p}" for p in problems_t]
            failed_t = sum(1 for r in reasons_t if r)
        else:
            records_t, wall_t = _point_pass(memchan, ops, tracer)
            failed_t = sum(1 for a, b in zip(records, records_t)
                           if not (a.value == b.value or (a.failed and b.failed)))
        if failed_t > failed:
            problems.append(f"traced pass: {failed_t} failed operations against {failed} untraced")
        layers = layer_metrics(memchan, tracer, attempted, wall_t, wall, inner_solves, seed)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{workload}-seed{seed}-spans.json")
        extra |= {"layer_metrics": layers, "predictions": predictions(workload, layers, tracer.missing),
                 "missing_wrap_targets": tracer.missing, "traced_wall_s": wall_t}
        reported = {k: {"value": layers[k], "unit": layer_unit(k)} for k in PER_LAYER
                    if k in layers}
    else:
        reported = {k: {"value": metrics[k], "unit": END_TO_END[k]} for k in GATED if k in metrics}

    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
        "end_to_end": metrics,
        "details": details,
        "failures": failures[:50],
        "problems": problems,
        "machine": machine_record(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **extra,
    }


def print_end_to_end(result: dict) -> None:
    w, d = result["workload"], result["details"]
    for name, unit in END_TO_END.items():
        value = result["end_to_end"].get(name)
        text = "absent" if value is None else f"{value:.6g}"
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{d['tail_percentile']} of {d['samples']} operations)"
        elif name == "value_max_dev" and value is None:
            note = "  (no stored reference for this seed)"
        print(f"  {w:<11} {name:<18} {text:>14} {unit}{note}")


def print_report(result: dict) -> None:
    w = result["workload"]
    print(f"== memchan benchmark: workload {w}, seed {result['seed']}, "
          f"trace {int(result['trace'])}")
    m = result["machine"]
    print(f"machine: {m['cpu']}, nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, BLAS threads 1, jobs 1")
    print_end_to_end(result)
    for name, value in sorted(result.get("layer_metrics", {}).items()):
        print(f"  {w:<11} {name:<52} {value:>14.6g} {layer_unit(name)}")
    for line in result.get("predictions", []):
        print(f"prediction: {line}")
    for target in result.get("missing_wrap_targets", []):
        print(f"absent: wrap target {target} not found")
    for line in result["problems"] + result["failures"]:
        print(f"FAILED: {line}")


def write_result(result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return path


def run_all(args) -> int:
    """Every workload in its own process; prints a combined table."""
    rows, status = [], 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        result_path = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        if proc.returncode == 0 and result_path.is_file():
            rows.append(json.loads(result_path.read_text()))
    print("== summary")
    for result in rows:
        print_end_to_end(result)
        print(f"  {result['workload']:<11} correct: {result['correct']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny run that checks metric names and the reference gate")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest

            return selftest.main(sys.modules[__name__])
        if args.setup_probe:
            prepare(args.workload, args.seed, args.seconds)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(result)
    write_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
