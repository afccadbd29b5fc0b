"""Self-test of the benchmark (``run.py --self-test``).

A tiny run on seed 0: the n=2 point of the first correlated block, plus
figure panel 6.  It checks that every metric named in BENCHMARK.json is
reported with its unit, that the stored references match, and that a
reference value perturbed by 1e-6 bits is caught by the gate.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil

import checks
import workloads
from tracing import Tracer


def _spec_problems(bench) -> list[str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != {k: bench.END_TO_END[k] for k in bench.GATED}:
        problems.append(f"BENCHMARK.json end_to_end {e2e} differs from the gated metrics")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers != {name: bench.layer_unit(name) for name in bench.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from the per-layer metrics")
    if {w["name"] for w in spec["workloads"]} != set(bench.GATED_WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    return problems


def _missing(reported: dict, names, what: str) -> list[str]:
    return [f"{what} metric {name} not reported" for name in names if name not in reported]


def main(bench) -> int:
    problems = _spec_problems(bench)
    bench.SETUP_PROBES = 1
    setup = bench.measure_setup("correlated", 0, 1.0)
    memchan = bench.import_memchan()

    # points: the n=2 configuration of seed 0's first block, untraced and traced
    all_ops = workloads.point_ops("correlated", checks.DEFAULT_SEED, 1)
    picks = [i for i, (point, _) in enumerate(all_ops) if point.n == 2]
    ops = [all_ops[i] for i in picks]
    stored = json.loads(checks.point_reference_path("correlated").read_text())["ops"]
    reference = [stored[i] for i in picks]
    records, wall = bench._point_pass(memchan, ops)
    max_dev = checks.check_point_records("correlated", 0, records, reference)
    if max_dev is None or max_dev > checks.VALUE_TOL or any(r.failed for r in records):
        problems.append(f"stored point reference not matched (max dev {max_dev})")
    metrics, _ = bench.end_to_end_metrics(
        [r.ms for r in records], len(records), 0, 0, wall, setup, max_dev)
    problems += _missing(metrics, bench.END_TO_END, "end-to-end")

    tracer = Tracer()
    records_t, wall_t = bench._point_pass(memchan, ops, tracer)
    if [r.value for r in records_t] != [r.value for r in records]:
        problems.append("tracing changed a reported value")
    layers = bench.layer_metrics(memchan, tracer, len(ops), wall_t, wall,
                                 sum(r.iterations for r in records), 0)
    problems += _missing(layers, bench.PER_LAYER, "per-layer")
    if tracer.missing:
        problems.append(f"wrap targets missing: {tracer.missing}")

    perturbed = copy.deepcopy(reference)
    perturbed[0]["value"] += 1e-6
    fresh = copy.deepcopy(records)
    for rec in fresh:
        rec.failed = None
    dev = checks.check_point_records("correlated", 0, fresh, perturbed)
    if not (fresh[0].failed and dev is not None and dev > checks.VALUE_TOL):
        problems.append("a point value 1e-6 off its reference was not caught")

    # figures: panel 6 against the stored CSVs, then against a perturbed copy
    out = bench.figure_dir("selftest")
    _, _, codes = bench.run_figures(memchan, out, panels=("6",))
    _, reasons, fig_problems, fig_dev = bench.check_figures(out, codes, panels={"6"})
    if any(reasons) or fig_problems or fig_dev > checks.VALUE_TOL:
        problems.append(f"stored figure reference not matched: {fig_problems or reasons}")
    bad_ref = bench.figure_dir("selftest-ref")
    for src in (checks.REF_DIR / "figures").glob("fig6*.csv"):
        shutil.copy(src, bad_ref / src.name)
    rows = checks.read_csv(bad_ref / "fig6.csv")
    rows[3]["value_bits"] = repr(float(rows[3]["value_bits"]) + 1e-6)
    with open(bad_ref / "fig6.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    _, reasons, _, _ = bench.check_figures(out, codes, ref_dir=bad_ref, panels={"6"})
    if not reasons[3] or any(r for i, r in enumerate(reasons) if i != 3):
        problems.append("a figure value 1e-6 off its reference was not caught")
    shutil.rmtree(bad_ref)

    for line in problems:
        print(f"self-test FAILED: {line}")
    if not problems:
        print(f"self-test passed: {len(bench.END_TO_END)} end-to-end and "
              f"{len(bench.PER_LAYER)} per-layer metrics reported; perturbed references caught")
    return 1 if problems else 0
