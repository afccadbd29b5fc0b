#!/usr/bin/env python3
"""Regenerate the stored reference values in benchmarks/reference/.

Run from the root of a checkout, and only when a change is meant to alter
the values memchan reports:

    python3 benchmarks/make_reference.py

It evaluates seed 0 of each point workload for as many blocks as a
60-second run of one pass holds (twice the default run length; at least
the blocks of any default run), and writes the figure set at the
benchmark's grid.
"""

from __future__ import annotations

import json
import sys

import run as bench
import checks
import workloads

REF_SECONDS = 60.0


def main() -> int:
    memchan = bench.import_memchan()
    checks.REF_DIR.mkdir(exist_ok=True)
    for workload in workloads.NOMINAL_BLOCK_S:
        blocks = workloads.block_count(workload, REF_SECONDS)
        ops = workloads.point_ops(workload, checks.DEFAULT_SEED, blocks)
        records, wall = workloads.run_point_ops(memchan, ops)
        errors = [r for r in records if r.error]
        if errors:
            print(f"{workload}: {len(errors)} operations raised; no reference written",
                  file=sys.stderr)
            return 1
        payload = {
            "workload": workload,
            "seed": checks.DEFAULT_SEED,
            "blocks": blocks,
            "point_fields": ["n", "eta", "s", "T", "N"],
            "ops": [{"point": r.point.key(), "quantity": r.quantity, "value": r.value}
                    for r in records],
        }
        checks.point_reference_path(workload).write_text(json.dumps(payload, indent=0) + "\n")
        print(f"{workload}: {len(records)} operations in {wall:.1f} s", file=sys.stderr)
    out = checks.REF_DIR / "figures"
    out.mkdir(exist_ok=True)
    rows_ms, wall, codes = bench.run_figures(memchan, out)
    if any(code != 0 for code in codes.values()):
        print(f"figures: exit codes {codes}", file=sys.stderr)
        return 1
    print(f"figures: {len(rows_ms)} rows in {wall:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
