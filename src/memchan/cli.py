"""Command-line interface: capacity scans and figure-panel data files."""

from __future__ import annotations

import argparse
import sys

from .scan import (
    FIGURE_IDS,
    QUANTITIES,
    ScanSpec,
    emit_figure_data,
    format_rows,
    run_scan,
    write_rows,
)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memchan",
        description=(
            "Capacities of a lossy bosonic channel whose n-mode environment "
            "is a correlated squeezed thermal state."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("scan", help="evaluate one quantity on an (eta, T, s) grid")
    ps.add_argument("--quantity", required=True, choices=QUANTITIES,
                    help="a -local quantity sees each environment mode's thermal marginal alone")
    ps.add_argument("--n", type=int, default=10, help="channel uses per block (default 10)")
    ps.add_argument("--nbar", type=float, default=8.0, help="mean photons per use (default 8)")
    ps.add_argument(
        "--eta", type=_float_list, default=[0.9],
        help="comma-separated beamsplitter transmissivities (default 0.9)",
    )
    ps.add_argument(
        "--temp", type=_float_list, default=[0.0],
        help="comma-separated environment temperatures T (default 0)",
    )
    ps.add_argument("--s-min", type=float, default=0.0, help="smallest squeezing strength")
    ps.add_argument("--s-max", type=float, default=3.0, help="largest squeezing strength")
    ps.add_argument("--s-steps", type=int, default=31, help="number of s grid points")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default="-", help="output path, - for stdout (default)")
    ps.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")

    pf = sub.add_parser("figure", help="write the data files behind one figure panel")
    pf.add_argument("figure_id", choices=FIGURE_IDS)
    pf.add_argument("--s-steps", type=int, default=31)
    pf.add_argument("--out-dir", default=".")
    pf.add_argument("--format", choices=("csv", "json"), default="csv")
    pf.add_argument("--jobs", type=int, default=1)
    return parser


def _run_scan(args) -> int:
    spec = ScanSpec.from_ranges(
        quantity=args.quantity,
        n=args.n,
        nbar=args.nbar,
        etas=args.eta,
        temps=args.temp,
        s_min=args.s_min,
        s_max=args.s_max,
        s_steps=args.s_steps,
        jobs=args.jobs,
    )
    rows = run_scan(spec, progress=sys.stderr)
    if args.out == "-":
        sys.stdout.write(format_rows(rows, args.format))
    else:
        path = write_rows(rows, args.out, args.format)
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _run_figure(args) -> int:
    paths = emit_figure_data(
        args.figure_id,
        args.out_dir,
        s_steps=args.s_steps,
        fmt=args.format,
        jobs=args.jobs,
        progress=sys.stderr,
    )
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = _run_scan if args.command == "scan" else _run_figure
    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
