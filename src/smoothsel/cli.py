"""Command-line entry point: fit, simulate, compare, report.

``fit`` reads a two-column CSV and writes the selection result as JSON
plus a plot-ready curve file.  ``simulate`` runs the Bayesian selector
over a scenario grid, ``compare`` adds the cross-validation arm on the
same datasets, and ``report`` aggregates a results CSV into selection
frequency and timing quantile tables.  Exit codes: 0 on success, 2 on
usage or input problems, 3 on numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter

import numpy as np

from .basis import _ORDER_CAP, PredictorScale
from .binary import BinaryFitConfig, fit_binary
from .gprior import HYPER_G, INTRINSIC, ZELLNER_SIOW, OmegaPrior
from .selector import RULE_LOSS, RULE_MPM, FitConfig, fit
from .simulation import Scenario, run_grid

_OMEGA_NAMES = (INTRINSIC, ZELLNER_SIOW, HYPER_G)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothsel",
        description="Bayesian order selection for Bernstein polynomial regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one dataset from a CSV file")
    p_fit.add_argument("input", help="CSV file with header")
    p_fit.add_argument("--predictor", default="x", help="predictor column name")
    p_fit.add_argument("--response", default="y", help="response column name")
    p_fit.add_argument("--output", default=None, help="result JSON path (default: stdout)")
    p_fit.add_argument("--curve", default=None, help="curve CSV path (default: derived from --output)")
    p_fit.add_argument("--grid-size", type=_positive_int, default=201, help="curve grid resolution")
    p_fit.add_argument("--omega-prior", choices=_OMEGA_NAMES, default="intrinsic")
    p_fit.add_argument("--rule", choices=(RULE_MPM, RULE_LOSS), default=RULE_MPM)
    p_fit.add_argument("--prior-a", type=float, default=1.0, help="model prior Beta a")
    p_fit.add_argument("--prior-b", type=float, default=1.0, help="model prior Beta b")
    p_fit.add_argument("--cap", type=_positive_int, default=_ORDER_CAP,
                       help="hard cap on the order")
    p_fit.add_argument("--scale", type=_float_list, default=None, metavar="A,B",
                       help="predictor interval (default: data range)")
    p_fit.add_argument("--binary", action="store_true", help="treat the response as binary probit")
    p_fit.add_argument("--mc-draws", type=_positive_int, default=4000,
                       help="Monte Carlo draws of an order k >= 7 with posterior >= 1e-3; "
                            "others draw 1000; >= 1000 (binary only)")
    p_fit.add_argument("--seed", type=int, default=0)

    for name, default_methods in (("simulate", "bayes"), ("compare", "bayes,cv")):
        p = sub.add_parser(name, help=f"run the scenario grid ({default_methods})")
        p.add_argument("--function", default="poly5",
                       help="comma list of signals: poly5, pwlinear")
        p.add_argument("--n", type=_int_list, default=[100], metavar="N[,N...]")
        p.add_argument("--snr", type=_float_list, default=[2.0], metavar="S[,S...]")
        p.add_argument("--reps", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--folds", type=_positive_int, default=5)
        p.add_argument("--methods", default=default_methods,
                       help="comma list from {bayes, cv}")
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="worker threads (default: the cores this process may run on)")
        p.add_argument("--no-timing", action="store_true",
                       help="omit timing columns for byte-reproducible output")
        p.add_argument("--omega-prior", choices=_OMEGA_NAMES, default="intrinsic")
        p.add_argument("--rule", choices=(RULE_MPM, RULE_LOSS), default=RULE_MPM)
        p.add_argument("--prior-a", type=float, default=1.0)
        p.add_argument("--prior-b", type=float, default=1.0)
        p.add_argument("--cap", type=_positive_int, default=_ORDER_CAP)
        p.add_argument("--output", required=True, help="results CSV path")

    p_rep = sub.add_parser("report", help="aggregate a results CSV")
    p_rep.add_argument("input", help="results CSV from simulate/compare")
    p_rep.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_rep.add_argument("--output", default=None, help="report path (default: stdout)")

    return parser


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    """Header and data rows of a CSV file, which must have at least one row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path} has no data rows")
    return reader.fieldnames, rows


def _read_columns(path: str, names: list[str]) -> list[np.ndarray]:
    """Read named numeric columns; raises ValueError naming row/column."""
    fields, rows = _read_rows(path)
    for name in names:
        if name not in fields:
            raise ValueError(f"column {name!r} not found in {path}")
    out = []
    for name in names:
        values = np.empty(len(rows))
        for i, row in enumerate(rows):
            raw = row.get(name)
            if raw is None or raw.strip() == "":
                raise ValueError(f"row {i + 2}: missing value in column {name!r}")
            try:
                values[i] = float(raw)
            except ValueError as exc:
                raise ValueError(
                    f"row {i + 2}: non-numeric value {raw!r} in column {name!r}"
                ) from exc
        out.append(values)
    return out


def cmd_fit(args: argparse.Namespace) -> int:
    x, y = _read_columns(args.input, [args.predictor, args.response])
    scale = None
    if args.scale is not None:
        if len(args.scale) != 2:
            raise ValueError(f"--scale needs exactly two numbers, got {args.scale}")
        scale = PredictorScale(args.scale[0], args.scale[1])
    if args.binary:
        config = BinaryFitConfig(
            prior_a=args.prior_a,
            prior_b=args.prior_b,
            cap=args.cap,
            mc_draws=args.mc_draws,
            seed=args.seed,
            scale=scale,
        )
        result = fit_binary(x, y, config)
    else:
        config = FitConfig(
            omega_prior=OmegaPrior.from_name(args.omega_prior),
            prior_a=args.prior_a,
            prior_b=args.prior_b,
            rule=args.rule,
            cap=args.cap,
            scale=scale,
        )
        result = fit(x, y, config)

    if args.output:
        result.save(args.output)
    else:
        print(result.to_json())

    curve_path = args.curve
    if curve_path is None and args.output:
        stem, _ = os.path.splitext(args.output)
        curve_path = stem + "_curve.csv"
    if curve_path:
        grid_size = max(args.grid_size, result.max_order + 1)
        grid = np.linspace(result.scale.a, result.scale.b, grid_size)
        fitted = result.predict(grid)
        with open(curve_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("x,fitted,order,posterior\n")
            for i in range(grid_size):
                line = f"{grid[i]:.17g},{fitted[i]:.17g}"
                if i <= result.max_order:
                    line += f",{i},{result.posterior[i]:.17g}"
                else:
                    line += ",,"
                fh.write(line + "\n")
    return 0


def _mode(values) -> int:
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def cmd_simulate(args: argparse.Namespace) -> int:
    functions = [tok.strip() for tok in args.function.split(",") if tok.strip()]
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    scenarios = [
        Scenario(mean_fn=fn, n=n, snr=snr, reps=args.reps, seed=args.seed)
        for fn in functions
        for n in args.n
        for snr in args.snr
    ]
    if not scenarios:
        raise ValueError("empty scenario grid")
    config = FitConfig(
        omega_prior=OmegaPrior.from_name(args.omega_prior),
        prior_a=args.prior_a,
        prior_b=args.prior_b,
        rule=args.rule,
        cap=args.cap,
    )
    records = run_grid(
        scenarios,
        args.output,
        methods=methods,
        threads=args.threads,
        include_timing=not args.no_timing,
        config=config,
        folds=args.folds,
    )
    do_cv = "cv" in methods
    print(f"records: {len(records)}")
    print(f"modal order_bayes: {_mode([r.order_bayes for r in records])}")
    print(f"median supnorm_bayes: {np.median([r.supnorm_bayes for r in records]):.6g}")
    if not args.no_timing:
        print(f"median time_bayes: {np.median([r.time_bayes for r in records]):.6g}")
    if do_cv:
        print(f"modal order_cv: {_mode([r.order_cv for r in records])}")
        print(f"median supnorm_cv: {np.median([r.supnorm_cv for r in records]):.6g}")
        if not args.no_timing:
            print(f"median time_cv: {np.median([r.time_cv for r in records]):.6g}")
    return 0


def _report_tables(path: str) -> tuple[list[list[str]], list[list[str]]]:
    fields, rows = _read_rows(path)
    order_cols = [c for c in ("order_bayes", "order_cv") if c in fields]
    if not order_cols:
        raise ValueError(f"{path} has no order_bayes/order_cv columns")

    orders: dict[str, list[int]] = {}
    for col in order_cols:
        try:
            orders[col] = [int(row[col]) for row in rows if row[col] not in (None, "")]
        except ValueError as exc:
            raise ValueError(f"non-integer value in column {col!r}") from exc
    all_orders = sorted({v for vals in orders.values() for v in vals})
    freq_header = ["order"] + [f"count_{c.removeprefix('order_')}" for c in order_cols]
    freq_rows = [freq_header]
    counts = {c: Counter(vals) for c, vals in orders.items()}
    for k in all_orders:
        freq_rows.append([str(k)] + [str(counts[c].get(k, 0)) for c in order_cols])

    time_cols = [c for c in ("time_bayes", "time_cv") if c in fields]
    time_rows = [["metric", "q2.5", "q50", "q97.5"]]
    for col in time_cols:
        try:
            values = [float(row[col]) for row in rows if row[col] not in (None, "")]
        except ValueError as exc:
            raise ValueError(f"non-numeric value in column {col!r}") from exc
        if not values:
            continue
        qs = np.percentile(values, [2.5, 50.0, 97.5])
        time_rows.append([col] + [f"{q:.6g}" for q in qs])
    return freq_rows, time_rows


def _emit_tables(freq_rows, time_rows, fmt: str, sink) -> None:
    tables = [("selection frequency", freq_rows)]
    if len(time_rows) > 1:
        tables.append(("timing quantiles", time_rows))
    for i, (title, rows) in enumerate(tables):
        if fmt == "csv":
            sink.write(f"# {title}\n")
            lines = [",".join(row) for row in rows]
        else:
            sink.write(("\n" if i else "") + f"## {title.capitalize()}\n\n")
            lines = ["| " + " | ".join(row) + " |" for row in rows]
            lines.insert(1, "|" + "|".join(["---"] * len(rows[0])) + "|")
        sink.write("".join(line + "\n" for line in lines))


def cmd_report(args: argparse.Namespace) -> int:
    freq_rows, time_rows = _report_tables(args.input)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            _emit_tables(freq_rows, time_rows, args.format, fh)
    else:
        _emit_tables(freq_rows, time_rows, args.format, sys.stdout)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "fit": cmd_fit,
        "simulate": cmd_simulate,
        "compare": cmd_simulate,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    # LinAlgError subclasses ValueError, so it must be caught first.
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
