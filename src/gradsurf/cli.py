"""Command-line surface: evaluate, impute, and benchmark subcommands."""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Optional

import numpy as np

from . import bench as bench_mod
from .io import ParseError, _numbers, load_dataset, load_queries
from .io import write_imputed, write_plot_csv, write_report
from .layers import _fan_out, _method_batch, evaluate_layers
from .model import FLAG_NAMES, GradsurfError, ValidationError, validate_query

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
_COLUMN_NAMES = FLAG_NAMES.tolist() + ["extrapolated"]  # bit k of a row's flag mask


def _positive(convert):
    """argparse type: ``convert`` the text and reject values that are not > 0."""

    def parse(text: str):
        value = convert(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=("gradient", "smooth"), default="smooth")
    p.add_argument("--combinations", type=_positive(int), default=1,
                   help="simplexes averaged per query (gradient method)")
    p.add_argument("--d-exponent", dest="d", type=_positive(float), default=1.0,
                   help="shape exponent of the approximating arc")
    p.add_argument("--tolerance", type=_positive(float), default=1e-9)
    p.add_argument("--max-iter", type=_positive(int), default=20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradsurf",
        description="Local-area estimation of outcomes at query points "
        "in N-dimensional space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single query point")
    p_eval.add_argument("--data", required=True, help="training CSV (+ optional mesh sidecar)")
    p_eval.add_argument("--at", required=True,
                        help="comma-separated query coordinates, e.g. 1.0,2.5,0.3")
    _add_method_flags(p_eval)

    p_imp = sub.add_parser("impute", help="fill outcomes for a query file")
    p_imp.add_argument("--data", required=True)
    p_imp.add_argument("--queries", required=True, help="query CSV with header x1..xn")
    p_imp.add_argument("--output", required=True)
    p_imp.add_argument("--workers", type=_positive(int), default=1)
    _add_method_flags(p_imp)

    p_bench = sub.add_parser("bench", help="run a benchmark table at desk scale")
    p_bench.add_argument("--table", required=True,
                         choices=("T1", "T2", "T3", "T4", "averaging"))
    p_bench.add_argument("--scale", choices=("small", "medium", "large"),
                         default="small")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=_positive(int), default=1)
    p_bench.add_argument("--output", required=True, help="JSON Lines report path")
    p_bench.add_argument("--plot-csv", dest="plot_csv", default=None,
                         help="also write a plot-ready CSV")
    return parser


def _method_kwargs(args: argparse.Namespace) -> dict:
    if args.method == "gradient":
        return {"combinations": args.combinations}
    return {"d": args.d, "tol": args.tolerance, "max_iter": args.max_iter}


def _query_error(coords, n: int) -> Optional[GradsurfError]:
    """``validate_query``'s error for ``coords``, or None."""
    try:
        validate_query(coords, n)
    except GradsurfError as exc:
        return exc


def _flag_column(flag_codes: np.ndarray, extrapolated: np.ndarray) -> np.ndarray:
    """Each row's flags, over every layer and axis, plus "extrapolated", as
    the sorted set of their names joined by ';'.  A row's set is a mask with
    bit k for code k, and bit 8 for "extrapolated"; each distinct mask is
    joined once."""
    masks = np.bitwise_or.reduce(1 << flag_codes, axis=(1, 2))  # 8 codes fit a uint8
    masks = masks | np.where(extrapolated, 1 << len(FLAG_NAMES), 0)
    unique, inverse = np.unique(masks, return_inverse=True)
    text = [";".join(sorted(name for k, name in enumerate(_COLUMN_NAMES) if mask >> k & 1))
            for mask in unique.tolist()]
    return np.array(text, dtype=object)[inverse]


def impute_rows(training, mesh, args: argparse.Namespace, queries: np.ndarray) -> tuple:
    """The estimates (M, L), status column and flag column of every query, in
    input order.

    The finite queries are fanned out across workers, one batch call per
    chunk, and come back as EstimateBatch arrays.  A failed row's status is
    "error: " and its error, and its flags are empty.  A query that is not
    finite gets ``validate_query``'s error; an argument error that a batch
    call raises is every finite query's error.
    """
    batch = _method_batch(mesh, args.method, _method_kwargs(args))
    finite = np.isfinite(queries).all(axis=1)
    y_hat = np.full((len(queries), training.layer_count), np.nan)
    status = np.full(len(queries), "ok", dtype=object)
    flags = np.full(len(queries), "", dtype=object)
    rows = np.flatnonzero(finite)
    try:
        parts = _fan_out(partial(batch, training), queries[finite], args.workers)
    except GradsurfError as exc:
        parts, status[rows] = [], f"error: {exc}"
    for part in parts:
        here, rows = rows[:len(part.y_hat)], rows[len(part.y_hat):]
        y_hat[here] = part.y_hat
        flags[here] = _flag_column(part.flag_codes, part.extrapolated)
        for j, error in part.errors.items():
            status[here[j]], flags[here[j]] = f"error: {error}", ""
    for i in np.flatnonzero(~finite):
        status[i] = f"error: {_query_error(queries[i], training.n)}"
    return y_hat, status, flags


def cmd_eval(args: argparse.Namespace) -> int:
    training, mesh = load_dataset(args.data)
    try:
        coords = _numbers(args.at.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad --at coordinates: {exc}") from exc
    query = validate_query(coords, training.n)
    result = evaluate_layers(
        training, query, mesh=mesh, method=args.method, **_method_kwargs(args)
    )
    values = " ".join(repr(v) for v in result.y_hat)
    print(values)
    return EXIT_OK


def cmd_impute(args: argparse.Namespace) -> int:
    training, mesh = load_dataset(args.data)
    queries = load_queries(args.queries)
    if queries.shape[1] != training.n:
        raise ValidationError(
            f"queries have {queries.shape[1]} coordinates, dataset has {training.n}"
        )
    y_hat, status, flags = impute_rows(training, mesh, args, queries)
    write_imputed(args.output, queries, y_hat, args.method, status, flags)
    failed = int((status != "ok").sum())
    if failed:
        print(f"{failed} of {len(queries)} queries failed; see status column",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    report = bench_mod.run_benchmark(
        args.table, scale=args.scale, seed=args.seed, workers=args.workers
    )
    write_report(args.output, report)
    if args.plot_csv:
        write_plot_csv(args.plot_csv, report)
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "impute":
            return cmd_impute(args)
        return cmd_bench(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GradsurfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
