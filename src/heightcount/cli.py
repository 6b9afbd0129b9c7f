"""Command line interface.

One executable, one subcommand per computation.  Single structured results
are emitted as JSON on stdout; grids are emitted as CSV (stdout or --csv
PATH) with a `# schema:` comment line before the header.  Numbers are
printed with 12 significant digits.  Exit codes: 0 success, 1 domain error
(including malformed flags), 2 budget error.  Budget defaults come from the
HEIGHTCOUNT_MAX_* environment variables documented in heightcount.errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from functools import partial

import numpy as np

from . import adelic, archimedean, building, counting, dirichlet
from .errors import BudgetError, DomainError, HeightCountError, check_budget
from .verify import _FMT, format_report, run_checks


def _f12(value):
    """Every float, also inside lists and tuples, round-tripped through 12
    significant digits, so that JSON prints exactly those."""
    if isinstance(value, float):
        return float(_FMT % value)
    if isinstance(value, (list, tuple)):
        return [_f12(v) for v in value]
    return value


def _emit_json(name: str, payload: dict, stream) -> None:
    body = {"schema": f"heightcount/{name}/v1"}
    body.update({key: _f12(value) for key, value in payload.items()})
    json.dump(body, stream, indent=2)
    stream.write("\n")


# report fields printed under another schema key (the field names are public)
_SCHEMA_KEYS = {"value_measured": "value_measured_exponent", "eps_list": "eps"}


def _emit_report(name: str, report, stream, **lead) -> None:
    """A report dataclass as JSON: the `lead` keys, then its fields in
    declaration order."""
    fields = dataclasses.asdict(report)
    _emit_json(name, lead | {_SCHEMA_KEYS.get(k, k): v for k, v in fields.items()}, stream)


def _emit_csv(name: str, header: list[str], rows, stream) -> None:
    stream.write(f"# schema: heightcount/{name}/v1\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_FMT % v if isinstance(v, float) else v for v in row])


def _parse_matrix(text: str):
    try:
        rows = [[int(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise DomainError(f"could not parse matrix {text!r}; use 'a,b;c,d'") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise DomainError(f"matrix {text!r} is not square")
    return rows


def _parse_eps(text: str) -> tuple[float, ...]:
    try:
        eps = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise DomainError(f"could not parse eps list {text!r}") from exc
    return eps


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on malformed flags (2 is reserved for budgets)."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# subcommand bodies; each writes its output to `out`


def _cmd_size(size, args, out):
    value = size(building.BuildingParams(args.d, args.p), args.k)
    _emit_json(args.command, {"d": args.d, "p": args.p, "k": args.k, args.command: value}, out)


def _cmd_classes(args, out):
    params = building.BuildingParams(args.d, args.p)
    table = building.enumerate_classes(params, args.kmax, max_classes=args.max_classes)
    rows = (
        [dist, "; ".join(" ".join(map(str, row)) for row in cls.hnf), " ".join(map(str, cls.divisor_exponents()))]
        for cls, dist in table
    )
    _emit_csv("classes", ["distance", "hnf", "divisor_exponents"], rows, out)


def _cmd_dcoeff(args, out):
    values = dirichlet.coeff_array(args.d, args.xmax, max_sieve=args.max_sieve).tolist()
    rows = [[m, values[m]] for m in range(1, args.xmax + 1)]
    _emit_csv("dcoeff", ["m", "D"], rows, out)


def _cmd_lseries(args, out):
    if args.variant == "sl2":
        if args.d != 2:
            raise DomainError("the sl2 variant is defined for d = 2 only")
        result = dirichlet.L_euler_sl2(complex(args.s), prime_cutoff=args.cutoff)
    else:
        result = dirichlet.L_euler(args.d, complex(args.s), prime_cutoff=args.cutoff)
    _emit_json(
        "lseries",
        {
            "d": args.d,
            "variant": args.variant,
            "s": args.s,
            "value_re": result.value.real,
            "value_im": result.value.imag,
            "truncation_bound": result.truncation_bound,
        },
        out,
    )


def _cmd_poles_table(args, out):
    rows = []
    for d in range(2, args.dmax + 1):
        table = dict(dirichlet.pole_abscissas(d, p_max=3).entries)
        rows.append([d, "%.10f" % table[2], "%.10f" % table[3]])
    _emit_csv("poles-table", ["n", "s_2", "s_3"], rows, out)


def _cmd_residue(args, out):
    _emit_report("residue", dirichlet.residue_estimate(args.variant), out)


def _cmd_ball_volume(args, out):
    volume = archimedean.ball_volume_numeric(args.d, args.B, args.R)
    _emit_json(
        "ball-volume",
        {"d": args.d, "B": args.B, "R": args.R, "volume": volume},
        out,
    )


def _cmd_ball_adelic(args, out):
    if not (args.step > 0 and args.Tmax >= args.step):
        raise DomainError(f"need 0 < step <= Tmax, got step={args.step}, Tmax={args.Tmax}")
    if args.Tmax == math.inf:
        raise DomainError(f"need a finite Tmax, got {args.Tmax}")
    grid = np.arange(args.step, args.Tmax + args.step / 2, args.step)
    series = adelic.adelic_ball_series(args.d, args.B, grid, max_sieve=args.max_sieve)
    _emit_csv("ball-adelic", ["T", "b"], zip(series.T_grid, series.values), out)


def _cmd_height(args, out):
    _emit_report("height", adelic.global_height(_parse_matrix(args.matrix), args.B), out)


def _cmd_predict(args, out):
    _emit_report("predict", adelic.prediction_N(args.d, args.B, args.T, covolume=args.covolume), out)


def _cmd_count(args, out):
    if not (args.xmax >= 1):
        raise DomainError(f"need xmax >= 1, got {args.xmax}")
    if args.xmax == math.inf:
        raise DomainError(f"need a finite xmax, got {args.xmax}")
    top = int(math.floor(args.xmax))
    if 0 < args.B < 2:  # compare_report refuses any other B
        # compare_report's first two refusals, asked at x = top before the
        # grid holds `top` floats: its sandwich sieve runs past top, and the
        # census of top has an O(1) lower bound on its cells
        check_budget("max_sieve", top, args.max_sieve)
        counting._check_cell_floor(float(top), args.B, args.max_cells)
    x_grid = [float(x) for x in range(1, top + 1)]
    report = counting.compare_report(
        x_grid,
        args.B,
        covolume=args.covolume,
        max_cells=args.max_cells,
        max_sieve=args.max_sieve,
    )
    columns = (
        report.x_grid,
        report.pi_values,
        report.predicted_low_exponent,
        report.predicted_high_exponent,
        report.lower_sandwich,
        report.upper_sandwich,
    )
    header = ["x", "pi", "predicted_convA", "predicted_convB", "lower_sandwich", "upper_sandwich"]
    _emit_csv("count", header, zip(*columns), out)


def _cmd_regularity(args, out):
    # every flag the callable does not check is checked before it sieves
    eps = adelic._shifts(_parse_eps(args.eps))
    if args.points < 4:
        raise DomainError(f"need at least 4 T samples, got {args.points}")
    if not math.isfinite(args.Tmin):
        raise DomainError(f"need a finite Tmin, got {args.Tmin}")
    # nan and -inf reach the callable, which refuses them before it sieves
    if args.Tmax == math.inf:
        raise DomainError(f"need a finite Tmax, got {args.Tmax}")
    b = adelic.adelic_volume_callable(args.d, args.B, args.Tmax + max(eps) + 0.01, max_sieve=args.max_sieve)
    report = adelic.regularity_report(b, eps, np.linspace(args.Tmin, args.Tmax, args.points))
    _emit_report("regularity", report, out, d=args.d, B=args.B)


def _cmd_persistence(args, out):
    pair = adelic.pgl2_measure_pair(T_max=args.Tmax, B=args.B, max_sieve=args.max_sieve)
    d_T, ratio = adelic.persistence_check(pair, args.T)
    _emit_json(
        "persistence",
        {
            "B": args.B,
            "T": args.T,
            "C": pair.C,
            "alpha": pair.alpha,
            "beta": pair.beta,
            "d_T": d_T,
            "ratio": ratio,
        },
        out,
    )


def _cmd_verify(args, out):
    results = run_checks(quick=not args.full)
    out.write(format_report(results))
    if not all(r.passed for r in results):
        raise SystemExit(1)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heightcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags several commands share, each declared once
    csv_flag = argparse.ArgumentParser(add_help=False)
    csv_flag.add_argument("--csv", help="write CSV/JSON to this path")
    sieve = argparse.ArgumentParser(add_help=False)
    sieve.add_argument("--max-sieve", type=int)

    def add(name, fn, *parents, **flags):
        p = sub.add_parser(name, parents=[csv_flag, *parents])
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        p.set_defaults(func=fn)

    int_req = {"type": int, "required": True}
    float_req = {"type": float, "required": True}

    add("sphere", partial(_cmd_size, building.sphere_size), d=int_req, p=int_req, k=int_req)
    add("ball", partial(_cmd_size, building.ball_size), d=int_req, p=int_req, k=int_req)
    add("classes", _cmd_classes, d=int_req, p=int_req, kmax=int_req, **{"max-classes": {"type": int}})
    add("dcoeff", _cmd_dcoeff, sieve, d=int_req, xmax=int_req)
    add(
        "lseries",
        _cmd_lseries,
        d=int_req,
        s=float_req,
        cutoff={"type": int, "default": 10**5},
        variant={"choices": ["pgld", "sl2"], "default": "pgld"},
    )
    add("poles-table", _cmd_poles_table, dmax={"type": int, "default": 6})
    add("residue", _cmd_residue, variant={"choices": ["pgl2", "sl2"], "required": True})
    add("ball-volume", _cmd_ball_volume, d=int_req, B=float_req, R=float_req)
    add(
        "ball-adelic",
        _cmd_ball_adelic,
        sieve,
        d=int_req,
        B=float_req,
        Tmax=float_req,
        step={"type": float, "default": 0.25},
    )
    add("height", _cmd_height, matrix={"type": str, "required": True}, B=float_req)
    add(
        "predict",
        _cmd_predict,
        d=int_req,
        B=float_req,
        T=float_req,
        covolume={"type": float, "default": 1.0},
    )
    add(
        "count",
        _cmd_count,
        sieve,
        xmax=float_req,
        B=float_req,
        covolume={"type": float, "default": 1.0},
        **{"max-cells": {"type": int}},
    )
    add(
        "regularity",
        _cmd_regularity,
        sieve,
        d=int_req,
        B=float_req,
        Tmin=float_req,
        Tmax=float_req,
        points={"type": int, "default": 25},
        eps={"default": "0.02,0.01,0.005"},
    )
    add(
        "persistence",
        _cmd_persistence,
        sieve,
        T=float_req,
        Tmax={"type": float, "default": 12.0},
        B={"type": float, "default": 1.0},
    )
    verify_p = sub.add_parser("verify")
    tier = verify_p.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", default=True)
    tier.add_argument("--full", action="store_true", default=False)
    verify_p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    target = getattr(args, "csv", None)
    try:
        if target:
            with open(target, "w", encoding="utf-8", newline="") as handle:
                args.func(args, handle)
        else:
            args.func(args, sys.stdout)
    except BudgetError as exc:
        print(f"heightcount: budget error: {exc}", file=sys.stderr)
        return 2
    except HeightCountError as exc:
        print(f"heightcount: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
