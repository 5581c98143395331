"""Command-line front end: single coefficients, tables, verification sweeps,
operator checks, and conjecture exploration.

Exit codes: 0 all checks pass, 1 mathematical mismatch (a failed sweep, or a
psi-check row whose two sides differ) or a bug trap hit during a sweep (its
failure row names the trap), 2 usage or validation error: main maps every
ValueError, the CLI's or the library's, to it, 3 out of memory, or a worker
process of a sweep that ended without sending its rows: main prints one error
line for a MemoryError or a WorkerExited, not a traceback.
"""

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from .coefficients import normalized_parts, t_coeff
from .verifier import (CHECK_IDS, CHECKS, SweepGrid, WorkerExited, _check_of, _refuse_repeats, psi_sides, run_explore,
                       run_sweep)

OUT_DIR_ENV = "CYCPSI_OUT_DIR"


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers, got {text!r}")


def _require_workers(workers: int) -> None:
    """Refuse a pool size below 1 or above the CPU count, before any work starts."""
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"--workers must be between 1 and the CPU count {cpus}, got {workers}")


_GRID_DEFAULTS = SweepGrid()


def _span(args, name: str) -> tuple[int, int]:
    """The inclusive range for <name>_range: --<name> fixes one value, else
    --<name>-min/--<name>-max narrow the default. A flag the parser lacks is absent."""
    single = getattr(args, name, None)
    lo = getattr(args, f"{name}_min", None)
    hi = getattr(args, f"{name}_max", None)
    if single is not None:
        if lo is not None or hi is not None:
            raise ValueError(
                f"--{name} (fixed) cannot be combined with --{name}-min or --{name}-max (range)"
            )
        return (single, single)
    default = getattr(_GRID_DEFAULTS, f"{name}_range")
    return (
        lo if lo is not None else default[0],
        hi if hi is not None else default[1],
    )


def _grid_from_args(args) -> SweepGrid:
    kwargs = {}
    if args.p is not None:
        kwargs["primes"] = _parse_int_list(args.p, "--p")
    for name in ("a", "n", "l", "m", "d", "q"):
        kwargs[f"{name}_range"] = _span(args, name)
    if args.r is not None:
        kwargs["r_values"] = _parse_int_list(args.r, "--r")
    if args.s is not None:
        kwargs["s_values"] = _parse_int_list(args.s, "--s")
    if args.t is not None:
        kwargs["t_values"] = _parse_int_list(args.t, "--t")
    if args.abs_r_max is not None:
        kwargs["abs_r_max"] = args.abs_r_max
    if args.coeff_degree is not None:
        kwargs["coeff_degree"] = args.coeff_degree
    return SweepGrid(**kwargs)


def _emit(args, doc, rows: list[dict], lines: list[str]) -> None:
    """Render one command's output in --format: doc as JSON, rows as CSV under
    the first row's keys, or lines as plain text; write it to stdout or --out."""
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    path = Path(args.out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# coeff / table

def _coeff_row(p: int, a: int, n: int, r: int, l: int) -> dict:
    raw, exponent, normalized = normalized_parts(p, a, n, r, l)
    return {
        "p": p,
        "a": a,
        "n": n,
        "r": r,
        "l": l,
        "raw": str(raw),
        "exponent": exponent,
        "normalized": str(normalized),
        "normalized_mod_p": normalized % p,
    }


def _cmd_coeff(args) -> int:
    coefficient = (args.p, args.a, args.n, args.r, args.l)
    row = _coeff_row(*coefficient)
    lines = [
        f"query: p={args.p} a={args.a} n={args.n} r={args.r} l={args.l}",
        f"raw_sum = {row['raw']}",
        f"exponent = {row['exponent']}",
        f"normalized = {row['normalized']}",
    ]
    if args.t_coeff:
        row["t_coeff"] = str(t_coeff(*coefficient))
        lines.append(f"t_coeff = {row['t_coeff']}")
    _emit(args, row, [row], lines)
    return 0


def _cmd_table(args) -> int:
    if args.n_min > args.n_max:
        raise ValueError(f"n_range is empty: {args.n_min} > {args.n_max}")
    r_values = _parse_int_list(args.r, "--r")
    l_values = _parse_int_list(args.l, "--l")
    if any(l < 0 for l in l_values):
        raise ValueError("l values must be >= 0")
    _refuse_repeats("--r", r_values)
    _refuse_repeats("--l", l_values)
    rows = [
        _coeff_row(args.p, args.a, n, r, l)
        for n in range(args.n_min, args.n_max + 1)
        for r in r_values
        for l in l_values
    ]
    cells = [list(rows[0])] + [[str(value) for value in row.values()] for row in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(cells[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)) for line in cells]
    _emit(args, rows, rows, lines)
    return 0


# ---------------------------------------------------------------------------
# verify / explore / psi-check

def _emit_report(args, report) -> None:
    head = {
        "theorem": report.theorem,
        "checked": report.checked,
        "verdict": report.verdict,
        "elapsed_ms": report.elapsed_ms,
    }
    rows = [
        {**head, "params": json.dumps(f.params, sort_keys=True, separators=(",", ":")),
         "expected": f.expected, "actual": f.actual}
        for f in report.failures
    ] or [{**head, "params": "", "expected": "", "actual": ""}]
    lines = [
        f"check   : {report.theorem}",
        f"checked : {report.checked}",
        f"verdict : {report.verdict}",
        f"elapsed : {report.elapsed_ms} ms",
    ]
    if report.failures:
        lines.append(f"failures: {len(report.failures)}")
        for failure in report.failures[:10]:
            lines.append(f"  params={failure.params} expected={failure.expected} actual={failure.actual}")
        if len(report.failures) > 10:
            lines.append(f"  ... and {len(report.failures) - 10} more")
    for key, value in report.extra.items():
        lines.append(f"{key}: {value}")
    _emit(args, report.to_json_dict(), rows, lines)


def _sweep(args, target: str, check, run) -> int:
    """Check --workers, build the grid and refuse it when it moves a field off its
    default that check does not read (no check: an unknown id, which run refuses);
    run the sweep and emit its report; exit 1 when the verdict is fail."""
    _require_workers(args.workers)
    grid = _grid_from_args(args)
    if check and (unread := [f.name for f in fields(grid) if f.name not in check.fields
                             and getattr(grid, f.name) != getattr(_GRID_DEFAULTS, f.name)]):
        raise ValueError(f"{target} does not read {', '.join(unread)}")
    report = run(grid, workers=args.workers)
    _emit_report(args, report)
    return 1 if report.verdict == "fail" else 0


def _cmd_verify(args) -> int:
    return _sweep(args, args.check, CHECKS.get(args.check), partial(run_sweep, args.check))


def _cmd_explore(args) -> int:
    if args.target != "rem1.2":
        raise ValueError(f"unknown explore target {args.target!r}; valid: rem1.2")
    return _sweep(args, args.target, _check_of(args.target), run_explore)


def _cmd_psi_check(args) -> int:
    if args.l_max < 0:
        raise ValueError(f"--l-max must be >= 0, got {args.l_max}")
    if args.n is None:
        raise ValueError("give --n, the row to compare; verify psi-identity sweeps a grid")
    got, want = psi_sides(args.p, args.a, args.n, args.r, args.l_max)
    match = got == want
    rows = [{"l": l, "psi": str(got[l]), "expected": str(want[l])} for l in range(args.l_max + 1)]
    lines = [
        f"psi^{args.a} coefficients vs sign-adjusted sums (p={args.p} n={args.n} r={args.r})",
        "l  psi  expected",
        *(f"{row['l']}  {row['psi']}  {row['expected']}" for row in rows),
        f"match: {'yes' if match else 'NO'}",
    ]
    doc = {"p": args.p, "a": args.a, "n": args.n, "r": args.r, "rows": rows, "match": match}
    _emit(args, doc, rows, lines)
    return 0 if match else 1


# ---------------------------------------------------------------------------
# parser

def _add_grid_flags(sp) -> None:
    sp.add_argument("--p", help="comma-separated primes (default 2,3,5)")
    sp.add_argument("--a", type=int, help="fix the power exponent a")
    sp.add_argument("--a-min", type=int)
    sp.add_argument("--a-max", type=int)
    sp.add_argument("--n", type=int, help="fix the row n")
    sp.add_argument("--n-min", type=int)
    sp.add_argument("--n-max", type=int)
    sp.add_argument("--l", type=int, help="fix the order index l")
    sp.add_argument("--l-min", type=int)
    sp.add_argument("--l-max", type=int)
    sp.add_argument("--r", help="explicit comma-separated r values (default: full residue systems)")
    sp.add_argument("--s", help="explicit digit values for s (default: 0..p-1)")
    sp.add_argument("--t", help="explicit digit values for t (default: 0..p-1)")
    sp.add_argument("--m-min", type=int)
    sp.add_argument("--m-max", type=int, help="multiplier bound (thm1.5) / modulus bound (lem2.2)")
    sp.add_argument("--d-max", type=int, help="outer modulus bound (lem3.1)")
    sp.add_argument("--q-max", type=int, help="inner modulus bound (lem3.1)")
    sp.add_argument("--abs-r-max", type=int, help="|r| bound for lem2.2 (lem3.1 sweeps |r| <= 2 unless --r is given)")
    sp.add_argument("--coeff-degree", type=int, help="comparison depth for psi-identity")


def _add_output_flags(sp, default_format: str) -> None:
    sp.add_argument("--format", choices=("json", "csv", "plain"), default=default_format)
    sp.add_argument("--out", help=f"output path (relative paths honor ${OUT_DIR_ENV})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycpsi",
        allow_abbrev=False,
        description="Exact Fleck sums, normalized cyclotomic psi-coefficients, "
        "and sweep verification of their Lucas-type congruences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeff", help="compute one coefficient", allow_abbrev=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--t-coeff", action="store_true", help="also print the rational T-coefficient")
    _add_output_flags(sp, "plain")
    sp.set_defaults(handler=_cmd_coeff)

    sp = sub.add_parser("table", help="emit a table of coefficients", allow_abbrev=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=0)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--r", default="0", help="comma-separated r values (default 0)")
    sp.add_argument("--l", default="0", help="comma-separated l values (default 0)")
    _add_output_flags(sp, "csv")
    sp.set_defaults(handler=_cmd_table)

    sp = sub.add_parser("verify", help="run one verification sweep", allow_abbrev=False)
    sp.add_argument("check", metavar="CHECK_ID", help=f"one of: {', '.join(CHECK_IDS)}")
    _add_grid_flags(sp)
    sp.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    _add_output_flags(sp, "json")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("psi-check", help="compare operator coefficients against the sums", allow_abbrev=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n", type=int, help="the row n (required; grids are verify psi-identity)")
    sp.add_argument("--r", type=int, default=0, help="the class r (default 0)")
    sp.add_argument("--l-max", type=int, default=4, help="compare degrees 0..l-max (default 4)")
    _add_output_flags(sp, "plain")
    sp.set_defaults(handler=_cmd_psi_check)

    sp = sub.add_parser("explore", help="tabulate margins for an open conjecture", allow_abbrev=False)
    sp.add_argument("target", metavar="TARGET", help="rem1.2")
    _add_grid_flags(sp)
    sp.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    _add_output_flags(sp, "json")
    sp.set_defaults(handler=_cmd_explore)

    return parser


# Flags whose value is a comma-separated list of integers.
_LIST_FLAGS = ("--p", "--r", "--s", "--t")


def _join_negative_lists(argv: list[str]) -> list[str]:
    """argv with a list that starts with a negative value joined to its flag,
    as --r=-1,0: argparse reads a separate -1,0 as an option, not a value."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _LIST_FLAGS and re.match(r"-\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_lists(argv))
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; narrow the grid or the arguments", file=sys.stderr)
        return 3
    except WorkerExited as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
