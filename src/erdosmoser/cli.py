"""Command-line surface: emits every table and figure dataset as CSV or
JSON on stdout.  Each subcommand accepts only the flags it reads: all take
--format, those with float columns --digits, those with optional exact
columns --exact/--no-exact, those that factor --trial-budget, and search
--jobs.  Any other flag is a usage error.

Each table declares its columns once, as (name, kind) pairs, and yields
rows as tuples in that order.  A cell is an int, text (an exact integer
or num/den string, or an enum name), a float (printed to --digits
significant digits) or a bool (true/false); None is an absent cell, empty
in CSV and null in JSON.  CSV is written unquoted, as the comment on the
cell kinds explains, in blocks of about 64 KB as rows are computed (the
default figure1's first block holds 556 rows); JSON is written at once.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 factorization
budget exceeded, 141 (128 + SIGPIPE) stdout closed by the reader before
the output ended, as in ``erdosmoser figure1 | head``.  Output is
byte-identical across runs and, for search, across --jobs values; figures
are emitted as data, never rendered.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, Optional

from . import __version__
from .approx import RealArg, correction_ratio, first_correction, sum_eml_leading, sum_eml_truncated
from .arith import DEFAULT_BUDGET, DivisorBudget
from .candidates import CaseKind, candidate_roots
from .errors import BudgetExceededError, DomainError
from .polyform import cleared_poly, cleared_value, full_eml_poly
from .powersum import PowerSumQuery, sum_direct, sum_eml_exact
from .search import find_solutions
from .signanalysis import Sign, dominance_ratio, dominance_series, sign_at, sign_summary, sign_threshold

SCHEMA_VERSION = "1"

# Cell kinds.  Their spellings never contain a comma, a quote or a line
# break: ints and exact text are digits, '-' and '/', enum names are
# [A-Z0-9_], floats are digits, '.', 'e', '+', '-', inf or nan, and bools
# are true/false.  So a CSV line is a plain ",".join of its cells.
INT, TEXT, FLOAT, BOOL = "int", "text", "float", "bool"

_CSV_BLOCK = 64 * 1024  # CSV characters per write; unbuffered, each write is a syscall

_FIG1_QUANTITIES = (
    "sum_exact",
    "sum_approx",
    "power",
    "diff_approx",
    "diff_corrected",
    "diff_exact",
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the stable contract
    # here is 1 for usage, 2 for domain errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 7/2 or 3.5, got {text!r}") from None


def _triplet(num: int, den: int, include_exact: bool) -> tuple:
    """Exact, ``_log10`` and ``_sign`` cells of num/den, given in lowest
    terms with den > 0; ints and Fractions pass their ``.numerator`` and
    ``.denominator``.  The exact cell is what ``str(Fraction(num, den))``
    gives."""
    log10 = math.log10(abs(num)) - math.log10(den) if num else None
    sign = (num > 0) - (num < 0)
    if include_exact:
        return (str(num) if den == 1 else f"{num}/{den}", log10, sign)
    return (log10, sign)


def _triplet_columns(names, include_exact: bool) -> list[tuple[str, str]]:
    cols = []
    for name in names:
        if include_exact:
            cols.append((name, TEXT))
        cols += [(f"{name}_log10", FLOAT), (f"{name}_sign", INT)]
    return cols


def _spellings(digits: Optional[int]) -> dict:
    """(CSV, JSON) spelling of a present cell, per kind."""
    float_text = f"%.{digits}g".__mod__
    return {
        INT: (str, int),
        TEXT: (str, str),
        FLOAT: (float_text, lambda v: float(float_text(v))),
        BOOL: (lambda v: "true" if v else "false", bool),
    }


def _emit(args, command: str, params: dict, columns: list, rows: Iterable) -> None:
    """CSV writes rows in blocks as they arrive; JSON collects them into its one object."""
    digits = getattr(args, "digits", None)  # only subcommands with float columns have it
    names = [name for name, _ in columns]
    json_out = args.format == "json"
    spellings = _spellings(digits)
    spell = [spellings[kind][json_out] for _, kind in columns]
    write = sys.stdout.write
    if json_out:
        import json  # CSV runs never pay for this import
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "rows": [
                {n: None if v is None else f(v) for n, f, v in zip(names, spell, row, strict=True)}
                for row in rows
            ],
        }
        write(json.dumps(doc) + "\n")
        return
    lines, size = [",".join(names)], 0
    for row in rows:
        if size >= _CSV_BLOCK:  # flushed before a row is added, so the last write is never empty
            write("\n".join(lines) + "\n")
            lines, size = [], 0
        line = ",".join(["" if v is None else f(v) for f, v in zip(spell, row, strict=True)])
        lines.append(line)
        size += len(line) + 1
    write("\n".join(lines) + "\n")


def _cmd_sum(args):
    if args.m < 2:
        raise DomainError(f"--m must be >= 2, got {args.m}")
    query = PowerSumQuery(args.m - 1, args.k)
    direct = sum_direct(query)
    expansion = sum_eml_exact(query)
    columns = [("k", INT), ("m", INT), ("sum_direct", TEXT), ("sum_eml", TEXT), ("diff", TEXT)]
    row = (args.k, args.m, str(direct), str(expansion), str(direct - expansion))
    return "sum", {"k": args.k, "m": args.m}, columns, [row]


def _cmd_approx(args):
    arg = RealArg(args.m)
    p = args.p if args.p is not None else args.k // 2
    values = {
        "sum_approx": sum_eml_leading(arg, args.k),
        "first_correction": first_correction(arg, args.k),
        "correction_ratio": correction_ratio(arg, args.k) if arg.m >= 3 else None,
        "sum_truncated": sum_eml_truncated(arg, args.k, p),
    }
    row = (args.k, str(arg.m), p)
    for value in values.values():
        if value is None:
            row += (None,) * (3 if args.exact else 2)
        else:
            row += _triplet(value.numerator, value.denominator, args.exact)
    columns = [("k", INT), ("m", TEXT), ("p", INT)] + _triplet_columns(values, args.exact)
    params = {"k": args.k, "m": str(arg.m), "p": p}
    return "approx", params, columns, [row]


def _cmd_poly(args):
    cp = full_eml_poly(args.k) if args.full_eml else cleared_poly(args.k)
    rows = [(i, str(c)) for i, c in enumerate(cp.poly.coeffs)]
    params = {
        "k": args.k,
        "full_eml": args.full_eml,
        "degree": cp.poly.degree,
        "multiplier": str(cp.multiplier),
        "leading": str(cp.poly.coeffs[-1]),
    }
    return "poly", params, [("power", INT), ("coefficient", TEXT)], rows


def _cmd_candidates(args):
    cs = candidate_roots(args.k, DivisorBudget(args.trial_budget))
    integers = set(cs.integer_candidates_ge3)
    rows = [
        (str(c), c.denominator == 1, c.denominator == 1 and int(c) in integers)
        for c in cs.all_candidates
    ]
    params = {
        "k": cs.k,
        "source": cs.source.value,
        "factored_root_zero": cs.factored_root_zero,
        "count": len(cs.all_candidates),
    }
    columns = [("candidate", TEXT), ("is_integer", BOOL), ("integer_ge3", BOOL)]
    return "candidates", params, columns, rows


def _cmd_signs(args):
    reports = sign_summary(args.k_max, DivisorBudget(args.trial_budget))
    rows = []
    zeros = 0
    for r in reports:
        if r.sign is Sign.ZERO:
            zeros += 1
        case = "FULL_SET" if r.case is None else r.case.name
        rows.append((r.k, case, r.m0, str(r.value), r.sign.name))
    if zeros:
        print(
            f"warning: {zeros} candidate(s) evaluate to exactly zero, "
            "i.e. the cleared polynomial has a rational root",
            file=sys.stderr,
        )
    columns = [("k", INT), ("case", TEXT), ("m0", INT), ("value", TEXT), ("sign", TEXT)]
    return "signs", {"k_max": args.k_max}, columns, rows


def _cmd_ratios(args):
    case = CaseKind[args.case]
    series = dominance_series(case, args.k_from, args.k_to, args.step)
    columns = [("case", TEXT), ("k", INT), ("ratio", FLOAT)]
    if args.exact:
        columns.append(("exact", TEXT))
    columns += [("limit", FLOAT), ("series_decreasing", BOOL)]
    rows = []
    for point in series.points:
        row = (case.name, point.k, point.value)
        if args.exact:
            row += (None if point.exact is None else str(point.exact),)
        rows.append(row + (point.limit, series.decreasing_from_start))
    params = {
        "case": case.name,
        "k_from": args.k_from,
        "k_to": args.k_to,
        "step": args.step,
        "monotone_start": series.monotone_start,
    }
    return "ratios", params, columns, rows


def _cmd_threshold(args):
    predicted, crossing = sign_threshold(args.k)
    columns = [("k", INT), ("predicted", TEXT), ("predicted_float", FLOAT), ("crossing", INT)]
    row = (args.k, str(predicted), float(predicted), crossing)
    return "threshold", {"k": args.k}, columns, [row]


def _cmd_search(args):
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    hits = find_solutions(args.k, args.m, shards=args.jobs)
    rows = [(hit.k, hit.m) for hit in hits]
    params = {
        "k_from": args.k[0],
        "k_to": args.k[1],
        "m_from": args.m[0],
        "m_to": args.m[1],
    }
    return "search", params, [("k", INT), ("m", INT)], rows


def _cmd_figure1(args):
    k_from, k_to = args.k_from, args.k_to
    m_from, m_to = args.m_from, args.m_to
    if k_from < 1 or k_to < k_from:
        raise DomainError(f"invalid k range [{k_from}, {k_to}]")
    if m_from < 2 or m_to < m_from:
        raise DomainError(f"invalid m range [{m_from}, {m_to}]")
    columns = [("k", INT), ("m", INT)] + _triplet_columns(_FIG1_QUANTITIES, args.exact)
    params = {"k_from": k_from, "k_to": k_to, "m_from": m_from, "m_to": m_to}
    rows = _figure1_rows(range(k_from, k_to + 1), range(m_from, m_to + 1), args.exact)
    return "figure1", params, columns, rows


def _figure1_rows(ks: range, ms: range, include_exact: bool):
    """Lazily, one row per (k, m), every cell from integers.

    With d = 2(k+1) and c = ``cleared_value(k, m)``, the leading
    approximant minus m^k is c/d, and adding the first correction
    (k/12)((m-1)^{k-1} - 1) gives (12c + dk((m-1)^{k-1} - 1))/(12d).
    ``approx.sum_eml_leading`` and ``first_correction`` are the literal
    Fraction forms; the tests rebuild every cell through them.
    """
    for k in ks:
        d = 2 * (k + 1)
        running = sum_direct(PowerSumQuery(ms.start - 1, k))
        below = (ms.start - 1) ** k  # (m-1)^k, carried from the previous m
        for m in ms:
            c = cleared_value(k, m)
            power = m**k
            correction = d * k * (below // (m - 1) - 1)
            # A list, not a tuple: CPython 3.11 keeps up to 2,000 freed
            # 20-item tuples on a free list it never reuses (~0.4 MB).
            yield [
                k,
                m,
                *_triplet(running, 1, include_exact),
                *_triplet(*_lowest(c + d * power, d), include_exact),
                *_triplet(power, 1, include_exact),
                *_triplet(*_lowest(c, d), include_exact),
                *_triplet(*_lowest(12 * c + correction, 12 * d), include_exact),
                *_triplet(running - power, 1, include_exact),
            ]
            running += power
            below = power


def _lowest(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def _cmd_figure2(args):
    if args.k_to < 4:
        raise DomainError(f"--k-to must be >= 4, got {args.k_to}")
    rows = []
    for case in CaseKind:
        for k in range(case.min_k, args.k_to + 1, 2):
            report = sign_at(k, case.candidate(k), case)
            point = dominance_ratio(k, case)
            row = (case.name, k, report.m0, *_triplet(report.value, 1, args.exact))
            rows.append(row + (report.sign.name, point.value, point.limit))
    columns = (
        [("case", TEXT), ("k", INT), ("m0", INT)]
        + _triplet_columns(["value"], args.exact)
        + [("sign", TEXT), ("ratio", FLOAT), ("limit", FLOAT)]
    )
    return "figure2", {"k_to": args.k_to}, columns, rows

def build_parser() -> argparse.ArgumentParser:
    fmt, digits, exact, budget = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    fmt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default: csv)")
    digits.add_argument("--digits", type=int, default=6,
                        help="decimal digits for float columns (default: 6)")
    exact.add_argument("--exact", action=argparse.BooleanOptionalAction, default=True,
                       help="emit exact value columns alongside floats")
    budget.add_argument("--trial-budget", type=int, default=DEFAULT_BUDGET.max_trial,
                        help="largest trial divisor attempted when factoring")

    parser = _Parser(
        prog="erdosmoser",
        description="Exact-arithmetic workbench for the Erdős–Moser power-sum equation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("sum", parents=[fmt],
                       help="direct power sum and its full expansion at integer m")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("approx", parents=[fmt, digits, exact],
                       help="truncated approximants at a rational point m")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=_fraction_arg, required=True, metavar="RAT")
    p.add_argument("--p", type=int, default=None, help="correction terms to include")
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("poly", parents=[fmt], help="cleared polynomial coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--full-eml", action="store_true",
                   help="full-expansion polynomial instead of the truncated form")
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("candidates", parents=[fmt, budget],
                       help="rational-root candidates for one exponent")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_candidates)

    p = sub.add_parser("signs", parents=[fmt, budget],
                       help="exact signs at all candidates up to a k bound")
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(handler=_cmd_signs)

    p = sub.add_parser("ratios", parents=[fmt, digits, exact],
                       help="dominance-ratio series for one case")
    p.add_argument("--case", choices=[c.name for c in CaseKind], required=True)
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--step", type=int, default=2)
    p.set_defaults(handler=_cmd_ratios)

    p = sub.add_parser("threshold", parents=[fmt, digits],
                       help="predicted and exact sign-crossing point")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_threshold)

    p = sub.add_parser("search", parents=[fmt],
                       help="brute-force scan for exact solutions")
    p.add_argument("--k", type=_range_arg, required=True, metavar="LO..HI")
    p.add_argument("--m", type=_range_arg, required=True, metavar="LO..HI")
    p.add_argument("--jobs", type=int, default=1,
                   help="shard count; must be >= 1, the scan runs serially and "
                   "output never depends on it (default: 1)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("figure1", parents=[fmt, digits, exact],
                       help="sum/approximant/difference grid over (k, m)")
    p.add_argument("--k-from", type=int, default=2)
    p.add_argument("--k-to", type=int, default=102)
    p.add_argument("--m-from", type=int, default=3)
    p.add_argument("--m-to", type=int, default=200)
    p.set_defaults(handler=_cmd_figure1)

    p = sub.add_parser("figure2", parents=[fmt, digits, exact],
                       help="per-case candidate values, signs and ratios over k")
    p.add_argument("--k-to", type=int, required=True)
    p.set_defaults(handler=_cmd_figure2)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact cells can run past 4,300 digits
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "digits" in args and not 1 <= args.digits <= 50:
            raise DomainError(f"--digits must be in [1, 50], got {args.digits}")
        if "trial_budget" in args and args.trial_budget < 2:
            raise DomainError(f"--trial-budget must be >= 2, got {args.trial_budget}")
        command, params, columns, rows = args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(args, command, params, columns, rows)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so the
        # flush at interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0
