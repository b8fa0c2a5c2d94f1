"""Command-line surface: emits every table and figure dataset as CSV or
JSON on stdout.  Each subcommand accepts only the flags it reads: all take
--format, those with float columns --digits, those with optional exact
columns --exact/--no-exact, those that factor --trial-budget, and search
--jobs.  Any other flag is a usage error.

A run compiles and loads only what its subcommand runs.  This module is the
parser and ``main``, and of this package it loads only ``errors``: a
subcommand's arguments are declared when argparse dispatches to it, so
``arith``'s default budget is read only by candidates and signs and the
case names of ``candidates`` only by ratios.  Each subcommand names the
private module that holds its handler ``_cmd_<name>``, imported when the
handler is called: ``_crossing`` for search and threshold, ``_figure1`` for
figure1 and ``_commands`` for the other seven.  The table writer,
``_table``, is imported once the handler has returned, and ``fractions``
loads only where a Fraction is built.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 factorization
budget exceeded, 141 (128 + SIGPIPE) stdout closed by the reader before
the output ended, as in ``erdosmoser figure1 | head``, unbuffered too.
Output is byte-identical across runs and, for search, across --jobs
values; figures are emitted as data, never rendered.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from importlib import import_module

from . import __version__
from .errors import BudgetExceededError, DomainError


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the stable contract
    # here is 1 for usage, 2 for domain errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    command = None  # a subcommand's name until its arguments are declared

    def parse_known_args(self, args=None, namespace=None):
        if self.command:  # argparse has dispatched to this subcommand
            _declare(self, self.command)
            self.command = None
        return super().parse_known_args(args, namespace)


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None


def _fraction_arg(text: str) -> fractions.Fraction:
    import fractions  # only approx reads a rational, so no other run loads it
    try:
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 7/2 or 3.5, got {text!r}") from None


# Each subcommand: the module holding its handler, the shared flags it
# reads besides --format, and its help line.
_COMMANDS = {
    "sum": ("_commands", (), "direct power sum and its full expansion at integer m"),
    "approx": ("_commands", ("digits", "exact"), "truncated approximants at a rational point m"),
    "poly": ("_commands", (), "cleared polynomial coefficients"),
    "candidates": ("_commands", ("budget",), "rational-root candidates for one exponent"),
    "signs": ("_commands", ("budget",), "exact signs at all candidates up to a k bound"),
    "ratios": ("_commands", ("digits", "exact"), "dominance-ratio series for one case"),
    "threshold": ("_crossing", ("digits",), "predicted and exact sign-crossing point"),
    "search": ("_crossing", (), "brute-force scan for exact solutions"),
    "figure1": ("_figure1", ("digits", "exact"), "sum/approximant/difference grid over (k, m)"),
    "figure2": ("_commands", ("digits", "exact"), "per-case candidate values, signs and ratios over k"),
}


def _declare(p: argparse.ArgumentParser, name: str) -> None:
    """Declare subcommand ``name``'s arguments on its parser ``p``: the
    shared flags first, in the order --format, --digits, --exact,
    --trial-budget, then its own."""
    shared = _COMMANDS[name][1]
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    if "digits" in shared:
        p.add_argument("--digits", type=int, default=6,
                       help="decimal digits for float columns (default: 6)")
    if "exact" in shared:
        p.add_argument("--exact", action=argparse.BooleanOptionalAction, default=True,
                       help="emit exact value columns alongside floats")
    if "budget" in shared:
        from .arith import DEFAULT_BUDGET
        p.add_argument("--trial-budget", type=int, default=DEFAULT_BUDGET.max_trial,
                       help="largest trial divisor attempted when factoring")

    if name in ("sum", "approx", "poly", "candidates", "threshold"):
        p.add_argument("--k", type=int, required=True)
    if name == "sum":
        p.add_argument("--m", type=int, required=True)
    elif name == "approx":
        p.add_argument("--m", type=_fraction_arg, required=True, metavar="RAT")
        p.add_argument("--p", type=int, default=None, help="correction terms to include")
    elif name == "poly":
        p.add_argument("--full-eml", action="store_true",
                       help="full-expansion polynomial instead of the truncated form")
    elif name == "signs":
        p.add_argument("--k-max", type=int, required=True)
    elif name == "ratios":
        from .candidates import CaseKind
        p.add_argument("--case", choices=[c.name for c in CaseKind], required=True)
        p.add_argument("--k-from", type=int, required=True)
        p.add_argument("--k-to", type=int, required=True)
        p.add_argument("--step", type=int, default=2)
    elif name == "search":
        p.add_argument("--k", type=_range_arg, required=True, metavar="LO..HI")
        p.add_argument("--m", type=_range_arg, required=True, metavar="LO..HI")
        p.add_argument("--jobs", type=int, default=1,
                       help="shard count; must be >= 1, the scan runs serially and "
                       "output never depends on it (default: 1)")
    elif name == "figure1":
        p.add_argument("--k-from", type=int, default=2)
        p.add_argument("--k-to", type=int, default=102)
        p.add_argument("--m-from", type=int, default=3)
        p.add_argument("--m-to", type=int, default=200)
    elif name == "figure2":
        p.add_argument("--k-to", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erdosmoser",
        description="Exact-arithmetic workbench for the Erdős–Moser power-sum equation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (module, _, help) in _COMMANDS.items():
        def handler(args, module=module):  # imports the handler's module only when it runs
            return getattr(import_module(f"{__package__}.{module}"), f"_cmd_{args.command}")(args)
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.command = name
    return parser


# Exact cells can pass the interpreter's 4,300-digit int->str limit.  The
# first of overlapping main() runs lifts it, and the last to leave restores
# the value the first one found.
_LIMIT_LOCK = threading.Lock()
_limit_runs = 0
_limit_found = None


def _hold_int_str_limit(entering: bool) -> None:
    global _limit_runs, _limit_found
    if not hasattr(sys, "get_int_max_str_digits"):
        return
    with _LIMIT_LOCK:
        if entering and not _limit_runs:
            _limit_found = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _limit_runs += 1 if entering else -1
        if not _limit_runs:
            sys.set_int_max_str_digits(_limit_found)


def main(argv: list[str] | None = None) -> int:
    _hold_int_str_limit(True)  # released on any exit
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            if "digits" in args and not 1 <= args.digits <= 50:
                raise DomainError(f"--digits must be in [1, 50], got {args.digits}")
            if "trial_budget" in args and args.trial_budget < 2:
                raise DomainError(f"--trial-budget must be >= 2, got {args.trial_budget}")
            params, columns, rows = args.handler(args)
        except (DomainError, BudgetExceededError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3 if isinstance(exc, BudgetExceededError) else 2
        from ._table import _emit
        try:
            _emit(args, params, columns, rows)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader went away (``| head``).  Point stdout at devnull so the
            # flush at interpreter exit does not raise a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        return 0
    finally:
        _hold_int_str_limit(False)
