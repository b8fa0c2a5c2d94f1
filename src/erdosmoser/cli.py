"""Command-line surface: emits every table and figure dataset as CSV or
JSON on stdout.  Each subcommand accepts only the flags it reads: all take
--format, those with float columns --digits, those with optional exact
columns --exact/--no-exact, those that factor --trial-budget, and search
--jobs.  Any other flag is a usage error.

Each table declares its columns once, as (name, kind) pairs, and yields
rows as tuples in that order.  A cell is an int, text (an exact integer
or num/den string, or an enum name), a float (printed to --digits
significant digits) or a bool (true/false); None is an absent cell, empty
in CSV and null in JSON.  Both formats go out in blocks of about 64 KB as
rows are computed, each written until stdout has taken every byte; JSON is
still one object, byte for byte what ``json.dumps`` gives for it.
figure1's rows fall into independent groups, one per half of each k's m
range; where the process may run on 2 or more CPUs and ``os.fork``
exists, a forked worker spells every second group while this process
spells the rest and does all the writing.  Its bytes, blocks and exit
codes are the same either way.  signs and figure2 compute their rows one
k at a time as they are written; signs factors every k before its first
row, so a budget overrun still leaves stdout empty.  A run loads only what
its subcommand needs: each handler imports the modules it runs, figure1
its kernel too, and ``fractions`` loads only where a Fraction is built.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 factorization
budget exceeded, 141 (128 + SIGPIPE) stdout closed by the reader before
the output ended, as in ``erdosmoser figure1 | head``, unbuffered too.
Output is byte-identical across runs and, for search, across --jobs
values; figures are emitted as data, never rendered.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import threading
from typing import Iterable, Optional

from . import __version__
from .arith import DEFAULT_BUDGET, DivisorBudget
from .candidates import CaseKind, candidate_roots
from .errors import BudgetExceededError, DomainError, InternalConsistencyError

SCHEMA_VERSION = "1"

# Cell kinds.  Their spellings never contain a comma, a quote or a line
# break: ints and exact text are digits, '-' and '/', enum names are
# [A-Z0-9_], floats are digits, '.', 'e', '+', '-', inf or nan, and bools
# are true/false.  So CSV needs no quoting.
INT, TEXT, FLOAT, BOOL = "int", "text", "float", "bool"

_BLOCK = 64 * 1024  # characters per block, CSV or JSON


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the stable contract
    # here is 1 for usage, 2 for domain errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _triplet(num: int, den: int, include_exact: bool) -> tuple:
    """Exact, ``_log10`` and ``_sign`` cells of num/den, in lowest terms
    with den > 0; the exact cell is what ``str(Fraction(num, den))`` gives."""
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
    """(CSV, JSON, CSV template, JSON template) spelling of a present cell,
    per kind; a kind without a template is spelled cell by cell."""
    float_text = f"%.{digits}g"
    return {
        INT: (str, int, "%d", "%d"),
        TEXT: (str, str, "%s", '"%s"'),
        FLOAT: (float_text.__mod__, lambda v: float(float_text % v), float_text, None),
        BOOL: (lambda v: "true" if v else "false", bool, None, None),
    }


def _emit(args, params: dict, columns: list, rows: Iterable) -> None:
    """Write the table in blocks as its rows arrive, each until stdout has
    taken every byte.  CSV is the header and one line per row, joined by
    newlines; JSON is the envelope and one object per row, joined by ", ",
    inside the "rows" list.  A row is one ``%`` on a template of the column
    kinds, or spelled cell by cell if a cell is None or a column's kind has
    no template (bool in CSV; float and bool in JSON, whose objects are
    then ``json.dumps``).  The JSON template quotes TEXT cells unescaped:
    TEXT spellings are ASCII digits, '-', '/' and [A-Z0-9_], so they never
    need JSON escaping.  ``rows`` is an iterable of rows, or a dict of
    independent row groups, which ``_spelled`` may spell in two processes;
    either way the block loop reads one iterator of spelled rows, so the
    blocks are the same."""
    digits = getattr(args, "digits", None)  # only subcommands with float columns have it
    names = [name for name, _ in columns]
    json_out = args.format == "json"
    kinds = _spellings(digits)
    spell = [kinds[kind][json_out] for _, kind in columns]
    pieces = [kinds[kind][2 + json_out] for _, kind in columns]
    if json_out:
        import json  # CSV runs never pay for this import
        envelope = json.dumps(
            {"schema_version": SCHEMA_VERSION, "command": args.command, "params": params, "rows": []}
        )
        # opened at the empty "rows" list, closed by its "]}"
        text, block, sep, end = envelope[:-2], [], ", ", envelope[-2:] + "\n"
        template = None if None in pieces else "{%s}" % ", ".join(
            f"{json.dumps(name)}: {piece}" for name, piece in zip(names, pieces))

        def per_cell(row):
            cells = zip(names, spell, row, strict=True)
            return json.dumps({n: None if v is None else f(v) for n, f, v in cells})
    else:
        text, block, sep, end = "", [",".join(names)], "\n", "\n"
        template = None if None in pieces else ",".join(pieces)

        def per_cell(row):
            return ",".join(["" if v is None else f(v) for f, v in zip(spell, row, strict=True)])
    # %.0s eats a trailing None: CPython 3.11 never reuses the freed
    # 20-item tuples that figure1's rows would make
    template = template and template + "%.0s"

    def line(row):
        if template and None not in row:
            return template % (*row, None)
        return per_cell(row)
    out = getattr(sys.stdout, "buffer", None)  # a text-only sink has none

    def write(part):
        if out is None:
            return sys.stdout.write(part)
        data = memoryview(part.encode())
        while data:  # once the reader has gone, this raises BrokenPipeError
            data = data[out.write(data):]
    sys.stdout.flush()  # text written before must come first
    lines = _spelled(rows, line, args.command)
    try:
        size = 0
        for spelled in lines:
            if size >= _BLOCK:  # flushed only when another row follows, so the trailing sep is right
                write(text + sep.join(block) + sep)
                text, block, size = "", [], 0
            block.append(spelled)
            size += len(spelled) + len(sep)
        write(text + sep.join(block) + end)
    finally:
        lines.close()  # reaps a row worker even when a write failed


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spelled(rows, line, command: str):
    """The spelled rows, in order.  A dict of row groups, on a platform
    with ``os.fork`` where this process may run on 2 or more CPUs and runs
    one thread (a fork copies no other thread, nor frees the locks they
    hold), is spelled in two processes: a forked row worker spells the
    groups at odd positions while this process spells the others.  The
    worker builds each whole group, then sends it through a pipe as text,
    each row ended by a newline, and an empty line closes the group: no
    spelled row is empty or holds a newline.  A line without its newline
    means the stream was cut.  The worker is reaped before this generator
    ends or is closed; on any exception it is killed first."""
    groups = list(rows.items()) if isinstance(rows, dict) else [(None, rows)]
    if len(groups) < 2 or not hasattr(os, "fork") or _cpus() < 2 or threading.active_count() > 1:
        for _, group in groups:
            yield from map(line, group)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _row_worker([group for _, group in groups[1::2]], line, write_fd)
    os.close(write_fd)
    pipe, status = open(read_fd, encoding="utf-8", newline="\n"), None
    try:
        for i, (label, group) in enumerate(groups):
            if i % 2 == 0:
                yield from map(line, group)
                continue
            for spelled in iter(pipe.readline, "\n"):
                if not spelled.endswith("\n"):  # "" at the end of the pipe, or a row cut short
                    status = os.waitpid(pid, 0)[1]
                    raise InternalConsistencyError(
                        f"{command} row worker ended with exit status "
                        f"{os.waitstatus_to_exitcode(status)} before sending group {label}")
                yield spelled[:-1]
        status = os.waitpid(pid, 0)[1]
        if status:
            raise InternalConsistencyError(
                f"{command} row worker ended with exit status {os.waitstatus_to_exitcode(status)}")
    finally:
        if status is None:
            # killed before the pipe closes: a worker that met the closed
            # pipe would print a traceback
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        pipe.close()


def _row_worker(groups: list, line, write_fd: int):
    """The forked side of ``_spelled``: spells each group whole, then writes
    its rows to the pipe, each ended by a newline, and an empty line to
    close the group.  Never touches stdout, prints its traceback to stderr
    on failure and always leaves through ``os._exit``, so no exception
    unwinds into the stack it shares with the parent."""
    code = 1
    try:
        with open(write_fd, "w", encoding="utf-8", newline="\n") as pipe:
            for group in groups:
                pipe.writelines([line(row) + "\n" for row in group])  # the whole group first
                pipe.write("\n")
                pipe.flush()  # the parent takes the group while the next one is built
        code = 0
    except BaseException:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _cmd_sum(args):
    from .powersum import PowerSumQuery, sum_direct, sum_eml_exact
    if args.m < 2:
        raise DomainError(f"--m must be >= 2, got {args.m}")
    query = PowerSumQuery(args.m - 1, args.k)
    direct = sum_direct(query)
    expansion = sum_eml_exact(query)
    columns = [("k", INT), ("m", INT), ("sum_direct", TEXT), ("sum_eml", TEXT), ("diff", TEXT)]
    row = (args.k, args.m, direct, expansion, direct - expansion)
    return {"k": args.k, "m": args.m}, columns, [row]


def _cmd_approx(args):
    from .approx import RealArg, correction_ratio, first_correction, sum_eml_leading, sum_eml_truncated
    arg = RealArg(args.m)
    p = args.p if args.p is not None else args.k // 2
    values = {
        "sum_approx": sum_eml_leading(arg, args.k),
        "first_correction": first_correction(arg, args.k),
        "correction_ratio": correction_ratio(arg, args.k) if arg.m >= 3 else None,
        "sum_truncated": sum_eml_truncated(arg, args.k, p),
    }
    row = (args.k, arg.m, p)
    for value in values.values():
        if value is None:
            row += (None,) * (3 if args.exact else 2)
        else:
            row += _triplet(value.numerator, value.denominator, args.exact)
    columns = [("k", INT), ("m", TEXT), ("p", INT)] + _triplet_columns(values, args.exact)
    params = {"k": args.k, "m": str(arg.m), "p": p}
    return params, columns, [row]


def _cmd_poly(args):
    from .polyform import cleared_poly, full_eml_poly
    cp = full_eml_poly(args.k) if args.full_eml else cleared_poly(args.k)
    params = {"k": args.k, "full_eml": args.full_eml, "degree": cp.poly.degree,
              "multiplier": str(cp.multiplier), "leading": str(cp.poly.coeffs[-1])}
    return params, [("power", INT), ("coefficient", TEXT)], enumerate(cp.poly.coeffs)


def _cmd_candidates(args):
    cs = candidate_roots(args.k, DivisorBudget(args.trial_budget))
    # the same set as cs.integer_candidates_ge3: every integer candidate is a divisor
    rows = [(c, c.denominator == 1, c.denominator == 1 and c >= 3) for c in cs.all_candidates]
    params = {"k": cs.k, "source": cs.source.value, "factored_root_zero": cs.factored_root_zero,
              "count": len(cs.all_candidates)}
    columns = [("candidate", TEXT), ("is_integer", BOOL), ("integer_ge3", BOOL)]
    return params, columns, rows


def _cmd_signs(args):
    """Factors every k up front, so a domain error or a budget overrun
    exits before any output, then evaluates and yields one k at a time,
    keeping no list of all reports.  The warning about ZERO rows goes to
    stderr once the last row has been produced; when the reader leaves
    early (``| head``, exit 141), rows never reached are never evaluated,
    so they are not counted and no warning is printed for them."""
    from .signanalysis import Sign, sign_candidates, sign_reports
    candidates = sign_candidates(args.k_max, DivisorBudget(args.trial_budget))

    def rows():
        zeros = 0
        for k, integers in candidates.items():
            for r in sign_reports(k, integers):
                zeros += r.sign is Sign.ZERO
                yield (r.k, "FULL_SET" if r.case is None else r.case.name, r.m0, r.value, r.sign.name)
        if zeros:
            print(f"warning: {zeros} candidate(s) evaluate to exactly zero, "
                  "i.e. the cleared polynomial has a rational root", file=sys.stderr)

    columns = [("k", INT), ("case", TEXT), ("m0", INT), ("value", TEXT), ("sign", TEXT)]
    return {"k_max": args.k_max}, columns, rows()


def _cmd_ratios(args):
    from .signanalysis import dominance_series
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
            row += (point.exact,)
        rows.append(row + (point.limit, series.decreasing_from_start))
    params = {"case": case.name, "k_from": args.k_from, "k_to": args.k_to, "step": args.step,
              "monotone_start": series.monotone_start}
    return params, columns, rows


def _cmd_threshold(args):
    from .search import sign_threshold
    predicted, crossing = sign_threshold(args.k)
    columns = [("k", INT), ("predicted", TEXT), ("predicted_float", FLOAT), ("crossing", INT)]
    row = (args.k, predicted, float(predicted), crossing)
    return {"k": args.k}, columns, [row]


def _cmd_search(args):
    from .search import find_solutions
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    params = {"k_from": args.k[0], "k_to": args.k[1], "m_from": args.m[0], "m_to": args.m[1]}
    return params, [("k", INT), ("m", INT)], find_solutions(args.k, args.m, shards=args.jobs)


def _cmd_figure1(args):
    from ._figure1 import figure1_rows
    ks, ms = range(args.k_from, args.k_to + 1), range(args.m_from, args.m_to + 1)
    if not ks or ks.start < 1:
        raise DomainError(f"invalid k range [{args.k_from}, {args.k_to}]")
    if not ms or ms.start < 2:
        raise DomainError(f"invalid m range [{args.m_from}, {args.m_to}]")
    quantities = ("sum_exact", "sum_approx", "power", "diff_approx", "diff_corrected", "diff_exact")
    columns = [("k", INT), ("m", INT)] + _triplet_columns(quantities, args.exact)
    params = {"k_from": args.k_from, "k_to": args.k_to, "m_from": args.m_from, "m_to": args.m_to}
    half = len(ms) // 2
    groups = {f"(k={k}, m={part.start}..{part.stop - 1})": figure1_rows(k, part, args.exact)
              for k in ks for part in (ms[:half], ms[half:])}
    return params, columns, groups


def _cmd_figure2(args):
    from .signanalysis import dominance_ratio, sign_at
    if args.k_to < 4:
        raise DomainError(f"--k-to must be >= 4, got {args.k_to}")

    def rows():
        for case in CaseKind:
            for k in range(case.min_k, args.k_to + 1, 2):
                report = sign_at(k, case.candidate(k), case)
                point = dominance_ratio(k, case)
                row = (case.name, k, report.m0, *_triplet(report.value, 1, args.exact))
                yield row + (report.sign.name, point.value, point.limit)

    columns = (
        [("case", TEXT), ("k", INT), ("m0", INT)]
        + _triplet_columns(["value"], args.exact)
        + [("sign", TEXT), ("ratio", FLOAT), ("limit", FLOAT)]
    )
    return {"k_to": args.k_to}, columns, rows()


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

    def command(name, handler, parents, help):
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("sum", _cmd_sum, [fmt], "direct power sum and its full expansion at integer m")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = command("approx", _cmd_approx, [fmt, digits, exact],
                "truncated approximants at a rational point m")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=_fraction_arg, required=True, metavar="RAT")
    p.add_argument("--p", type=int, default=None, help="correction terms to include")

    p = command("poly", _cmd_poly, [fmt], "cleared polynomial coefficients")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--full-eml", action="store_true",
                   help="full-expansion polynomial instead of the truncated form")

    p = command("candidates", _cmd_candidates, [fmt, budget],
                "rational-root candidates for one exponent")
    p.add_argument("--k", type=int, required=True)

    p = command("signs", _cmd_signs, [fmt, budget], "exact signs at all candidates up to a k bound")
    p.add_argument("--k-max", type=int, required=True)

    p = command("ratios", _cmd_ratios, [fmt, digits, exact], "dominance-ratio series for one case")
    p.add_argument("--case", choices=[c.name for c in CaseKind], required=True)
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--step", type=int, default=2)

    p = command("threshold", _cmd_threshold, [fmt, digits], "predicted and exact sign-crossing point")
    p.add_argument("--k", type=int, required=True)

    p = command("search", _cmd_search, [fmt], "brute-force scan for exact solutions")
    p.add_argument("--k", type=_range_arg, required=True, metavar="LO..HI")
    p.add_argument("--m", type=_range_arg, required=True, metavar="LO..HI")
    p.add_argument("--jobs", type=int, default=1,
                   help="shard count; must be >= 1, the scan runs serially and "
                   "output never depends on it (default: 1)")

    p = command("figure1", _cmd_figure1, [fmt, digits, exact],
                "sum/approximant/difference grid over (k, m)")
    p.add_argument("--k-from", type=int, default=2)
    p.add_argument("--k-to", type=int, default=102)
    p.add_argument("--m-from", type=int, default=3)
    p.add_argument("--m-to", type=int, default=200)

    p = command("figure2", _cmd_figure2, [fmt, digits, exact],
                "per-case candidate values, signs and ratios over k")
    p.add_argument("--k-to", type=int, required=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # exact cells can pass the 4,300-digit int->str limit; restored on any exit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
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
        if limit is not None:
            sys.set_int_max_str_digits(limit)
