"""The handlers of the seven subcommands other than search, threshold and
figure1.  signs and figure2 compute their rows one k at a time as they are
written; signs factors every k before its first row, so a budget overrun
still leaves stdout empty."""

import sys

from ._table import BOOL, EXACT, FLOAT, INT, TEXT, _triplet, _triplet_columns
from .arith import DivisorBudget
from .candidates import CaseKind, Source, candidate_roots
from .errors import DomainError


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
        row += (None,) * 3 if value is None else _triplet(value.numerator, value.denominator)
    columns = [("k", INT), ("m", TEXT), ("p", INT)] + _triplet_columns(values)
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
    params = {"k": cs.k, "source": cs.source.value,
              "factored_root_zero": cs.source is Source.QUOTIENT, "count": len(cs.all_candidates)}
    columns = [("candidate", TEXT), ("is_integer", BOOL), ("integer_ge3", BOOL)]
    return params, columns, rows


def _cmd_signs(args):
    """Factors every k up front, so a domain error or a budget overrun
    exits before any output, then evaluates and yields one k at a time,
    keeping no list of all reports.  The warning about ZERO rows goes to
    stderr once the last row has been produced; when the reader leaves
    early (``| head``, exit 141), rows never reached are never evaluated,
    so they are not counted and no warning is printed for them."""
    from .signanalysis import sign_candidates, sign_reports
    candidates = sign_candidates(args.k_max, DivisorBudget(args.trial_budget))

    def rows():
        zeros = 0
        for k, integers in candidates.items():
            for r in sign_reports(k, integers):
                zeros += r.value == 0
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
    columns = [("case", TEXT), ("k", INT), ("ratio", FLOAT), ("exact", EXACT), ("limit", FLOAT),
               ("series_decreasing", BOOL)]
    rows = [(case.name, point.k, point.value, point.exact, case.limit, series.decreasing_from_start)
            for point in series.points]
    params = {"case": case.name, "k_from": args.k_from, "k_to": args.k_to, "step": args.step,
              "monotone_start": case.monotone_start}
    return params, columns, rows


def _cmd_figure2(args):
    from .signanalysis import case_point
    if args.k_to < 4:
        raise DomainError(f"--k-to must be >= 4, got {args.k_to}")

    def rows():
        for case in CaseKind:
            for k in range(case.min_k, args.k_to + 1, 2):
                report, ratio = case_point(k, case)
                row = (case.name, k, report.m0, *_triplet(report.value, 1))
                yield row + (report.sign.name, ratio, case.limit)

    columns = (
        [("case", TEXT), ("k", INT), ("m0", INT)]
        + _triplet_columns(["value"])
        + [("sign", TEXT), ("ratio", FLOAT), ("limit", FLOAT)]
    )
    return {"k_to": args.k_to}, columns, rows()
