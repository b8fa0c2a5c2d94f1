"""The search and threshold handlers, which both scan for the sign
crossing, in their own module so their runs compile no other handler."""

from ._table import FLOAT, INT, TEXT
from .errors import DomainError
from .search import find_solutions, sign_crossing


def _cmd_search(args):
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
    params = {"k_from": args.k[0], "k_to": args.k[1], "m_from": args.m[0], "m_to": args.m[1]}
    return params, [("k", INT), ("m", INT)], find_solutions(args.k, args.m, shards=args.jobs)


def _cmd_threshold(args):
    crossing = sign_crossing(args.k)
    n = 3 * (args.k + 1)  # the prediction is n/2, spelled as str(Fraction(n, 2)) spells it
    predicted = str(n // 2) if n % 2 == 0 else f"{n}/2"
    columns = [("k", INT), ("predicted", TEXT), ("predicted_float", FLOAT), ("crossing", INT)]
    row = (args.k, predicted, n / 2, crossing)
    return {"k": args.k}, columns, [row]
