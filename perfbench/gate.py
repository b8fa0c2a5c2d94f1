"""Correctness gate for benchmark outputs; runs outside the timed region.

Two independent checks, neither of which imports the package:

* ``golden``: the sha256 of a fixed command's stdout must equal the digest
  recorded in ``golden.json``, which pins the byte-identical CLI contract.
* ``oracle``: rows chosen by the seed are recomputed from first principles
  (direct power sums, the closed form of the cleared polynomial, a direct
  scan for the sign crossing).
"""

import csv
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

#: Rows per output that the oracle recomputes.
SAMPLE_ROWS = 24


def golden(argv: list[str], digest: str) -> list[str]:
    """Problems with a fixed command's digest; none for commands without one."""
    expected = GOLDEN.get(" ".join(argv))
    if expected is None or expected == digest:
        return []
    return [f"{' '.join(argv)}: stdout sha256 {digest} != golden {expected}"]


def power_sum(n: int, k: int) -> int:
    return sum(i**k for i in range(1, n + 1))


def cleared_value(k: int, m: int) -> int:
    return 2 * (m - 1) ** (k + 1) + (k + 1) * (m - 1) ** k - 2 * (k + 1) * m**k + (k - 1)


def first_crossing(k: int) -> int:
    """First m >= 3 with 1^k + ... + (m-1)^k > m^k, by a direct scan."""
    m, running = 3, 1 + 2**k
    while running <= m**k:
        running += m**k
        m += 1
    return m


def _sign_name(value: int) -> str:
    return "POS" if value > 0 else "NEG" if value < 0 else "ZERO"


def _csv_rows(out: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out.decode())))


def _sample(rows: list, rng: random.Random) -> list:
    return rng.sample(rows, min(SAMPLE_ROWS, len(rows)))


def _check_figure1(out, rng):
    problems = []
    for row in _sample(_csv_rows(out), rng):
        k, m = int(row["k"]), int(row["m"])
        total, power = power_sum(m - 1, k), m**k
        for col, want in (("sum_exact", total), ("power", power), ("diff_exact", total - power)):
            if row[col] != str(want):
                problems.append(f"figure1 k={k} m={m}: {col} is not {want}")
    return problems


def _check_sign_rows(command, rows, rng):
    problems = [f"{command} k={r['k']} m0={r['m0']}: sign ZERO" for r in rows if r["sign"] == "ZERO"]
    if not rows:
        problems.append(f"{command}: no rows")
    for row in _sample(rows, rng):
        k, m0 = int(row["k"]), int(row["m0"])
        want = cleared_value(k, m0)
        if str(row["value"]) != str(want):
            problems.append(f"{command} k={k} m0={m0}: value differs from the closed form")
        if row["sign"] != _sign_name(want):
            problems.append(f"{command} k={k} m0={m0}: sign {row['sign']} != {_sign_name(want)}")
    return problems


def _check_signs(out, rng):
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return [f"signs: JSON does not parse: {exc}"]
    return _check_sign_rows("signs", doc["rows"], rng)


def _check_figure2(out, rng):
    return _check_sign_rows("figure2", _csv_rows(out), rng)


def _check_search(out, rng):
    rows = [(int(r["k"]), int(r["m"])) for r in _csv_rows(out)]
    return [] if rows == [(1, 3)] else [f"search: hits {rows} != [(1, 3)]"]


def _check_threshold(out, rng):
    rows = _csv_rows(out)
    if len(rows) != 1:
        return [f"threshold: {len(rows)} rows"]
    row = rows[0]
    k = int(row["k"])
    predicted = Fraction(3 * (k + 1), 2)
    problems = []
    if row["predicted"] != str(predicted):
        problems.append(f"threshold k={k}: predicted {row['predicted']} != {predicted}")
    if int(row["crossing"]) != first_crossing(k):
        problems.append(f"threshold k={k}: crossing {row['crossing']} != {first_crossing(k)}")
    return problems


ORACLES = {
    "figure1": _check_figure1,
    "signs": _check_signs,
    "figure2": _check_figure2,
    "search": _check_search,
    "threshold": _check_threshold,
}


def oracle(argv: list[str], out: bytes, seed: int) -> list[str]:
    """Problems found by recomputing seed-chosen rows of one command's stdout."""
    check = ORACLES.get(argv[0])
    if check is None:
        return []
    try:
        return check(out, random.Random(f"{seed}:{' '.join(argv)}"))
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        return [f"{argv[0]}: malformed output ({exc!r})"]
