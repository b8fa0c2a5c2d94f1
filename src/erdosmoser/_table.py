"""The cell kinds and the block writer that every table goes out through.

Each table declares its columns once, as (name, kind) pairs, and yields
every row whole, as a tuple in that order.  A cell is an int, text (an exact
integer or num/den string, or an enum name), exact (spelled as text; the
exact value beside float columns, and the only kind --no-exact drops), a
float (printed to --digits significant digits) or a bool (true/false); None
is an absent cell, empty in CSV and null in JSON.  Both formats go out in
blocks of about 64 KB as rows are computed, each built once as the bytes it
writes and written until stdout has taken every byte; JSON is still one
object, byte for byte what ``json.dumps`` gives for it.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, Iterable, Optional

SCHEMA_VERSION = "1"

# Cell kinds.  Their spellings never contain a comma, a quote or a line
# break: ints and exact text are digits, '-' and '/', enum names are
# [A-Z0-9_], floats are digits, '.', 'e', '+', '-', inf or nan, and bools
# are true/false.  So CSV needs no quoting.
INT, TEXT, EXACT, FLOAT, BOOL = "int", "text", "exact", "float", "bool"

_BLOCK = 64 * 1024  # bytes per block, CSV or JSON


def _triplet(num: int, den: int) -> tuple:
    """Exact, ``_log10`` and ``_sign`` cells of num/den, in lowest terms
    with den > 0; the exact cell spells as ``str(Fraction(num, den))``."""
    log10 = math.log10(abs(num)) - math.log10(den) if num else None
    return (num if den == 1 else f"{num}/{den}", log10, (num > 0) - (num < 0))


def _triplet_columns(names) -> list[tuple[str, str]]:
    return [col for name in names
            for col in ((name, EXACT), (f"{name}_log10", FLOAT), (f"{name}_sign", INT))]


def _spellings(digits: Optional[int]) -> dict:
    """(CSV, JSON, CSV template, JSON template) spelling of a present cell,
    per kind; a kind without a template is spelled cell by cell."""
    float_text = f"%.{digits}g"
    return {
        INT: (str, int, "%d", "%d"),
        TEXT: (str, str, "%s", '"%s"'),
        EXACT: (str, str, "%s", '"%s"'),
        FLOAT: (float_text.__mod__, lambda v: float(float_text % v), float_text, None),
        BOOL: (lambda v: "true" if v else "false", bool, None, None),
    }


def _emit(args, params: dict, columns: list, rows: Iterable | Callable) -> None:
    """Write the table in blocks as its rows arrive, each until stdout has
    taken every byte.  CSV is the header and one line per row, joined by
    newlines; JSON is the envelope and one object per row, joined by ", ",
    inside the "rows" list.  A row is one ``%`` on a template of the column
    kinds, or spelled cell by cell if a cell is None or a column's kind has
    no template (bool in CSV; float and bool in JSON, whose objects are
    then ``json.dumps``).  The JSON template quotes TEXT and EXACT cells
    unescaped: their spellings are ASCII digits, '-', '/' and [A-Z0-9_], so
    they never need JSON escaping.  The row speller returns the encoded row;
    ``rows`` is an iterable of rows, spelled here in order, or a function that
    takes the speller and returns a generator of encoded rows, closed when the
    writing ends or fails.  Each block is one bytearray, each encoded row
    appended after its separator: never held as text, joined or encoded whole.
    --no-exact drops every EXACT column, from the header and each row."""
    digits = getattr(args, "digits", None)  # only subcommands with float columns have it
    exact = getattr(args, "exact", True)  # only subcommands with EXACT columns have it
    kept = [i for i, (_, kind) in enumerate(columns) if exact or kind != EXACT]
    columns = [columns[i] for i in kept]
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
        # opened at the empty "rows" list, closed by its "]}"; the first row
        # object follows the "[" directly
        head, gap, sep, end = envelope[:-2].encode(), b"", b", ", envelope[-2:].encode() + b"\n"
        template = None if None in pieces else "{%s}" % ", ".join(
            f"{json.dumps(name)}: {piece}" for name, piece in zip(names, pieces))

        def per_cell(row):
            cells = zip(names, spell, row, strict=True)
            return json.dumps({n: None if v is None else f(v) for n, f, v in cells})
    else:
        head, gap, sep, end = ",".join(names).encode(), b"\n", b"\n", b"\n"
        template = None if None in pieces else ",".join(pieces)

        def per_cell(row):
            return ",".join(["" if v is None else f(v) for f, v in zip(spell, row, strict=True)])
    # %.0s eats a trailing None: CPython 3.11 never reuses the freed
    # 20-item tuples that figure1's rows would make
    template = template and template + "%.0s"

    def line(row):
        if template and None not in row:
            return (template % (*row, None)).encode()
        return per_cell(row).encode()
    if not exact:  # each row through its kept cells; a default run spells rows as they come
        full, pick = line, operator.itemgetter(*kept)

        def line(row):
            return full(pick(row))
    out = getattr(sys.stdout, "buffer", None)  # a text-only sink has none

    def write(block):
        if out is None:
            return sys.stdout.write(block.decode())
        data = memoryview(block)
        while data:  # once the reader has gone, this raises BrokenPipeError
            data = data[out.write(data):]
    sys.stdout.flush()  # text written before must come first
    lines = rows(line) if callable(rows) else (line(row) for row in rows)
    try:
        # a new bytearray per block: one that a memoryview still exports
        # cannot be resized
        block, size = bytearray(head), 0
        for spelled in lines:
            block += gap
            if size >= _BLOCK:  # flushed only when another row follows, so the trailing sep is right
                write(block)
                block, size = bytearray(), 0
            block += spelled
            gap, size = sep, size + len(spelled) + len(sep)
        block += end
        write(block)
    finally:
        lines.close()  # reaps a row worker even when a write failed
