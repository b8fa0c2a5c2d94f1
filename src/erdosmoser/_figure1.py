"""figure1: its handler, its row kernel and its row worker, in their own
module so only figure1 runs compile them.

Only this module knows that figure1 may be spelled in two processes.  Its
handler makes one group of rows per k, each k's whole m range in one run
of the kernel.  On one CPU it returns their rows in order, which
``_table._emit`` spells like any table's.  Where ``os.fork`` exists and
the process may run on 2 or more CPUs, it returns a function of
``_emit``'s row speller instead: a forked worker spells every second k's
group while this process spells the rest.  ``_emit`` does all the
writing, and the bytes, blocks and exit codes are the same either way.
"""

import math
import os
import sys
import threading

from ._table import INT, _triplet_columns
from .errors import DomainError, InternalConsistencyError
from .powersum import PowerSumQuery, sum_direct


def figure1_rows(k: int, ms: range):
    """Lazily, one row per m, every cell from m^k and (m-1)^k, carried from
    the previous m.  With d = 2(k+1), A = (2(m-1)+k+1)(m-1)^k + k - 1 is
    d S_R(m-1,k), c = A - d m^k, and the corrected difference is
    (12c + dk((m-1)^{k-1} - 1))/(12d).  The tests rebuild every cell through
    the Fraction forms ``approx.sum_eml_leading`` and ``first_correction``."""
    log10, gcd = math.log10, math.gcd
    d = 2 * (k + 1)
    running = sum_direct(PowerSumQuery(ms.start - 1, k))
    below = (ms.start - 1) ** k
    for m in ms:
        power = m**k
        a = (2 * m + k - 1) * below + k - 1
        c = a - d * power
        e = 12 * c + d * k * (below // (m - 1) - 1)
        g, h = gcd(a, d), gcd(e, 12 * d)  # gcd(c, d) = gcd(a, d)
        a, c, q, e, r, s = a // g, c // g, d // g, e // h, 12 * d // h, running - power
        # S, S_R and m^k are positive
        row = [
            k, m, running, log10(running), 1,
            a if q == 1 else f"{a}/{q}", log10(a) - log10(q), 1,
            power, log10(power), 1,
            c if q == 1 else f"{c}/{q}", log10(abs(c)) - log10(q) if c else None, (c > 0) - (c < 0),
            e if r == 1 else f"{e}/{r}", log10(abs(e)) - log10(r) if e else None, (e > 0) - (e < 0),
            s, log10(abs(s)) if s else None, (s > 0) - (s < 0),
        ]
        yield row
        running += power
        below = power


def _cmd_figure1(args):
    ks, ms = range(args.k_from, args.k_to + 1), range(args.m_from, args.m_to + 1)
    if not ks or ks.start < 1:
        raise DomainError(f"invalid k range [{args.k_from}, {args.k_to}]")
    if not ms or ms.start < 2:
        raise DomainError(f"invalid m range [{args.m_from}, {args.m_to}]")
    quantities = ("sum_exact", "sum_approx", "power", "diff_approx", "diff_corrected", "diff_exact")
    columns = [("k", INT), ("m", INT)] + _triplet_columns(quantities)
    params = {"k_from": args.k_from, "k_to": args.k_to, "m_from": args.m_from, "m_to": args.m_to}
    groups = {f"k={k}": figure1_rows(k, ms) for k in ks}
    # a fork copies no other thread, nor frees the locks they hold
    if not hasattr(os, "fork") or _cpus() < 2 or threading.active_count() > 1:
        return params, columns, (row for group in groups.values() for row in group)
    return params, columns, lambda line: _spelled(groups, line)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spelled(groups: dict, line):
    """The spelled rows of a dict of row groups, in order, spelled by ``line``
    in two processes: a forked row worker spells the groups at odd positions
    while this process spells the others.  The worker builds each whole group,
    then sends it through a pipe as the bytes ``_emit`` appends, one row per
    line, and an empty line closes the group: no spelled row is empty or holds
    a newline.  A line without its newline means the stream was cut.  The
    worker is reaped before this generator ends or is closed; on any exception
    it is killed first."""
    groups = list(groups.items())
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _row_worker([group for _, group in groups[1::2]], line, write_fd)
    os.close(write_fd)
    pipe, status = open(read_fd, "rb"), None
    try:
        for i, (label, group) in enumerate(groups):
            if i % 2 == 0:
                yield from map(line, group)
                continue
            for spelled in iter(pipe.readline, b"\n"):
                if not spelled.endswith(b"\n"):  # b"" at the end of the pipe, or a row cut short
                    status = os.waitpid(pid, 0)[1]
                    raise InternalConsistencyError(
                        "figure1 row worker ended with exit status "
                        f"{os.waitstatus_to_exitcode(status)} before sending group {label}")
                yield spelled[:-1]
        status = os.waitpid(pid, 0)[1]
        if status:
            raise InternalConsistencyError(
                f"figure1 row worker ended with exit status {os.waitstatus_to_exitcode(status)}")
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
    the bytes ``_emit`` appends to the pipe, one row per line, and an empty
    line to close the group.  Never touches stdout, prints its traceback to
    stderr on failure and always leaves through ``os._exit``, so no exception
    unwinds into the stack it shares with the parent."""
    code = 1
    try:
        with open(write_fd, "wb") as pipe:
            for group in groups:
                pipe.writelines([line(row) + b"\n" for row in group])  # the whole group first
                pipe.write(b"\n")
                pipe.flush()  # the parent takes the group while the next one is built
        code = 0
    except BaseException:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
