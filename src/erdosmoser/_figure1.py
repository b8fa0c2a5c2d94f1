"""figure1's row kernel, in its own module so only figure1 runs compile it."""

import math

from .powersum import PowerSumQuery, sum_direct


def figure1_rows(k: int, ms: range, include_exact: bool):
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
        if not include_exact:
            del row[2::3]
        yield row
        running += power
        below = power
