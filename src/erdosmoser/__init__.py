"""Exact-arithmetic workbench for the Erdős–Moser power-sum equation
1^k + 2^k + ... + (m-1)^k = m^k.

Every computation is exact (big integers and rationals): direct power
sums, full and truncated Euler-Maclaurin expansions, the cleared integer
polynomials whose rational roots bound possible solutions, sign and
dominance-ratio analyses at the candidate roots, and a brute-force
solution search.  The :mod:`erdosmoser.cli` module serializes all of it as
CSV/JSON datasets.
"""

from .approx import *
from .arith import *
from .candidates import *
from .errors import *
from .polyform import *
from .powersum import *
from .search import *
from .signanalysis import *

__version__ = "0.1.0"

__all__ = (
    approx.__all__
    + arith.__all__
    + candidates.__all__
    + errors.__all__
    + polyform.__all__
    + powersum.__all__
    + search.__all__
    + signanalysis.__all__
)
