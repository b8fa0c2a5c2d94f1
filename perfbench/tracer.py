"""Traced jobs for the per-layer metrics, one job per fresh process.

Usage: python3 perfbench/tracer.py JOB_JSON

Every job runs in its own interpreter, so the Bernoulli cache and the
``lru_cache``s of ``polyform`` start empty, as they do for a CLI user.
The result is one JSON object on the last line of stdout.

Job kinds:

``replay``
    Calls the public leaf functions that one CLI command reaches, on the
    same inputs and in the same order, and records one span per call.
    Spans are ``[trace_id, span_id, parent_id, name, start, end, extra]``
    with ``perf_counter`` times; group spans stand for a composite function
    and parent the leaves it would call.  ``extra`` marks a call the command
    itself does not make (a probe, or work the command does inside another
    leaf); it is left out when self time is derived.
``cli``
    Times ``erdosmoser.cli.main(argv)`` with stdout sent to a counting sink.
``sign_summary``, ``find_solutions``, ``sign_threshold``
    Times one composite public function on the command's inputs.
``probe``
    Cold scaling probes of one size s: ``bernoulli(2s)``, then
    ``cleared_poly(s)`` and ``full_eml_poly(s)`` with the Bernoulli
    numbers already cached, so each time belongs to one layer.
"""

import io
import json
import sys
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from erdosmoser.approx import RealArg, first_correction, sum_eml_leading  # noqa: E402
from erdosmoser.arith import bernoulli, divisors  # noqa: E402
from erdosmoser.candidates import CaseKind, candidate_roots, highlighted_candidates  # noqa: E402
from erdosmoser.cli import build_parser, main as cli_main  # noqa: E402
from erdosmoser.errors import BudgetExceededError  # noqa: E402
from erdosmoser.polyform import cleared_poly, eval_poly, full_eml_poly  # noqa: E402
from erdosmoser.powersum import PowerSumQuery, sum_direct, sum_eml_exact  # noqa: E402
from erdosmoser.search import find_solutions  # noqa: E402
from erdosmoser.signanalysis import dominance_ratio, sign_summary, sign_threshold  # noqa: E402

clock = time.perf_counter


class Tracer:
    """In-memory spans and counters for one CLI invocation."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._parents = [None]

    def call(self, name, fn, *args, extra=False):
        start = clock()
        result = fn(*args)
        end = clock()
        self.spans.append(
            [self.trace_id, len(self.spans), self._parents[-1], name, start, end, extra]
        )
        return result

    @contextmanager
    def group(self, name):
        span = [self.trace_id, len(self.spans), self._parents[-1], name, clock(), None, False]
        self.spans.append(span)
        self._parents.append(span[1])
        try:
            yield
        finally:
            self._parents.pop()
            span[5] = clock()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)


def _coeff_bits(poly) -> int:
    return max(abs(c).bit_length() for c in poly.coeffs)


def _sign_point(t: Tracer, k: int, m0: int, built: set) -> None:
    """sign_at / figure2: cleared polynomial (cached after the first k), then Horner."""
    poly = t.call("polyform.cleared_poly", cleared_poly, k).poly
    if k not in built:
        built.add(k)
        t.record_max("polyform.coeff_bits_max", _coeff_bits(poly))
    if t.call("polyform.eval_poly", eval_poly, poly, m0) == 0:
        t.count("signanalysis.zero_signs")


def _rational_root_constant(k: int) -> int:
    # The constant term candidate_roots factors: of the cleared polynomial
    # for even k, of its quotient by m for odd k.
    return 2 * (k - 1) if k % 2 == 0 else (k + 1) * (k - 2)


def replay_figure1(t: Tracer, args) -> None:
    for k in range(args.k_from, args.k_to + 1):
        t.call("powersum.sum_direct", sum_direct, PowerSumQuery(args.m_from - 1, k))
        for m in range(args.m_from, args.m_to + 1):
            arg = RealArg(Fraction(m))
            t.call("approx.sum_eml_leading", sum_eml_leading, arg, k)
            t.call("approx.first_correction", first_correction, arg, k)


def replay_signs(t: Tracer, args) -> None:
    built: set = set()
    with t.group("signanalysis.sign_summary"):
        for k in range(2, args.k_max + 1):
            for _case, m0 in t.call("candidates.highlighted_candidates", highlighted_candidates, k):
                _sign_point(t, k, m0, built)
            t.count("arith.divisors_calls")
            try:
                # candidate_roots factors the same constant again inside its own span
                t.call("arith.divisors", divisors, _rational_root_constant(k), extra=True)
            except BudgetExceededError:
                t.count("arith.divisors_budget_exceeded")
                continue
            cs = t.call("candidates.candidate_roots", candidate_roots, k)
            t.count("candidates.integer_candidates", len(cs.integer_candidates_ge3))
            for m0 in cs.integer_candidates_ge3:
                _sign_point(t, k, m0, built)


def replay_figure2(t: Tracer, args) -> None:
    built: set = set()
    for case in CaseKind:
        for k in range(case.min_k, args.k_to + 1, 2):
            _sign_point(t, k, case.candidate(k), built)
            t.call("signanalysis.dominance_ratio", dominance_ratio, k, case)


def replay_search(t: Tracer, args) -> None:
    (k_lo, k_hi), (m_lo, m_hi) = args.k, args.m
    with t.group("search.find_solutions"):
        for k in range(k_lo, k_hi + 1):
            t.call("powersum.sum_direct", sum_direct, PowerSumQuery(m_lo - 1, k))
    t.count("search.grid_points", (k_hi - k_lo + 1) * (m_hi - m_lo + 1))


def replay_threshold(t: Tracer, args) -> None:
    k = args.k
    with t.group("signanalysis.sign_threshold"):
        # full_eml_poly reads B_2 .. B_{2 floor(k/2)}; filling the cache first
        # moves the cold recurrence into its own span.
        n = 2 * (k // 2)
        t.call("arith.bernoulli", bernoulli, n)
        t.record_max("arith.bernoulli_max_n", n)
        cp = t.call("polyform.full_eml_poly", full_eml_poly, k)
        t.record_max("polyform.multiplier_bits", cp.multiplier.bit_length())
        t.record_max("polyform.coeff_bits_max", _coeff_bits(cp.poly))
        crossing = None
        for m in range(3, 4 * (k + 2) + 1):
            if t.call("polyform.eval_poly", eval_poly, cp.poly, m) > 0:
                crossing = m
                break
    if crossing is not None:
        # the one evaluation a bisecting search would repeat O(log m) times
        t.call("powersum.sum_eml_exact", sum_eml_exact, PowerSumQuery(crossing - 1, k), extra=True)


REPLAYS = {
    "figure1": replay_figure1,
    "signs": replay_signs,
    "figure2": replay_figure2,
    "search": replay_search,
    "threshold": replay_threshold,
}


class _CountingSink(io.TextIOBase):
    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, s):
        self.chars += len(s)
        return len(s)


def job_replay(job):
    args = build_parser().parse_args(job["argv"])
    t = Tracer(job["trace_id"])
    with t.group("cli." + args.command):
        REPLAYS[args.command](t, args)
    return {"spans": t.spans, "counts": t.counts, "maxima": t.maxima}


def job_cli(job):
    sink = _CountingSink()
    start = clock()
    with redirect_stdout(sink):
        code = cli_main(job["argv"])
    return {"s": clock() - start, "exit": code, "chars": sink.chars}


def _timed(fn, *args):
    start = clock()
    fn(*args)
    return {"s": clock() - start}


def job_sign_summary(job):
    return _timed(sign_summary, job["k_max"])


def job_find_solutions(job):
    return _timed(find_solutions, tuple(job["k"]), tuple(job["m"]), job["shards"])


def job_sign_threshold(job):
    return _timed(sign_threshold, job["k"])


def job_probe(job):
    s = job["size"]
    return {
        f"arith.bernoulli_s.n{2 * s}": _timed(bernoulli, 2 * s)["s"],
        f"polyform.cleared_poly_s.k{s}": _timed(cleared_poly, s)["s"],
        f"polyform.full_eml_poly_s.k{s}": _timed(full_eml_poly, s)["s"],
    }


JOBS = {
    "replay": job_replay,
    "cli": job_cli,
    "sign_summary": job_sign_summary,
    "find_solutions": job_find_solutions,
    "sign_threshold": job_sign_threshold,
    "probe": job_probe,
}


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    sys.stdout.write(json.dumps(JOBS[job["kind"]](job)) + "\n")
