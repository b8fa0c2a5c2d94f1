"""Cold-process benchmark of the ``erdosmoser`` CLI.

Usage:
    python3 perfbench/run.py --workload {grid,signs,crossing} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout.  Every timed operation is one CLI
invocation in a fresh interpreter (through ``launch.py``), so each starts
with the package's caches empty, as it does for a user.  One driver process
runs one child at a time.

``--trace 0`` repeats the workload's invocations until S seconds have
passed, one ``--version`` start-up between repetitions, and prints the
end-to-end metrics as medians over repetitions.  ``--trace 1`` runs the
workload once untraced, then its traced replays, composite timings and
scaling probes (``tracer.py``), each in a fresh process, writes the spans
to ``perfbench/out/`` and prints the per-layer metrics.

Outputs are gated outside the timed region (``gate.py``).  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it carries the run metadata.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
TRACER = HERE / "tracer.py"
OUT_DIR = HERE / "out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Sizes s of the scaling probes: bernoulli(2s), cleared_poly(s), full_eml_poly(s).
PROBE_SIZES = (100, 200, 400)
#: Minimum number of ``--version`` start-ups whose median is setup_s.
MIN_SETUP_SAMPLES = 5


def crossing_ks(rng: random.Random) -> list[int]:
    """Three threshold exponents from 300..420: an antithetic pair 300+o and
    420-o plus one near the middle, so the summed threshold cost hardly
    depends on the seed while the gate sees different k on every seed."""
    o = rng.randint(0, 30)
    return sorted((300 + o, rng.randint(350, 370), 420 - o))


def workload_argvs(name: str, rng: random.Random) -> list[list[str]]:
    if name == "grid":
        return [["figure1"]]
    if name == "signs":
        return [["signs", "--k-max", "400", "--format", "json"], ["figure2", "--k-to", "400"]]
    search = ["search", "--k", "1..40", "--m", "3..20000", "--jobs", "2"]
    return [search] + [["threshold", "--k", str(k)] for k in crossing_ks(rng)]


# ---------------------------------------------------------------------------
# one cold CLI invocation


class Invocation:
    """One finished child: timings, peak memory, digest and (optionally) stdout."""

    def __init__(self, argv):
        self.argv = argv
        self.wall_s = self.first_row_s = 0.0
        self.vmhwm_kb = 0
        self.exit = None
        self.nbytes = 0
        self.sha256 = ""
        self.out = None
        self.problems: list[str] = []

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.problems)


def _first_row_done(head: bytes, is_json: bool) -> bool:
    # CSV: header line plus one data line.  JSON: the first row object (rows
    # hold only scalars) or the end of an empty row list.
    if not is_json:
        return head.count(b"\n") >= 2
    at = head.find(b'"rows": [')
    return at >= 0 and head.find(b"}", at) >= 0


def invoke(argv: list[str], capture: bool = False) -> Invocation:
    """Run ``erdosmoser ARGV`` cold; time from spawn until stdout reaches EOF
    and the child is reaped, hashing stdout as it streams."""
    inv = Invocation(argv)
    is_json = "json" in argv
    digest = hashlib.sha256()
    parts, head = [], b""
    report_r, report_w = os.pipe()
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(report_w), *argv],
            stdout=subprocess.PIPE, pass_fds=(report_w,), cwd=ROOT,
        )
    finally:
        os.close(report_w)
    with proc.stdout:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            digest.update(chunk)
            inv.nbytes += len(chunk)
            if capture:
                parts.append(chunk)
            if head is not None:
                head += chunk
                if _first_row_done(head, is_json):
                    inv.first_row_s = time.perf_counter() - start
                    head = None
    with os.fdopen(report_r, "rb") as report_file:
        report = report_file.read()
    inv.exit = proc.wait()
    inv.wall_s = time.perf_counter() - start
    if head is not None:  # no data row: the first row never came before EOF
        inv.first_row_s = inv.wall_s
    inv.vmhwm_kb = json.loads(report)["vmhwm_kb"] if report else 0
    inv.sha256 = digest.hexdigest()
    inv.out = b"".join(parts) if capture else None
    return inv


def run_rep(argvs, capture: bool) -> list[Invocation]:
    return [invoke(argv, capture) for argv in argvs]


def gate_reps(reps: list[list[Invocation]], seed: int) -> None:
    """Golden digests for every invocation, oracles on the captured first
    repetition, and identical stdout across repetitions of one command."""
    for inv in reps[0]:
        inv.problems += gate.oracle(inv.argv, inv.out, seed)
        inv.out = None
    for rep in reps:
        for inv, first in zip(rep, reps[0]):
            inv.problems += gate.golden(inv.argv, inv.sha256)
            if inv.sha256 != first.sha256:
                inv.problems.append(f"{' '.join(inv.argv)}: stdout differs between repetitions")


def report_problems(invocations) -> None:
    for inv in invocations:
        if inv.exit != 0:
            print(f"gate: {' '.join(inv.argv)} exited {inv.exit}", file=sys.stderr)
        for problem in inv.problems:
            print(f"gate: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)


def measure_end_to_end(argvs, seed: int, seconds: float) -> dict:
    invoke(["--version"])  # compile bytecode once; not a sample
    setup, reps = [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        setup.append(invoke(["--version"]))
        reps.append(run_rep(argvs, capture=not reps))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(invoke(["--version"]))
    gate_reps(reps, seed)
    invocations = setup + [inv for rep in reps for inv in rep]
    report_problems(invocations)
    failed = sum(inv.failed for inv in invocations)
    med = statistics.median
    metrics = {
        "setup_s": med(inv.wall_s for inv in setup),
        "wall_s": med(sum(inv.wall_s for inv in rep) for rep in reps),
        "first_row_s": med(sum(inv.first_row_s for inv in rep) for rep in reps),
        "peak_rss_mb": med(max(inv.vmhwm_kb for inv in rep) / 1024 for rep in reps),
        "ok_ratio": (len(invocations) - failed) / len(invocations),
    }
    return {"attempted": len(invocations), "failed": failed, "metrics": metrics,
            "samples": {"setup": len(setup), "reps": len(reps)}}


# ---------------------------------------------------------------------------
# traced run (--trace 1)


def run_job(job: dict) -> tuple[dict, float, float]:
    """One tracer job in a fresh process: (result, wall seconds, CPU seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(TRACER), json.dumps(job)], stdout=subprocess.PIPE, cwd=ROOT,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"tracer job {job['kind']} exited {proc.returncode}")
    return json.loads(out.splitlines()[-1]), wall, usage.ru_utime + usage.ru_stime


#: Replay group span -> the composite job timing the function it stands for.
GROUP_COMPOSITES = {
    "signanalysis.sign_summary": "sign_summary",
    "search.find_solutions": "find_solutions",
    "signanalysis.sign_threshold": "sign_threshold",
}


def composite_jobs(argv: list[str]) -> list[dict]:
    """Fresh-process timings of the composite public functions ``argv`` reaches."""
    jobs = [{"kind": "cli", "argv": argv}]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "signs":
        jobs.append({"kind": "sign_summary", "k_max": int(opts["--k-max"])})
    elif argv[0] == "search":
        k_range, m_range = ([int(x) for x in opts[o].split("..")] for o in ("--k", "--m"))
        jobs.append({"kind": "find_solutions", "k": k_range, "m": m_range,
                     "shards": int(opts.get("--jobs", 1))})
    elif argv[0] == "threshold":
        jobs.append({"kind": "sign_threshold", "k": int(opts["--k"])})
    return jobs


def span_totals(spans) -> dict:
    """Per span name: [seconds, calls]."""
    totals = {}
    for _tid, _sid, _parent, name, start, end, _extra in spans:
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += end - start
        entry[1] += 1
    return totals


def children(spans, parent) -> list:
    return [span for span in spans if span[2] == parent[1]]


def leaf_seconds(spans) -> float:
    """Summed duration of leaf spans, leaving out calls the command does not make."""
    return sum(end - start for *_, start, end, extra in spans if not extra)


def measure_traced(argvs, seed: int, workload: str) -> dict:
    invoke(["--version"])  # compile bytecode once
    rep = run_rep(argvs, capture=True)
    rows = 0
    for inv in rep:
        if "json" in inv.argv:
            rows += len(json.loads(inv.out)["rows"])
        else:
            rows += inv.out.count(b"\n") - 1
    gate_reps([rep], seed)
    untraced_wall = sum(inv.wall_s for inv in rep)

    spans, counts, maxima, derived = [], {}, {}, {}
    composite_s: dict = {}
    traced_wall = 0.0
    cli_main = cli_self = find_cpu = 0.0
    for i, argv in enumerate(argvs):
        trace_id = f"{workload}-{seed}-{i}"
        result, wall, _ = run_job({"kind": "replay", "argv": argv, "trace_id": trace_id})
        traced_wall += wall
        inv_spans = result["spans"]
        spans += inv_spans
        for name, n in result["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in result["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), n)
        composites = {}
        for job in composite_jobs(argv):
            out, wall, cpu = run_job(job)
            traced_wall += wall
            composites[job["kind"]] = out
            if job["kind"] == "find_solutions":
                find_cpu += cpu
            elif job["kind"] == "cli" and (out["exit"] != 0 or out["chars"] != rep[i].nbytes):
                rep[i].problems.append(f"{' '.join(argv)}: traced cli.main differs from the CLI run")
        # Self time, derived: a composite's fresh-process time minus what its
        # children cover, each child group by its own composite time.
        covered = 0.0
        for child in children(inv_spans, inv_spans[0]):
            kind = GROUP_COMPOSITES.get(child[3])
            if kind is None:
                covered += leaf_seconds([child])
                continue
            composite_s[kind] = composite_s.get(kind, 0.0) + composites[kind]["s"]
            covered += composites[kind]["s"]
            derived[f"{trace_id} {child[3]}.self_s"] = (
                composites[kind]["s"] - leaf_seconds(children(inv_spans, child)))
        cli_main += composites["cli"]["s"]
        cli_self += composites["cli"]["s"] - covered
        derived[f"{trace_id} cli.self_s"] = composites["cli"]["s"] - covered

    probes = {}
    for size in PROBE_SIZES:
        probes.update(run_job({"kind": "probe", "size": size})[0])

    totals = span_totals(spans)

    def seconds(name):
        return totals.get(name, (0.0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    metrics = {
        "cli.main_s": cli_main,
        "cli.self_s": cli_self,
        "cli.out_bytes": sum(inv.nbytes for inv in rep),
        "cli.rows": rows,
        "approx.sum_eml_leading_s": seconds("approx.sum_eml_leading"),
        "approx.first_correction_s": seconds("approx.first_correction"),
        "approx.calls": calls("approx.sum_eml_leading") + calls("approx.first_correction"),
        "powersum.sum_direct_s": seconds("powersum.sum_direct"),
        "powersum.sum_direct_calls": calls("powersum.sum_direct"),
        "powersum.sum_eml_exact_s": seconds("powersum.sum_eml_exact"),
        "search.find_solutions_s": composite_s.get("find_solutions", 0.0),
        "search.find_solutions_cpu_s": find_cpu,
        "search.grid_points": counts.get("search.grid_points", 0),
        "arith.bernoulli_s": seconds("arith.bernoulli"),
        "arith.bernoulli_max_n": maxima.get("arith.bernoulli_max_n", 0),
        "arith.divisors_s": seconds("arith.divisors"),
        "arith.divisors_calls": counts.get("arith.divisors_calls", 0),
        "arith.divisors_budget_exceeded": counts.get("arith.divisors_budget_exceeded", 0),
        "polyform.cleared_poly_s": seconds("polyform.cleared_poly"),
        "polyform.cleared_poly_calls": calls("polyform.cleared_poly"),
        "polyform.eval_poly_s": seconds("polyform.eval_poly"),
        "polyform.eval_poly_calls": calls("polyform.eval_poly"),
        "polyform.coeff_bits_max": maxima.get("polyform.coeff_bits_max", 0),
        "polyform.full_eml_poly_s": seconds("polyform.full_eml_poly"),
        "polyform.multiplier_bits": maxima.get("polyform.multiplier_bits", 0),
        "candidates.candidate_roots_s": seconds("candidates.candidate_roots"),
        "candidates.highlighted_candidates_s": seconds("candidates.highlighted_candidates"),
        "candidates.integer_candidates": counts.get("candidates.integer_candidates", 0),
        "signanalysis.sign_summary_s": composite_s.get("sign_summary", 0.0),
        "signanalysis.dominance_ratio_s": seconds("signanalysis.dominance_ratio"),
        "signanalysis.sign_threshold_s": composite_s.get("sign_threshold", 0.0),
        "signanalysis.zero_signs": counts.get("signanalysis.zero_signs", 0),
        "trace.overhead_s": traced_wall - untraced_wall,
        **probes,
    }
    report_problems(rep)
    failed = sum(inv.failed for inv in rep)
    trace_doc = {
        "spans_format": ["trace_id", "span_id", "parent_id", "name", "start", "end", "extra"],
        "spans": spans,
        "derived_self_s": derived,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
    }
    return {"attempted": len(rep), "failed": failed, "metrics": metrics, "trace": trace_doc}


# ---------------------------------------------------------------------------
# metadata and entry point


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: str, seed: int, argvs) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "argvs": argvs,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def typed(metrics: dict, specs: list[dict]) -> dict:
    """Attach units and check that the names are exactly those of BENCHMARK.json."""
    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "erdosmoser" / "cli.py").is_file():
        print(f"run.py: no erdosmoser sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    argvs = workload_argvs(args.workload, random.Random(args.seed))
    meta = metadata(args.workload, args.seed, argvs)
    if args.trace:
        result = measure_traced(argvs, args.seed, args.workload)
        metrics = typed(result["metrics"], BENCHMARK["per_layer"])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, "metrics": metrics, **result["trace"]}))
        meta["trace_file"] = str(path.relative_to(ROOT))
    else:
        result = measure_end_to_end(argvs, args.seed, args.seconds)
        metrics = typed(result["metrics"], BENCHMARK["end_to_end"])
        meta["samples"] = result["samples"]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
