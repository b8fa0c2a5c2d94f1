import csv
import hashlib
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import erdosmoser
from erdosmoser import _crossing, _figure1, _table, cli, signanalysis
from erdosmoser.approx import RealArg, first_correction, sum_eml_leading
from erdosmoser.cli import main
from erdosmoser.errors import InternalConsistencyError
from erdosmoser.polyform import cleared_poly, cleared_value, eval_poly
from erdosmoser.powersum import PowerSumQuery, sum_direct


@pytest.fixture
def unlimited_int_str():
    """Lift this process's int->str digit limit for the test, where it has one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class ShortWriter(io.RawIOBase):
    """A binary stdout that takes at most 1,000 bytes per write, as a raw
    pipe may under PYTHONUNBUFFERED=1.  With ``gone``, every write after the
    first raises BrokenPipeError, as when the reader leaves mid-block."""

    def __init__(self, gone=False, fd=None):
        self.taken, self.gone, self.fd = bytearray(), gone, fd

    def writable(self):
        return True

    def fileno(self):
        return self.fd

    def write(self, data):
        if self.gone and self.taken:
            raise BrokenPipeError
        self.taken += bytes(data[:1000])
        return min(len(data), 1000)


def text_stdout(writes):
    """A stdout whose binary layer appends each write, decoded, to ``writes``."""
    def write(data):
        writes.append(bytes(data).decode())
        return len(data)
    return SimpleNamespace(buffer=SimpleNamespace(write=write), flush=lambda: None)


def child_env(unbuffered=False):
    """This environment with the package on PYTHONPATH.  Stdout to a pipe
    is block-buffered unless ``unbuffered`` sets PYTHONUNBUFFERED=1."""
    src = str(Path(erdosmoser.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def cli_process(*argv, unbuffered=False, **kwargs):
    """`python -m erdosmoser ARGV` in a child with this package on its path."""
    return subprocess.Popen([sys.executable, "-m", "erdosmoser", *argv],
                            env=child_env(unbuffered), **kwargs)


def group_outlived(pgid):
    """Whether any process is left in process group ``pgid``, which is
    then killed: a child started with ``start_new_session=True`` leads a
    group of its own, which every process it forks joins."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    os.killpg(pgid, signal.SIGKILL)
    return True


def one_cpu():
    """A ``preexec_fn`` that pins the child to one CPU this process may run
    on, as `taskset -c` does; skips the test where affinity cannot be set."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is missing here")
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def traced_growth(warm_argv, argv, peak=False):
    """Bytes traced by tracemalloc in a fresh process after ``main(argv)``
    writes into a sink, over what was traced before it (its peak with
    ``peak``); ``main(warm_argv)`` runs first, for the lazy imports."""
    code = textwrap.dedent(f"""
        import io, sys, tracemalloc
        from erdosmoser.cli import main

        class Sink(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                return len(data)

        sys.stdout = io.TextIOWrapper(Sink(), write_through=True)
        main({warm_argv!r})
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        assert main({argv!r}) == 0
        sys.stderr.write(str(tracemalloc.get_traced_memory()[{int(peak)}] - before))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr)


def test_import_leaves_heavy_modules_out():
    # dataclasses drags in inspect, ast, dis and tokenize; json is needed
    # only for --format json.  Every CLI run would pay for them at start-up.
    code = ("import sys; before = set(sys.modules); import erdosmoser.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True, timeout=120).stdout
    new = set(out.split())
    assert "erdosmoser.cli" in new
    assert not new & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}


HANDLER_MODULES = {f"erdosmoser.{name}" for name in ("_commands", "_crossing", "_figure1")}
LIBRARY_MODULES = {f"erdosmoser.{name}" for name in
                   ("approx", "arith", "candidates", "errors", "polyform", "powersum", "search", "signanalysis")}


def test_import_loads_only_what_the_parser_needs():
    # each handler's module imports the library modules it runs, and main
    # imports the table writer; a subcommand's arguments are declared only
    # when it is parsed, so the parser itself needs errors alone.
    # The from-import form goes through the package's __getattr__, which
    # must hand back the submodule without searching every module's __all__.
    for statement in ("import erdosmoser.cli", "from erdosmoser import cli"):
        code = f"import sys; {statement}; print(*sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        loaded = set(out.split())
        assert "erdosmoser.cli" in loaded, statement
        assert loaded & LIBRARY_MODULES == {"erdosmoser.errors"}, statement
        assert not loaded & {"fractions", "decimal", "erdosmoser._table", *HANDLER_MODULES}, statement


@pytest.mark.parametrize("statement, present", [
    ("from erdosmoser import _table", {"erdosmoser._table"}),
    # inspect and doctest probe a module this way
    ("import erdosmoser; assert not hasattr(erdosmoser, '__wrapped__')", {"erdosmoser"}),
], ids=["from-import", "probe"])
def test_private_names_load_no_library_module(statement, present):
    # no module's __all__ holds a private name, so the package's __getattr__
    # refuses one without importing them, and a from-import falls back to
    # the submodule alone
    code = f"import sys; {statement}; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert present <= loaded and not loaded & {"fractions", "decimal", *LIBRARY_MODULES}


# A cold run without cached bytecode compiles every module it loads, and
# that compile can set the run's peak memory, so each run loads only its own
# handler's module; the present sets keep the absent ones from passing
# vacuously.  The parser loads DEFERRED only for the subcommands that read
# it: the default budget for candidates and signs, the case names for ratios.
DEFERRED = {"erdosmoser.arith", "erdosmoser.candidates"}
FOOTPRINTS = [  # argv, modules it must not load, modules it must load
    (["--version"], {"fractions", "decimal", "erdosmoser._table", *HANDLER_MODULES, *DEFERRED}, set()),
    (["figure1", "--k-to", "3"], {"fractions", "decimal", *DEFERRED}, {"erdosmoser._figure1"}),
    (["signs", "--k-max", "10", "--format", "json"],
     {"fractions", "decimal", "erdosmoser._figure1", "erdosmoser.search"},
     {"erdosmoser._commands", *DEFERRED}),
    (["search", "--k", "1..5", "--m", "3..50"],
     {"fractions", "decimal", "erdosmoser._figure1", "erdosmoser._commands", *DEFERRED},
     {"erdosmoser._crossing"}),
    (["threshold", "--k", "5"],
     {"fractions", "decimal", "erdosmoser.signanalysis", "erdosmoser.polyform", "erdosmoser._figure1",
      "erdosmoser._commands", *DEFERRED}, {"erdosmoser.search", "erdosmoser._crossing"}),
    (["figure2", "--k-to", "8"],
     {"fractions", "decimal", "erdosmoser._figure1", "erdosmoser.search"},
     {"erdosmoser.signanalysis", "erdosmoser._commands"}),
    (["approx", "--k", "3", "--m", "7/2"], set(), {"fractions"}),  # so the others cannot pass vacuously
]


@pytest.mark.parametrize("argv, absent, present", FOOTPRINTS,
                         ids=[" ".join(argv) for argv, _, _ in FOOTPRINTS])
def test_each_command_loads_only_what_it_runs(argv, absent, present):
    code = textwrap.dedent(f"""
        import io, sys
        from erdosmoser.cli import main
        sys.stdout = io.StringIO()
        try:
            main({argv!r})
        except SystemExit:  # --version
            pass
        sys.stderr.write(" ".join(sys.modules))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert not loaded & absent and present <= loaded


@pytest.mark.parametrize("path", sorted(Path(erdosmoser.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_each_module_compiles_under_640_kib(path):
    # a run without cached bytecode compiles every module it imports, from
    # its bytes as here, and the compile's peak, which follows the module's
    # AST size, can set the run's peak memory; so no module may grow back
    # into a large one
    source = path.read_bytes()
    # a first compile, held until the measured one is done, keeps the
    # module's names interned; else interning them can resize the
    # interpreter's shared table, a step set by what ran before
    held = compile(source, str(path), "exec", dont_inherit=True)
    tracemalloc.start()
    try:
        compile(source, str(path), "exec", dont_inherit=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del held
    assert peak < 640 * 1024, f"{path.name}: compile peak {peak / 1024:.0f} KiB"


def test_int_str_limit_restored_after_every_run():
    # an in-process caller must not run on with CPython's int->str guard off
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int->str digit limit on this interpreter")
    code = textwrap.dedent("""
        import io, sys
        from erdosmoser.cli import main
        limit = sys.get_int_max_str_digits()
        assert limit, "this check needs a limit in force"
        out = sys.stdout = io.StringIO()
        assert main(["figure1", "--k-from", "2000", "--k-to", "2000",
                     "--m-from", "200", "--m-to", "200"]) == 0
        header, row = out.getvalue().splitlines()
        power = row.split(",")[header.split(",").index("power")]
        assert len(power) == 4603 and power == str(2**2000) + "0" * 4000  # 200^2000, whole
        assert sys.get_int_max_str_digits() == limit
        assert main(["sum", "--k", "0", "--m", "5"]) == 2
        assert sys.get_int_max_str_digits() == limit
        try:
            main(["sum", "--k", "many"])
        except SystemExit as exc:
            assert exc.code == 1
        else:
            raise AssertionError("no usage error")
        assert sys.get_int_max_str_digits() == limit
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_int_str_limit_held_across_overlapping_runs(monkeypatch, capsys, unlimited_int_str):
    # Run A lifts the limit, run B enters while A is still in its handler,
    # then A leaves first.  B must still spell its 4,515-digit cell, and the
    # limit A found must be back once both have left.
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int->str digit limit on this interpreter")
    entered = {1: threading.Event(), 2: threading.Event()}
    proceed = {1: threading.Event(), 2: threading.Event()}

    def gated(args):
        entered[args.k].set()
        proceed[args.k].wait(timeout=60)
        return {"k": args.k}, [("value", _table.INT)], [(8**5000,)]

    monkeypatch.setattr(_crossing, "_cmd_threshold", gated)
    codes = {}

    def run(k):
        try:
            codes[k] = main(["threshold", "--k", str(k)])
        except Exception as exc:  # reported through codes
            codes[k] = exc

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        runs = {k: threading.Thread(target=run, args=(k,)) for k in (1, 2)}
        for k in (1, 2):
            runs[k].start()
            assert entered[k].wait(timeout=60)
        for k in (1, 2):
            proceed[k].set()
            runs[k].join(timeout=60)
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert codes == {1: 0, 2: 0}
    assert after == 4300
    assert capsys.readouterr().out.splitlines() == ["value", str(8**5000)] * 2


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run_cli(capsys, "sum", "--k", "3", "--m", "5")
        assert code == 0 and out

    def test_domain_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "sum", "--k", "0", "--m", "5")
        assert code == 2 and "error" in err

    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--k", "3"])  # missing --m
        assert exc.value.code == 1

    def test_unknown_command_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv, message", [
        ("search --k 1..x --m 3..9", "argument --k: expected N or LO..HI, got '1..x'"),
        ("search --k 1..3 --m x", "argument --m: expected N or LO..HI, got 'x'"),
        ("approx --k 3 --m 7/0", "argument --m: expected a rational like 7/2 or 3.5, got '7/0'"),
        ("approx --k 3 --m x", "argument --m: expected a rational like 7/2 or 3.5, got 'x'"),
    ])
    def test_bad_argument_type_is_1(self, capsys, argv, message):
        # the parser names the bad value, rather than a later step failing on None
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        out, err = capsys.readouterr()
        command = argv.split()[0]
        assert exc.value.code == 1 and out == ""
        assert err.splitlines()[-1] == f"erdosmoser {command}: error: {message}"

    def test_parser_is_reusable(self):
        # a subcommand declares its arguments on its first parse only
        parser = cli.build_parser()
        first = parser.parse_args(["sum", "--k", "3", "--m", "5"])
        second = parser.parse_args(["sum", "--k", "4", "--m", "6"])
        assert (first.k, first.m, second.k, second.m) == (3, 5, 4, 6)

    def test_budget_exceeded_is_3(self, capsys):
        # (k+1)(k-2) = 154 = 2 * 7 * 11; budget 2 leaves cofactor 77
        code, _, err = run_cli(capsys, "candidates", "--k", "13", "--trial-budget", "2")
        assert code == 3 and "77" in err

    def test_bad_digits_is_2(self, capsys):
        for digits in ("0", "51"):
            code, _, _ = run_cli(capsys, "threshold", "--k", "4", "--digits", digits)
            assert code == 2

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv, stop, head_start", [
        # the reader stops after two lines, as `| head -n 2` does
        ("figure1", "lines", b"k,m,sum_exact,"),
        # or after 4,096 bytes, as `| head -c 4096` does: JSON has no line
        # break before its end, signs streams one k at a time, and the
        # poly table is one 78 KB block that the pipe can take in part
        ("figure1 --format json", "bytes", b'{"schema_version": "1", "command": "figure1", '),
        ("signs --k-max 400 --format json", "bytes", b'{"schema_version": "1", "command": "signs", '),
        ("poly --full-eml --k 240", "bytes", b"power,coefficient\n0,0\n"),
        # or closes its end before the command starts: a one-row output
        # sits in the buffer until the final flush
        ("sum --k 3 --m 5", "closed", b""),
    ], ids=["figure1", "figure1-json", "signs-json", "poly-full-eml", "sum"])
    def test_reader_leaves_is_141(self, argv, stop, head_start, unbuffered):
        # exit 141 with nothing on stderr, and no process of the command's
        # group (figure1's forked row worker included) outlives it
        if stop == "closed":
            read_end, stdout = os.pipe()
            os.close(read_end)
        else:
            stdout = subprocess.PIPE
        try:
            proc = cli_process(*argv.split(), unbuffered=unbuffered, stdout=stdout,
                               stderr=subprocess.PIPE, start_new_session=True)
        finally:
            if stop == "closed":
                os.close(stdout)
        try:
            head = b""
            if stop == "lines":
                head = proc.stdout.readline() + proc.stdout.readline()
            elif stop == "bytes":
                head = proc.stdout.read(4096)
            if proc.stdout:
                proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            outlived = group_outlived(proc.pid)
            proc.wait()
        assert head.startswith(head_start)
        assert proc.returncode == 141 and err == b""
        assert not outlived

    def test_reader_gone_mid_block_is_141(self, capsys, monkeypatch, tmp_path):
        # one block (about 8 KB) of which the pipe takes 1,000 bytes before
        # the reader leaves; dropping the rest silently would exit 0
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        raw = ShortWriter(gone=True, fd=fd)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        try:
            code = main(["figure1", "--k-to", "4", "--m-to", "30"])
        finally:
            os.close(fd)
        assert code == 141 and len(raw.taken) == 1000
        assert capsys.readouterr().err == ""


# sha256 of what the parser prints at COLUMNS=80, taken before each
# subcommand declared its own arguments: the help texts on stdout, the usage
# errors on stderr.  Taken on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0:
# 3.11 and 3.12 print the same, 3.10 adds "(default: True)" to --exact's
# help, and 3.13 indents the command list and wraps ratios' usage differently.
PARSER_TEXT = {
    "--help": "78e7260cde70d51a0afc6d060ea22e5011e4618c69e3d8f65a4ef9f172eb381e",
    "sum --help": "6e3cdc9ce56b093d1b4c06aad298355677945a4f3541d70840ef4018e44bd13b",
    "approx --help": "55dcaea4abffdbb051da8981a773cdff02a0e42eef8e5753b5f3a66bb62efd5e",
    "poly --help": "e91a8f659aed2e65ed77afccc160f994b91124a8d651e14452ec484e6db06b0a",
    "candidates --help": "aee6c66f0f4568d6bae2bb86a12ace8a8d2a7532b42a14747d162b2694ab5de9",
    "signs --help": "09a6f936c64e1ca1b8b43f87b6d6faa6b11dce6a959c2b5c22cdf849f213b702",
    "ratios --help": "4b8eb763425901a82468274805e955787610cf2f00a08601461dd5d92d3a804c",
    "threshold --help": "0cd4f391bc0eec8938387604549c40f9781556c00ed967f0bc5b0ec90d8ad076",
    "search --help": "ff0e2a614f8813970db88bde8fa350e436e7c5b0ab47858de08e9283293dfc73",
    "figure1 --help": "f4b32a8271c7b5476b585c07b988f77965824043e80149cd6b7635015f1bd293",
    "figure2 --help": "79be387e707c5e0d70c3647ef40064d68a80fd9e497330cc709318191e72dea6",
    "frobnicate": "f9c477580fbb8cdf5050a4b99f977f437e85403ff98fbf1c7f3ad4ad1603a90a",
    "ratios": "83183220820e01ffc8bb8da5471a495cc68cd6a76e7927ccf33b8ce9914a7ebd",
}
PARSER_TEXT_CHANGES = {
    (3, 10): {
        "approx --help": "6765a516fca1143407bd28f47b05aba0753b522144732140d6a35e0d310d8e00",
        "ratios --help": "a82dabe653691163b9f063ee90541c1e94389f7f78bb8ad0e731caa0ab3fa21b",
        "figure1 --help": "b2e677678b86f4983373566443fc8b7de0b91c26669816d60d8a4d620be8f771",
        "figure2 --help": "7ee9c167dc841d24499897f898e72252137ab07c4ee065203a9261b7f95d827c",
    },
    (3, 13): {
        "--help": "ea63e7f9357a48cc1672cbb548b5cdce2cdaf10f9a60a3db2d9eb9689d7e8c45",
        "ratios --help": "4bb86edef54ce4d1e63e24456d13beff616be1679ffe1019d32e1234b6ae907c",
        "ratios": "0d6fc407e1c31235c97e6a30568694f8ad969228e52616001828704c0f0ac70c",
    },
}


@pytest.mark.parametrize("argv", list(PARSER_TEXT))
def test_parser_text_is_pinned(capsys, monkeypatch, argv):
    if sys.version_info[:2] not in {(3, 10), (3, 11), (3, 12), (3, 13)}:
        pytest.skip("parser text pinned for Python 3.10 to 3.13 only")
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(argv.split())
    out, err = capsys.readouterr()
    pinned = {**PARSER_TEXT, **PARSER_TEXT_CHANGES.get(sys.version_info[:2], {})}
    assert hashlib.sha256((out + err).encode()).hexdigest() == pinned[argv]


# The sha256 of the stdout bytes of each argv group, run in order and
# concatenated, on Python 3.10 to 3.13 alike.  The first eight groups pin
# default runs: the five ratio series, threshold around the crossing's corner
# cases, the commands that reach Bernoulli numbers, the exact polynomial and
# the cleared polynomial at k = 600, the truncations the expansion shares,
# candidate sets of both parities, and the sign table to k = 60.  The rest
# pin what --no-exact keeps.
GOLDEN_DIGESTS = {
    "ratios": (["ratios --case EVEN_KM1 --k-from 4 --k-to 401",
                "ratios --case EVEN_2KM1 --k-from 4 --k-to 401",
                "ratios --case ODD_KM2 --k-from 5 --k-to 401",
                "ratios --case ODD_KP1 --k-from 3 --k-to 401",
                "ratios --case ODD_PROD --k-from 3 --k-to 401"],
               "e1535be3111158c8390a7d597fb636b353e66571adffb784bfc9479e2a87c550"),
    "threshold": ([f"threshold --k {k}" for k in (1, 2, 3, 4, 5, 360, 401, 420)],
                  "179749d28fd1970f9f858c8c18c6da3f12e31e808b87f0c79afacdf9d8a8b546"),
    "bernoulli": (["poly --full-eml --k 240", "sum --k 800 --m 1200", "approx --k 400 --m 7/2"],
                  "83e2d978c240289d5d561093120907c3abf83cebbef9fe6325153a2a26fb5e38"),
    "full-eml-600": (["poly --full-eml --k 600 --format json"],
                     "2ee2d31f476d3cafdadcf8cda8aedf2efec1cdf8937ea740a75c1ecfe775be0b"),
    "cleared-600": (["poly --k 600 --format json"],
                    "171b06727ef76e05c168a09381ab2af7bdabf13204a94754d7b1a49530941701"),
    "truncations": (["approx --k 400 --m 7/2 --p 0", "approx --k 400 --m 7/2 --p 3",
                     "sum --k 801 --m 1200"],
                    "a0ceda57a5ef759c4de4bfc08e0de2fc02ed9a3a9a7747586ef35a39fac223b8"),
    "candidates": ([f"candidates --k {k} --format json" for k in (3, 4, 10, 201, 400)],
                   "cc1879d8e12f8f310c25b3d1ebe3e221e8a4025603d4124e6d2a18dc05ad4e98"),
    "signs": (["signs --k-max 60 --format json"],
              "25dbed31b797fd0bfdfebedfac7a84e60490ed0a1560ecd135a48a9a8eb21152"),
    **{argv: ([argv], digest) for argv, digest in [
        ("figure1 --no-exact", "c142498ab0cc072c27ac6b778879a2d6a40fc5eb1ad6b34be2559b6d88522951"),
        ("figure1 --k-to 20 --no-exact --format json",
         "810ff43425cd21a0d8a52ab4dec5f1898d6747d4df069bb8d20e446630f40cf6"),
        ("figure2 --k-to 400 --no-exact",
         "f92ea700e1f62b0bf1c566b28f6e5e88f30b1e9fb9307b466b737138d6e30b2d"),
        ("figure2 --k-to 60 --no-exact --format json",
         "327ba9793faeb44dc8b37f3c21e55cff4331bb8e2ab821aef915dac7ffe26096"),
        ("ratios --case ODD_PROD --k-from 3 --k-to 401 --no-exact",
         "a3939bec9f73901b8c8198ebfa778bcd1e4552349f0e51ec83cef3cdf634e759"),
        ("ratios --case EVEN_KM1 --k-from 4 --k-to 241 --no-exact --format json",
         "9df72593d90540bbc2d2f3cd18723e7030191d142ad9f56fd7d2d9ed066c9c9f"),
        ("approx --k 400 --m 7/2 --no-exact",
         "a6539a2ac7e0b73f8396408bd1cd5367166ece66cead8506d21a8bf8506ac20b"),
        ("approx --k 3 --m 2 --no-exact --format json",
         "a4072c7e5f8ee448c7142a48da1ae9744f0c2fb2d7a092fc5db506f8a27906db"),
    ]},
}


@pytest.mark.parametrize("name", list(GOLDEN_DIGESTS))
def test_output_digest_is_pinned(capsysbinary, name):
    argvs, digest = GOLDEN_DIGESTS[name]
    sha = hashlib.sha256()
    for argv in argvs:
        assert main(argv.split()) == 0
        sha.update(capsysbinary.readouterr().out)
    assert sha.hexdigest() == digest


def parse_table(out, fmt):
    """(envelope without rows, header, rows as lists) of one table."""
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        return None, header, rows
    doc = json.loads(out)
    rows = doc.pop("rows")
    return doc, list(rows[0]), [list(row.values()) for row in rows]


class TestNoExact:
    """--no-exact prints the --exact table with its exact columns taken out."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, dropped", [
        ("approx --k 400 --m 7/2", {"sum_approx", "first_correction", "correction_ratio", "sum_truncated"}),
        ("approx --k 2 --m 2", {"sum_approx", "first_correction", "correction_ratio", "sum_truncated"}),
        ("ratios --case EVEN_KM1 --k-from 190 --k-to 210", {"exact"}),  # None past k = 200
        ("figure1 --k-from 1 --k-to 6 --m-from 2 --m-to 30",  # None cells at (1, 3)
         {"sum_exact", "sum_approx", "power", "diff_approx", "diff_corrected", "diff_exact"}),
        ("figure2 --k-to 40", {"value"}),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_exact_columns_removed(self, capsys, fmt, argv, dropped):
        tables = []
        for flag in ("--exact", "--no-exact"):
            code, out, err = run_cli(capsys, *argv.split(), flag, "--format", fmt)
            assert code == 0 and err == ""
            tables.append(parse_table(out, fmt))
        (envelope, header, rows), (lean_envelope, lean_header, lean_rows) = tables
        kept = [i for i, name in enumerate(header) if name not in dropped]
        assert dropped <= set(header) and lean_envelope == envelope
        assert lean_header == [header[i] for i in kept]
        assert lean_rows == [[row[i] for i in kept] for row in rows] and rows


# A small valid argv per subcommand, and the subcommands whose handler reads
# each flag.  Written out by hand, not read from build_parser, so the test
# checks the parser against the handlers rather than against itself.
BASE_ARGV = {
    "sum": ["--k", "3", "--m", "5"],
    "approx": ["--k", "4", "--m", "7/2"],
    "poly": ["--k", "4"],
    "candidates": ["--k", "10"],
    "signs": ["--k-max", "10"],
    "ratios": ["--case", "EVEN_2KM1", "--k-from", "4", "--k-to", "8"],
    "threshold": ["--k", "4"],
    "search": ["--k", "1..3", "--m", "3..9"],
    "figure1": ["--k-to", "3", "--m-to", "5"],
    "figure2": ["--k-to", "6"],
}
FLAG_READERS = {
    ("--format", "json"): set(BASE_ARGV),
    ("--digits", "3"): {"approx", "ratios", "threshold", "figure1", "figure2"},
    ("--exact",): {"approx", "ratios", "figure1", "figure2"},
    ("--no-exact",): {"approx", "ratios", "figure1", "figure2"},
    ("--trial-budget", "1000"): {"candidates", "signs"},
}


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("flag", list(FLAG_READERS), ids=" ".join)
    @pytest.mark.parametrize("command", list(BASE_ARGV))
    def test_flag_accepted_only_where_read(self, capsys, command, flag):
        argv = [command, *BASE_ARGV[command], *flag]
        if command in FLAG_READERS[flag]:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            assert capsys.readouterr().out == ""


class TestSumCommand:
    def test_csv_row(self, capsys):
        _, out, _ = run_cli(capsys, "sum", "--k", "3", "--m", "5")
        rows = parse_csv(out)
        assert rows[0]["sum_direct"] == "100"
        assert rows[0]["sum_eml"] == "100"
        assert rows[0]["diff"] == "0"

    def test_k1_solution_point(self, capsys):
        _, out, _ = run_cli(capsys, "sum", "--k", "1", "--m", "3")
        rows = parse_csv(out)
        assert rows[0]["sum_direct"] == "3"  # equals m

    def test_json_envelope(self, capsys):
        _, out, _ = run_cli(capsys, "sum", "--k", "3", "--m", "5", "--format", "json")
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "sum"
        assert doc["params"] == {"k": 3, "m": 5}
        assert doc["rows"][0]["sum_direct"] == "100"


class TestPolyCommand:
    def test_ascending_coefficients(self, capsys):
        _, out, _ = run_cli(capsys, "poly", "--k", "2")
        rows = parse_csv(out)
        assert [r["coefficient"] for r in rows] == ["2", "0", "-9", "2"]
        assert [int(r["power"]) for r in rows] == [0, 1, 2, 3]

    def test_full_eml(self, capsys):
        _, out, _ = run_cli(capsys, "poly", "--k", "2", "--full-eml", "--format", "json")
        doc = json.loads(out)
        assert doc["params"]["multiplier"] == "6"
        assert [r["coefficient"] for r in doc["rows"]] == ["0", "1", "-9", "2"]


class TestCandidatesCommand:
    def test_k10_integers(self, capsys):
        _, out, _ = run_cli(capsys, "candidates", "--k", "10", "--format", "json")
        doc = json.loads(out)
        integers = [int(r["candidate"]) for r in doc["rows"] if r["integer_ge3"]]
        assert integers == [3, 6, 9, 18]

    def test_k3_rationals(self, capsys):
        _, out, _ = run_cli(capsys, "candidates", "--k", "3")
        rows = parse_csv(out)
        assert [r["candidate"] for r in rows] == ["1/2", "1", "2", "4"]


class TestSignsCommand:
    def test_no_zero_signs(self, capsys):
        _, out, _ = run_cli(capsys, "signs", "--k-max", "10")
        rows = parse_csv(out)
        assert rows and all(r["sign"] != "ZERO" for r in rows)

    def test_reference_row(self, capsys):
        _, out, _ = run_cli(capsys, "signs", "--k-max", "4")
        rows = parse_csv(out)
        match = [r for r in rows if r["k"] == "4" and r["case"] == "EVEN_KM1"]
        assert match[0]["m0"] == "3" and match[0]["value"] == "-663"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_late_budget_overrun_leaves_stdout_empty(self, capsys, fmt):
        # k = 201 is the first to overrun, after about 1.1 MB of rows
        code, out, err = run_cli(capsys, "signs", "--k-max", "400", "--trial-budget", "100",
                                 "--format", fmt)
        assert (code, out) == (3, "")
        assert err == "error: k=201: unfactored cofactor 20099 exceeds trial budget 100\n"

    def test_zero_row_warns_once(self, capsys, monkeypatch):
        # (10, 6) is a FULL_SET point only, so one row reads ZERO
        real = signanalysis.cleared_value
        monkeypatch.setattr(signanalysis, "cleared_value",
                            lambda k, m0: 0 if (k, m0) == (10, 6) else real(k, m0))
        code, out, err = run_cli(capsys, "signs", "--k-max", "12")
        zeros = [r for r in parse_csv(out) if r["sign"] == "ZERO"]
        assert code == 0
        assert [(r["k"], r["case"], r["m0"], r["value"]) for r in zeros] == [
            ("10", "FULL_SET", "6", "0")]
        assert err == ("warning: 1 candidate(s) evaluate to exactly zero, "
                       "i.e. the cleared polynomial has a rational root\n")

    # each command's values are counted at the closed form it calls
    @pytest.mark.parametrize("argv, closed_form", [
        pytest.param(["signs", "--k-max", "200"], "cleared_value", id="signs --k-max 200"),
        pytest.param(["figure2", "--k-to", "400"], "cleared_groups", id="figure2 --k-to 400")])
    def test_first_block_written_before_every_value(self, monkeypatch, argv, closed_form):
        calls, seen = [], []
        real = getattr(signanalysis, closed_form)

        def counted(k, m0):
            calls.append((k, m0))
            return real(k, m0)

        monkeypatch.setattr(signanalysis, closed_form, counted)
        stdout = text_stdout([])
        stdout.buffer.write = lambda data: seen.append(len(calls)) or len(data)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert len(seen) >= 2 and 0 < seen[0] < len(calls)

    def test_memory_does_not_grow_with_the_table(self):
        # holding every report of k <= 400 at once took about 3 MB
        growth = traced_growth(["signs", "--k-max", "3", "--format", "json"],
                               ["signs", "--k-max", "400", "--format", "json"], peak=True)
        assert growth < 1.6 * 1024 * 1024


class TestRatiosCommand:
    def test_series(self, capsys):
        _, out, _ = run_cli(capsys, "ratios", "--case", "ODD_KP1", "--k-from", "3", "--k-to", "9")
        rows = parse_csv(out)
        assert len(rows) == 4
        assert abs(float(rows[0]["ratio"]) - 1.896) <= 1e-3
        assert all(r["series_decreasing"] == "true" for r in rows)

    def test_exact_column_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "ratios", "--case", "EVEN_2KM1", "--k-from", "4", "--k-to", "4")
        rows = parse_csv(out)
        assert Fraction(rows[0]["exact"]) == Fraction(864, 625)

    def test_no_exact_flag(self, capsys):
        _, out, _ = run_cli(capsys, "ratios", "--case", "EVEN_2KM1", "--k-from", "4",
                            "--k-to", "6", "--no-exact")
        rows = parse_csv(out)
        assert "exact" not in rows[0]


class TestThresholdCommand:
    def test_k4(self, capsys):
        _, out, _ = run_cli(capsys, "threshold", "--k", "4")
        rows = parse_csv(out)
        assert rows[0]["predicted"] == "15/2"
        assert rows[0]["crossing"] == "8"

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_exponent_below_one_is_2(self, capsys, k):
        code, out, err = run_cli(capsys, "threshold", "--k", k)
        assert (code, out, err) == (2, "", f"error: exponent must be >= 1, got {k}\n")

    def test_prediction_spelled_as_its_fraction(self, capsys):
        # the prediction is spelled from integers; the Fraction is the oracle
        for k in [*range(1, 61), *range(300, 421)]:
            _, out, _ = run_cli(capsys, "threshold", "--k", str(k), "--digits", "17")
            row = parse_csv(out)[0]
            want = Fraction(3 * (k + 1), 2)
            assert (row["predicted"], float(row["predicted_float"])) == (str(want), float(want)), k


class TestSearchCommand:
    def test_json_hits(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--k", "1..5", "--m", "3..100", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"] == [{"k": 1, "m": 3}]

    def test_jobs_do_not_change_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "search", "--k", "1..6", "--m", "3..200", "--jobs", "1")
        _, out4, _ = run_cli(capsys, "search", "--k", "1..6", "--m", "3..200", "--jobs", "4")
        assert out1 == out4

    def test_jobs_below_one_is_2(self, capsys):
        code, _, err = run_cli(capsys, "search", "--k", "1..3", "--m", "3..9", "--jobs", "0")
        assert code == 2 and "--jobs" in err

    def test_jobs_rejected_outside_search(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "--k", "3", "--m", "5", "--jobs", "4"])
        assert exc.value.code == 1

    def test_header_present_without_hits(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--k", "2..2", "--m", "3..10")
        assert out.splitlines() == ["k,m"]
        _, out, _ = run_cli(capsys, "search", "--k", "2..2", "--m", "3..10", "--format", "json")
        assert out == ('{"schema_version": "1", "command": "search", "params": '
                       '{"k_from": 2, "k_to": 2, "m_from": 3, "m_to": 10}, "rows": []}\n')

    def test_single_value_range_syntax(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--k", "1", "--m", "3..10", "--format", "json")
        assert json.loads(out)["rows"] == [{"k": 1, "m": 3}]


class TestFigure1:
    def test_spot_row_and_count(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--k-from", "2", "--k-to", "3",
                            "--m-from", "3", "--m-to", "5")
        rows = parse_csv(out)
        assert len(rows) == 2 * 3
        spot = [r for r in rows if r["k"] == "2" and r["m"] == "3"][0]
        assert spot["sum_exact"] == "5"
        assert spot["sum_approx"] == "29/6"
        assert spot["power"] == "9"
        assert spot["diff_approx"] == "-25/6"
        assert spot["diff_corrected"] == "-4"
        assert spot["diff_exact"] == "-4"

    def test_exact_columns_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--k-from", "5", "--k-to", "5",
                            "--m-from", "7", "--m-to", "7")
        row = parse_csv(out)[0]
        assert Fraction(row["sum_exact"]) == sum(i**5 for i in range(1, 7))
        assert Fraction(row["diff_exact"]) == Fraction(row["sum_exact"]) - Fraction(row["power"])
        assert Fraction(row["diff_approx"]) == Fraction(row["sum_approx"]) - Fraction(row["power"])

    def test_k1_row_vanishes_at_solution(self, capsys):
        _, out, _ = run_cli(capsys, "figure1", "--k-from", "1", "--k-to", "1",
                            "--m-from", "3", "--m-to", "3")
        row = parse_csv(out)[0]
        assert row["diff_exact"] == "0"
        assert row["diff_exact_sign"] == "0"
        assert row["diff_exact_log10"] == ""

    def test_byte_identical_runs(self, capsys):
        args = ("figure1", "--k-from", "2", "--k-to", "6", "--m-from", "3", "--m-to", "30")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_invalid_range_is_2(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "--k-from", "5", "--k-to", "2")
        assert code == 2 and out == ""
        code, out, _ = run_cli(capsys, "figure1", "--k-from", "5", "--k-to", "2", "--format", "json")
        assert code == 2 and out == ""

    def test_invalid_m_range_is_2(self, capsys):
        code, out, err = run_cli(capsys, "figure1", "--m-from", "9", "--m-to", "4")
        assert code == 2 and out == "" and "m range" in err

    # the stdout sha256 over the full default grid on one CPU, where the rows
    # are spelled serially, and unpinned, where a forked worker spells every
    # second group wherever the process may run on 2 or more CPUs
    @pytest.mark.parametrize("pinned", [True, False], ids=["one-cpu", "all-cpus"])
    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "9182a51e426f87182f6e2ae2453aab8a584b89a6a847b970a48871da5f761878"),
        ("json", "509f317dc858a211dc2738c5ff7190bd01344b82975d8a52d3050cf5111fee69"),
    ], ids=["csv", "json"])
    def test_full_grid_digest(self, fmt, digest, pinned):
        proc = cli_process("figure1", "--format", fmt, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, preexec_fn=one_cpu() if pinned else None)
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0 and err == b""
        assert hashlib.sha256(out).hexdigest() == digest

    @pytest.mark.parametrize("argv", [["figure1"], ["figure1", "--k-to", "12", "--format", "json"]],
                             ids=["csv", "json"])
    def test_unbuffered_stdout_is_byte_identical(self, argv):
        outs = []
        for unbuffered in (False, True):
            proc = cli_process(*argv, unbuffered=unbuffered,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            try:
                out, err = proc.communicate(timeout=120)
            finally:
                proc.kill()
            assert proc.returncode == 0 and err == b""
            outs.append(out)
        assert outs[0] == outs[1]


def figure1_oracle(k, m):
    """The figure1 quantities at (k, m) through the literal Fraction path."""
    arg = RealArg(m)
    exact = sum_direct(PowerSumQuery(m - 1, k))
    approx = sum_eml_leading(arg, k)
    power = m**k
    return {
        "sum_exact": exact,
        "sum_approx": approx,
        "power": power,
        "diff_approx": approx - power,
        "diff_corrected": approx - power + first_correction(arg, k),
        "diff_exact": exact - power,
    }


class TestFigure1Oracle:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("exact", ["--exact", "--no-exact"])
    @pytest.mark.parametrize("digits", [6, 17])
    def test_every_cell(self, capsys, fmt, exact, digits):
        code, out, _ = run_cli(capsys, "figure1", "--k-from", "1", "--k-to", "12",
                               "--m-from", "2", "--m-to", "40", "--format", fmt, exact,
                               "--digits", str(digits))
        assert code == 0
        rows = parse_csv(out) if fmt == "csv" else json.loads(out)["rows"]
        keys = [(k, m) for k in range(1, 13) for m in range(2, 41)]
        assert len(rows) == len(keys)
        if fmt == "csv":
            cell = lambda x: "" if x is None else f"{x:.{digits}g}" if isinstance(x, float) else str(x)
        else:
            cell = lambda x: float(f"{x:.{digits}g}") if isinstance(x, float) else x
        for row, (k, m) in zip(rows, keys):
            expected = {"k": k, "m": m}
            for name, value in figure1_oracle(k, m).items():
                v = Fraction(value)
                if exact == "--exact":
                    expected[name] = str(value)
                expected[f"{name}_log10"] = (
                    math.log10(abs(v.numerator)) - math.log10(v.denominator) if v else None
                )
                expected[f"{name}_sign"] = (v > 0) - (v < 0)
            expected = {c: cell(x) for c, x in expected.items()}
            assert row == expected, (k, m)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestFigure1Worker:
    """On 2 or more CPUs a forked worker spells every second k; the bytes
    must not show it."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The count of os.fork calls made in this process."""
        calls, fork = [], os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @pytest.mark.parametrize("argv", [
        ["--k-to", "12"],
        ["--k-to", "12", "--no-exact"],
        ["--k-to", "12", "--digits", "17"],
        ["--k-to", "12", "--format", "json"],
        ["--k-from", "7", "--k-to", "7"],
        ["--m-from", "2", "--m-to", "2"],  # one m per k
        ["--k-from", "1", "--k-to", "3", "--m-from", "2", "--m-to", "9"],  # None cells at (1, 3)
    ], ids=" ".join)
    def test_forked_matches_serial(self, capsys, monkeypatch, forks, argv):
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(_figure1, "_cpus", lambda: cpus)
            outputs.append(run_cli(capsys, "figure1", *argv))
        assert len(forks) == 1  # the serial run forks nothing
        assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][2] == ""
        assert no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
    def test_row_groups(self, monkeypatch, cpus):
        # both paths run each k's m range once
        calls, rows = [], _figure1.figure1_rows

        def spy(k, ms):
            calls.append((k, ms))
            return rows(k, ms)

        monkeypatch.setattr(_figure1, "figure1_rows", spy)
        monkeypatch.setattr(_figure1, "_cpus", lambda: cpus)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert main(["figure1", "--k-to", "3", "--m-to", "10"]) == 0
        assert calls == [(k, range(3, 11)) for k in (2, 3)]  # --k-from is 2
        assert no_child_left()

    def test_cpus_follows_affinity(self):
        # every other test sets _cpus; a process pinned to one CPU must
        # take the serial path however many CPUs the machine has
        code = "from erdosmoser import _figure1; print(_figure1._cpus())"
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                              text=True, timeout=120, preexec_fn=one_cpu())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"

    def test_no_fork_beside_another_thread(self, capsys, monkeypatch, forks):
        # a forked child would hold copies of that thread's locks, never released
        monkeypatch.setattr(_figure1, "_cpus", lambda: 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            code, out, _ = run_cli(capsys, "figure1", "--k-to", "4")
        finally:
            stop.set()
            thread.join(timeout=10)
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 198
        assert forks == [] and not thread.is_alive()

    def test_worker_failure_names_the_group(self, monkeypatch, forks):
        rows = _figure1.figure1_rows

        def failing(k, ms):
            for row in rows(k, ms):
                if (k, row[1]) == (3, 150):  # in the worker's first group
                    raise RuntimeError("planted failure")
                yield row

        monkeypatch.setattr(_figure1, "figure1_rows", failing)
        monkeypatch.setattr(_figure1, "_cpus", lambda: 2)
        monkeypatch.setattr(sys, "stdout", text_stdout([]))
        message = r"figure1 row worker ended with exit status 1 before sending group k=3"
        with pytest.raises(InternalConsistencyError, match=message):
            main(["figure1", "--k-to", "4"])
        assert len(forks) == 1 and no_child_left()

    @pytest.mark.parametrize("sent, received", [("22", ["1"]), ("22\n", ["1", "22"])],
                             ids=["mid-row", "before-the-group-ends"])
    def test_stream_cut_short(self, monkeypatch, sent, received):
        # a worker that exits 0 after a row cut short, or before the empty
        # line that closes its group: the cut row is never yielded
        def stub(groups, line, write_fd):
            os.write(write_fd, sent.encode())
            os._exit(0)

        monkeypatch.setattr(_figure1, "_row_worker", stub)
        monkeypatch.setattr(_figure1, "_cpus", lambda: 2)
        got = []
        message = r"figure1 row worker ended with exit status 0 before sending group \(b\)"
        with pytest.raises(InternalConsistencyError, match=message):
            for spelled in _figure1._spelled({"(a)": ["1"], "(b)": ["22", "3"]}, str):
                got.append(spelled)
        assert got == received and no_child_left()

    def test_each_group_arrives_before_the_next_is_built(self, monkeypatch):
        # the worker sleeps in its second group; its first must reach this
        # process all the same, or the two processes take turns
        def slow():
            time.sleep(30)
            yield "5"

        def timed_out(signum, frame):
            raise TimeoutError("the worker's first group did not arrive")

        monkeypatch.setattr(_figure1, "_cpus", lambda: 2)
        rows = _figure1._spelled({"a": ["1"], "b": ["2", "3"], "c": ["4"], "d": slow()}, str)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            got = [next(rows) for _ in range(4)]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            rows.close()
        assert got == ["1", "2", "3", "4"] and no_child_left()

    def test_reader_gone_mid_table_is_141(self, capfd, monkeypatch, forks, tmp_path):
        # the reader leaves after 1,000 bytes while the worker still has
        # groups to send; it must be killed and reaped, and say nothing
        monkeypatch.setattr(_figure1, "_cpus", lambda: 2)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        raw = ShortWriter(gone=True, fd=fd)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        try:
            code = main(["figure1", "--k-to", "40"])
        finally:
            os.close(fd)
        assert code == 141 and len(raw.taken) == 1000 and len(forks) == 1
        assert no_child_left()
        assert capfd.readouterr().err == ""

    def test_emit_reaps_the_worker_before_it_raises(self, monkeypatch, forks):
        # the traceback keeps _emit's frame, and so its row iterator, alive:
        # garbage collection cannot be what reaps the worker
        monkeypatch.setattr(_figure1, "_cpus", lambda: 2)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(ShortWriter(gone=True), write_through=True))
        args = cli.build_parser().parse_args(["figure1", "--k-to", "40"])
        with pytest.raises(BrokenPipeError) as caught:
            _table._emit(args, *args.handler(args))
        assert len(forks) == 1 and no_child_left()
        assert caught.traceback  # still held here


class TestFigure2:
    def test_reference_rows(self, capsys):
        _, out, _ = run_cli(capsys, "figure2", "--k-to", "8", "--format", "json")
        doc = json.loads(out)
        by_key = {(r["case"], r["k"]): r for r in doc["rows"]}
        row = by_key[("EVEN_KM1", 4)]
        assert row["m0"] == 3 and row["value"] == "-663" and row["sign"] == "NEG"
        row = by_key[("EVEN_2KM1", 8)]
        assert abs(row["ratio"] - 0.930) <= 1e-3 and row["sign"] == "POS"
        row = by_key[("ODD_PROD", 5)]
        assert row["m0"] == 18 and row["sign"] == "POS"
        assert abs(row["ratio"] - 0.399) <= 1e-3

    def test_small_k_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "figure2", "--k-to", "3")
        assert code == 2

    def test_exact_cells_past_int_str_limit(self, unlimited_int_str):
        # the child starts with the interpreter's default int->str digit limit
        proc = cli_process("figure2", "--k-to", "800", stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0 and err == b""
        longest = max(parse_csv(out.decode()), key=lambda r: len(r["value"]))
        assert len(longest["value"]) > 4300
        assert longest["value"] == str(cleared_value(int(longest["k"]), int(longest["m0"])))


class TestOutputContract:
    def test_csv_always_has_header(self, capsys):
        _, out, _ = run_cli(capsys, "poly", "--k", "3")
        assert out.splitlines()[0] == "power,coefficient"

    def test_csv_uses_lf_endings(self, capsys):
        _, out, _ = run_cli(capsys, "sum", "--k", "2", "--m", "4")
        assert "\r" not in out

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
    def test_csv_written_in_blocks(self, monkeypatch, cpus):
        monkeypatch.setattr(_figure1, "_cpus", lambda: cpus)
        writes = []
        monkeypatch.setattr(sys, "stdout", text_stdout(writes))
        assert main(["figure1", "--k-to", "12"]) == 0
        lines = "".join(writes).splitlines()
        assert len(writes) >= 3 and len(lines) == 1 + 11 * 198
        assert all(w.endswith("\n") for w in writes)
        # each block after the header's stops at the first row taking it to 64 KB
        longest = max(len(line) + 1 for line in lines)
        assert all(64 * 1024 <= len(w) < 64 * 1024 + longest for w in writes[1:-1])
        assert len(writes[-1]) < 64 * 1024 + longest

    def test_json_written_in_blocks(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", text_stdout(writes))
        assert main(["signs", "--k-max", "200", "--format", "json"]) == 0
        joined = "".join(writes)
        assert joined == json.dumps(json.loads(joined)) + "\n"
        assert len(writes) >= 3
        # each block after the first stops at the first row object, with its
        # ", ", taking it to 64 KB
        longest = max(len(json.dumps(row)) + 2 for row in json.loads(joined)["rows"])
        assert all(64 * 1024 <= len(w) < 64 * 1024 + longest for w in writes[1:-1])

    @pytest.mark.parametrize("argv", [["figure1", "--k-to", "12"],
                                      ["signs", "--k-max", "200", "--format", "json"]],
                             ids=["csv", "json"])
    def test_short_writes_lose_no_byte(self, capsys, monkeypatch, argv):
        assert main(argv) == 0
        expected = capsys.readouterr().out.encode()
        raw = ShortWriter()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        assert main(argv) == 0
        assert bytes(raw.taken) == expected

    @pytest.mark.parametrize("argv", [
        ["figure1", "--k-from", "1", "--k-to", "4", "--m-from", "2", "--m-to", "6"],  # None at (1, 3)
        ["figure1", "--k-to", "12", "--no-exact"],  # 14 cells a row
        ["figure1", "--k-to", "12", "--digits", "1"],
        ["figure1", "--k-to", "12", "--digits", "50"],
        ["candidates", "--k", "10"],  # bool columns
        ["ratios", "--case", "EVEN_KM1", "--k-from", "4", "--k-to", "300", "--exact"],
        ["threshold", "--k", "4"],  # a float cell, n / 2
        ["signs", "--k-max", "60", "--format", "json"],
        ["poly", "--full-eml", "--k", "40", "--format", "json"],  # negative coefficients
        ["sum", "--k", "3", "--m", "5", "--format", "json"],
        ["search", "--k", "1..12", "--m", "3..5000", "--format", "json"],
    ], ids=" ".join)
    def test_template_matches_per_cell_spelling(self, capsys, monkeypatch, argv):
        _, templated, _ = run_cli(capsys, *argv)
        spellings = _table._spellings  # (CSV, JSON, CSV template, JSON template) per kind
        monkeypatch.setattr(_table, "_spellings", lambda digits: {
            kind: (*spelling[:2], None, None) for kind, spelling in spellings(digits).items()})
        _, per_cell, _ = run_cli(capsys, *argv)
        lines = zip(templated.splitlines(), per_cell.splitlines(), strict=True)
        assert [pair for pair in lines if pair[0] != pair[1]] == []

    # each block is built once as the bytes written; joining, concatenating
    # and encoding it as text held each 64 KB block three to four times over,
    # for traced peaks of 276 KiB (figure2) and 432 KiB (figure1)
    @pytest.mark.parametrize("warm_argv, argv, blocks", [
        (["figure2", "--k-to", "6"], ["figure2", "--k-to", "400"], 3.5),
        (["figure1", "--k-to", "2", "--m-to", "3"], ["figure1"], 6),
    ], ids=["figure2 --k-to 400", "figure1"])
    def test_each_block_is_held_once(self, warm_argv, argv, blocks):
        assert traced_growth(warm_argv, argv, peak=True) < blocks * _table._BLOCK

    def test_figure1_leaves_no_rows_parked(self):
        # CPython 3.11 never reuses freed 20-item tuples, so spelling each
        # figure1 row through one would leave about 0.4 MB behind
        assert traced_growth(["figure1", "--k-to", "2", "--m-to", "3"], ["figure1"]) < 200 * 1024

    def test_digits_flag_controls_floats(self, capsys):
        _, wide, _ = run_cli(capsys, "threshold", "--k", "4", "--digits", "12")
        _, narrow, _ = run_cli(capsys, "threshold", "--k", "4", "--digits", "2")
        assert "7.5" in wide and "7.5" in narrow


def readme_examples():
    """Argument lists of the ``erdosmoser`` lines in the sh block under ## CLI."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "erdosmoser"]


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("argv", README_EXAMPLES, ids=[" ".join(a) for a in README_EXAMPLES])
class TestReadmeExamples:
    def test_runs_as_csv_and_json(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["command"] == argv[0]

    def test_csv_needs_no_quoting(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        fields = [line.split(",") for line in out.splitlines()]
        assert list(csv.reader(io.StringIO(out))) == fields
        assert all(len(row) == len(fields[0]) for row in fields)


class TestSignsBudget:
    def test_trial_budget_exceeded_is_3(self, capsys):
        # candidates for some k <= 10 need trial divisors above 2
        code, out, err = run_cli(capsys, "signs", "--k-max", "10", "--trial-budget", "2")
        assert code == 3 and "trial budget 2" in err and out == ""
        code, out, err = run_cli(capsys, "signs", "--k-max", "10", "--trial-budget", "2",
                                 "--format", "json")
        assert code == 3 and "trial budget 2" in err and out == ""

    @pytest.mark.parametrize(
        "argv",
        [("signs", "--k-max", "10"), ("candidates", "--k", "10")],
        ids=["signs", "candidates"],
    )
    def test_budget_below_two_is_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--trial-budget", "1")
        assert code == 2 and out == ""
        assert err == "error: --trial-budget must be >= 2, got 1\n"

    def test_default_budget_matches_explicit(self, capsys):
        _, default, _ = run_cli(capsys, "signs", "--k-max", "30")
        _, explicit, _ = run_cli(capsys, "signs", "--k-max", "30", "--trial-budget", "1000000")
        assert default == explicit


def horner_values(rows):
    """The value column rebuilt by Horner on the expanded cleared polynomial."""
    polys = {k: cleared_poly(k).poly for k in {int(r["k"]) for r in rows}}
    return [str(eval_poly(polys[int(r["k"])], int(r["m0"]))) for r in rows]


class TestValuesMatchHorner:
    def test_figure2(self, capsys):
        _, out, _ = run_cli(capsys, "figure2", "--k-to", "60")
        rows = parse_csv(out)
        assert len(rows) == 144
        assert [r["value"] for r in rows] == horner_values(rows)

    def test_signs(self, capsys):
        _, out, _ = run_cli(capsys, "signs", "--k-max", "60", "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows
        assert [r["value"] for r in rows] == horner_values(rows)
