import csv
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
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import erdosmoser
from erdosmoser import _figure1, cli, signanalysis
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


def test_import_loads_only_what_the_parser_needs():
    # each handler imports the library modules it runs; the parser needs
    # arith (the default budget), candidates (the case names) and errors.
    # The from-import form goes through the package's __getattr__, which
    # must hand back the submodule without searching every module's __all__.
    for statement in ("import erdosmoser.cli", "from erdosmoser import cli"):
        code = f"import sys; {statement}; print(*sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=120).stdout
        loaded = set(out.split())
        assert "erdosmoser.cli" in loaded, statement
        assert not loaded & {f"erdosmoser.{name}" for name in
                             ("approx", "polyform", "powersum", "search", "signanalysis")}, statement
        assert not loaded & {"fractions", "decimal", "erdosmoser._figure1"}, statement


FOOTPRINTS = [  # argv, modules it must not load, modules it must load
    (["--version"], {"fractions", "decimal"}, set()),
    (["figure1", "--k-to", "3"], {"fractions", "decimal"}, {"erdosmoser._figure1"}),
    (["signs", "--k-max", "10", "--format", "json"], {"fractions", "decimal"}, set()),
    (["search", "--k", "1..5", "--m", "3..50"], {"fractions", "decimal"}, set()),
    (["threshold", "--k", "5"], {"erdosmoser.signanalysis", "erdosmoser.polyform"}, {"fractions"}),
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

    def test_budget_exceeded_is_3(self, capsys):
        # (k+1)(k-2) = 154 = 2 * 7 * 11; budget 2 leaves cofactor 77
        code, _, err = run_cli(capsys, "candidates", "--k", "13", "--trial-budget", "2")
        assert code == 3 and "77" in err

    def test_bad_digits_is_2(self, capsys):
        for digits in ("0", "51"):
            code, _, _ = run_cli(capsys, "threshold", "--k", "4", "--digits", digits)
            assert code == 2

    def test_reader_gone_before_output_is_141(self):
        # a one-row output sits in the buffer until the final flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = cli_process("sum", "--k", "3", "--m", "5", stdout=write_end,
                               stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 141 and err == b""

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
        assert err == "error: unfactored cofactor 20099 exceeds trial budget 100\n"

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

    @pytest.mark.parametrize("argv", [["signs", "--k-max", "200"], ["figure2", "--k-to", "400"]],
                             ids=" ".join)
    def test_first_block_written_before_every_value(self, monkeypatch, argv):
        calls, seen = [], []
        real = signanalysis.cleared_value

        def counted(k, m0):
            calls.append((k, m0))
            return real(k, m0)

        monkeypatch.setattr(signanalysis, "cleared_value", counted)
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

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_141_quietly(self, unbuffered):
        # the reader stops after two lines, as `erdosmoser figure1 | head -n 2` does
        proc = cli_process("figure1", unbuffered=unbuffered,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = [proc.stdout.readline(), proc.stdout.readline()]
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert head[0].startswith(b"k,m,sum_exact,") and head[1].startswith(b"2,3,5,")
        assert proc.returncode == 141
        assert err == b""
        # JSON has no line break before its end: the reader takes 4,096 bytes,
        # as `erdosmoser figure1 --format json | head -c 4096` does
        proc = cli_process("figure1", "--format", "json", unbuffered=unbuffered,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(4096)
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert head.startswith(b'{"schema_version": "1", "command": "figure1", ')
        assert proc.returncode == 141
        assert err == b""

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
    """On 2 or more CPUs a forked worker spells every second half of each
    k's m range; the bytes must not show it."""

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
        ["--m-from", "2", "--m-to", "2"],  # every first half is empty
        ["--k-from", "1", "--k-to", "3", "--m-from", "2", "--m-to", "9"],  # None cells at (1, 3)
    ], ids=" ".join)
    def test_forked_matches_serial(self, capsys, monkeypatch, forks, argv):
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            outputs.append(run_cli(capsys, "figure1", *argv))
        assert len(forks) == 1  # the serial run forks nothing
        assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][2] == ""
        assert no_child_left()

    def test_no_fork_beside_another_thread(self, capsys, monkeypatch, forks):
        # a forked child would hold copies of that thread's locks, never released
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
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

        def failing(k, ms, include_exact):
            for row in rows(k, ms, include_exact):
                if (k, row[1]) == (3, 150):  # in the worker's second group
                    raise RuntimeError("planted failure")
                yield row

        monkeypatch.setattr(_figure1, "figure1_rows", failing)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(sys, "stdout", text_stdout([]))
        message = r"figure1 row worker ended with exit status 1 before sending group \(k=3, m=102\.\.200\)"
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

        monkeypatch.setattr(cli, "_row_worker", stub)
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        got = []
        message = r"t row worker ended with exit status 0 before sending group \(b\)"
        with pytest.raises(InternalConsistencyError, match=message):
            for spelled in cli._spelled({"(a)": ["1"], "(b)": ["22", "3"]}, str, "t"):
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

        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        rows = cli._spelled({"a": ["1"], "b": ["2", "3"], "c": ["4"], "d": slow()}, str, "t")
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
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
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
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(ShortWriter(gone=True), write_through=True))
        args = cli.build_parser().parse_args(["figure1", "--k-to", "40"])
        with pytest.raises(BrokenPipeError) as caught:
            cli._emit(args, *args.handler(args))
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
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
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
        ["threshold", "--k", "4"],  # a float cell from a Fraction
        ["signs", "--k-max", "60", "--format", "json"],
        ["poly", "--full-eml", "--k", "40", "--format", "json"],  # negative coefficients
        ["sum", "--k", "3", "--m", "5", "--format", "json"],
        ["search", "--k", "1..12", "--m", "3..5000", "--format", "json"],
    ], ids=" ".join)
    def test_template_matches_per_cell_spelling(self, capsys, monkeypatch, argv):
        _, templated, _ = run_cli(capsys, *argv)
        spellings = cli._spellings  # (CSV, JSON, CSV template, JSON template) per kind
        monkeypatch.setattr(cli, "_spellings", lambda digits: {
            kind: (*spelling[:2], None, None) for kind, spelling in spellings(digits).items()})
        _, per_cell, _ = run_cli(capsys, *argv)
        lines = zip(templated.splitlines(), per_cell.splitlines(), strict=True)
        assert [pair for pair in lines if pair[0] != pair[1]] == []

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
