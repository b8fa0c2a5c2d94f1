import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import erdosmoser
from erdosmoser.approx import RealArg, first_correction, sum_eml_leading
from erdosmoser.cli import main
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

    def test_csv_written_in_blocks(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append, flush=lambda: None))
        assert main(["figure1", "--k-to", "12"]) == 0
        lines = "".join(writes).splitlines()
        assert len(writes) >= 3 and len(lines) == 1 + 11 * 198
        assert all(w.endswith("\n") for w in writes)
        # each block after the header's stops at the first row taking it to 64 KB
        longest = max(len(line) + 1 for line in lines)
        assert all(64 * 1024 <= len(w) < 64 * 1024 + longest for w in writes[1:-1])
        assert len(writes[-1]) < 64 * 1024 + longest

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
