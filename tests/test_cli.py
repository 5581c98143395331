import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from cycpsi import SweepGrid, cli, coefficients
from cycpsi.cli import main
from cycpsi.verifier import VerificationReport

TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeff:
    def test_spec_example(self, capsys):
        code, out, _ = run_cli(
            ["coeff", "--p", "3", "--a", "2", "--n", "15", "--r", "1", "--l", "0"], capsys
        )
        assert code == 0
        assert "raw_sum = 2988" in out
        assert "exponent = 2" in out
        assert "normalized = 332" in out

    def test_trivial_row(self, capsys):
        code, out, _ = run_cli(
            ["coeff", "--p", "2", "--a", "1", "--n", "0", "--r", "0", "--l", "0"], capsys
        )
        assert code == 0
        assert "raw_sum = 1" in out

    def test_t_coeff_flag(self, capsys):
        code, out, _ = run_cli(
            ["coeff", "--p", "2", "--a", "1", "--n", "2", "--r", "0", "--l", "0", "--t-coeff"],
            capsys,
        )
        assert code == 0
        assert "t_coeff = 1" in out

    def test_non_prime_rejected(self, capsys):
        code, _, err = run_cli(
            ["coeff", "--p", "4", "--a", "1", "--n", "1", "--r", "0", "--l", "0"], capsys
        )
        assert code == 2
        assert "p must be prime" in err

    def test_negative_n_rejected(self, capsys):
        code, _, err = run_cli(
            ["coeff", "--p", "3", "--a", "1", "--n", "-2", "--r", "0", "--l", "0"], capsys
        )
        assert code == 2
        assert "n must be" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["coeff", "--p", "3", "--a", "2", "--n", "15", "--r", "1", "--l", "0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["raw"] == "2988"
        assert doc["exponent"] == 2
        assert doc["normalized"] == "332"


class TestTable:
    def test_seven_rows(self, capsys):
        code, out, _ = run_cli(["table", "--p", "3", "--a", "1", "--n-max", "6"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        assert rows[0]["p"] == "3"
        by_n = {row["n"]: row for row in rows}
        assert by_n["5"]["normalized"] == "-1"
        assert by_n["5"]["raw"] == "-9"
        assert by_n["5"]["normalized_mod_p"] == "2"

    def test_empty_range_refused(self, capsys):
        # the same refusal as verify and explore give an empty n range
        code, out, err = run_cli(
            ["table", "--p", "3", "--a", "1", "--n-min", "5", "--n-max", "2"], capsys
        )
        assert code == 2
        assert out == ""
        assert "n_range is empty" in err

    def test_json_matches_csv_values(self, capsys):
        argv = ["table", "--p", "3", "--a", "1", "--n-max", "6", "--r", "0,1", "--l", "0,1"]
        code, csv_out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert {k: str(v) for k, v in j.items()} == c

    def test_deterministic_bytes(self, capsys):
        argv = ["table", "--p", "5", "--a", "1", "--n-max", "10"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestVerify:
    def test_thm1_5_example(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm1.5", "--p", "3", "--a", "1", "--l", "0", "--m-max", "6"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["checked"] == 30
        assert doc["failures"] == []
        assert set(doc) == {"theorem", "checked", "failures", "elapsed_ms", "verdict"}

    def test_lem2_2_example(self, capsys):
        code, out, _ = run_cli(
            ["verify", "lem2.2", "--n-max", "20", "--m-max", "6", "--l-max", "3"], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_self_test_exits_one(self, capsys):
        code, out, _ = run_cli(["verify", "self-test"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert doc["failures"]
        failure = doc["failures"][0]
        assert set(failure) == {"params", "expected", "actual"}

    def test_bug_trap_is_a_failure_row(self, monkeypatch, capsys):
        # one power of p more than the theorem gives trips normalized_parts' divisibility trap
        floor_exponent = coefficients.floor_exponent
        monkeypatch.setattr(coefficients, "floor_exponent", lambda p, a, n, l: floor_exponent(p, a, n, l) + 1)
        code, out, err = run_cli(["verify", "thm1.1", "--p", "3", "--n-max", "6", "--format", "json"], capsys)
        assert (code, err) == (1, "")
        failures = json.loads(out)["failures"]
        assert failures and {f["expected"] for f in failures} == {"no IntegrityError"}
        assert failures[0]["actual"].startswith("p^1 does not divide the sum")

    def test_out_of_memory_exits_three(self, monkeypatch, capsys):
        # a MemoryError is neither a failed theorem (1) nor a refused input (2), and prints no traceback
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_sweep", exhausted)
        code, out, err = run_cli(["verify", "lem2.2"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: out of memory; narrow the grid or the arguments\n"

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(["verify", "thm9.9"], capsys)
        assert code == 2
        assert "valid ids" in err
        assert "thm1.0" in err and "psi-identity" in err

    @TWO_CPUS
    def test_workers_give_same_report(self, capsys):
        argv = ["verify", "thm1.2", "--p", "2,3", "--n-max", "10"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv + ["--workers", "2"], capsys)
        assert code1 == code2 == 0
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("elapsed_ms")
        doc2.pop("elapsed_ms")
        assert doc1 == doc2

    def test_reports_identical_modulo_elapsed(self, capsys):
        argv = ["verify", "conj-perm", "--p", "3", "--n-max", "20"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("elapsed_ms")
        doc2.pop("elapsed_ms")
        assert doc1 == doc2

    def test_csv_report_matches_json(self, capsys):
        argv = ["verify", "thm1.5", "--p", "3", "--a", "1", "--l", "0"]
        _, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        _, csv_out, _ = run_cli(argv + ["--format", "csv"], capsys)
        doc = json.loads(json_out)
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == 1
        assert rows[0]["theorem"] == doc["theorem"]
        assert rows[0]["checked"] == str(doc["checked"])
        assert rows[0]["verdict"] == doc["verdict"]

    def test_plain_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm1.5", "--p", "3", "--a", "1", "--l", "0", "--format", "plain"],
            capsys,
        )
        assert code == 0
        assert "verdict : pass" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["verify", "thm1.5", "--p", "3", "--a", "1", "--l", "0", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_unwritable_out(self, capsys):
        code, _, err = run_cli(
            ["verify", "thm1.5", "--p", "3", "--a", "1", "--l", "0",
             "--out", "/nonexistent-dir-xyz/report.json"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CYCPSI_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["verify", "thm1.5", "--p", "3", "--a", "1", "--l", "0", "--out", "r.json"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["verify", "thm1.1", "--p", "3", "--s", "5", "--n-max", "5"], ["verify", "thm1.1", "--a", "1"]],
    )
    def test_empty_grid_refused(self, argv, tmp_path, capsys):
        # s = 5 is no digit mod 3, and thm1.1 keeps only a >= 2: nothing is checked
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", "error: the grid gives thm1.1 no tuples to check\n")
        target = tmp_path / "report.json"
        assert run_cli(argv + ["--out", str(target)], capsys)[0] == 2
        assert not target.exists()


@pytest.mark.parametrize("command", [["verify", "thm1.0"], ["explore", "rem1.2"]])
@pytest.mark.parametrize("name", ["a", "n", "l"])
@pytest.mark.parametrize("bound", ["min", "max"])
def test_fixed_value_and_range_refused_together(command, name, bound, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "SweepGrid", no_work)
    argv = command + ["--p", "3", f"--{name}", "2", f"--{name}-{bound}", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"--{name} (fixed) cannot be combined with --{name}-min or --{name}-max" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify", "thm1.0", "--p", "3,3", "--n-max", "3"], "primes has repeated values: 3"),
        (["verify", "thm1.1", "--s", "1,1"], "s_values has repeated values: 1"),
        (["explore", "rem1.2", "--r=-1,0,-1"], "r_values has repeated values: -1"),
        (["verify", "psi-identity", "--p", "3", "--a", "1", "--n-max", "3", "--r", "2,2"],
         "r_values has repeated values: 2"),
    ],
)
def test_repeated_grid_values_refused(argv, error, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a sweep was started")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    monkeypatch.setattr(cli, "run_explore", no_work)
    assert run_cli(argv, capsys) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["table", "--p", "3", "--a", "1", "--n-max", "3", "--r", "1,1"], "--r has repeated values: 1"),
        (["table", "--p", "3", "--a", "1", "--n-max", "3", "--l", "0,2,0,2"], "--l has repeated values: 0, 2"),
        (["table", "--p", "3", "--a", "1", "--n-max", "3", "--r=-1,0,-1", "--l", "0,0"],
         "--r has repeated values: -1"),
    ],
)
def test_repeated_table_values_refused(argv, error, monkeypatch, capsys):
    # a repeated r or l would print the same row twice
    def no_coefficient(*args, **kwargs):
        raise AssertionError("a coefficient was computed")

    monkeypatch.setattr(cli, "normalized_parts", no_coefficient)
    assert run_cli(argv, capsys) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm1.0"],
        ["explore", "rem1.2"],
    ],
)
def test_workers_above_cpu_count_refused(argv, monkeypatch, capsys):
    def no_process(process):
        raise AssertionError("a process was started")

    # every start method's Process starts through BaseProcess.start, and a sweep of workers starts them
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    with pytest.raises(AssertionError, match="a process was started"):
        cli.run_sweep("lem3.3", workers=2)
    code, out, err = run_cli(argv + ["--workers", str((os.cpu_count() or 1) + 1)], capsys)
    assert code == 2
    assert out == ""
    assert "--workers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "--p", "3", "--a", "1", "--n", "5", "--r", "0", "--l", "0"],
        ["table", "--p", "3", "--a", "1", "--n-max", "5"],
    ],
)
def test_workers_not_accepted_without_a_sweep(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # each a prefix of one flag of its command (--d-max, --q-max, --coeff-degree,
        # --abs-r-max, --l-max), which argparse would otherwise read as that flag
        ["verify", "lem3.1", "--d", "3"],
        ["verify", "lem3.1", "--q", "3"],
        ["verify", "psi-identity", "--coeff", "2"],
        ["verify", "lem2.2", "--abs", "3"],
        ["explore", "rem1.2", "--coeff", "2"],
        ["psi-check", "--p", "3", "--a", "1", "--n", "4", "--l", "2"],
        # psi-check compares one row; grid sweeps are verify psi-identity
        ["psi-check", "--p", "3", "--a", "1", "--n", "2", "--n-max", "5"],
        ["psi-check", "--p", "3", "--a", "1", "--n", "2", "--r-list", "0,1"],
        ["psi-check", "--p", "3", "--a", "1", "--n", "2", "--workers", "1"],
    ],
)
def test_flags_the_command_lacks_refused(argv, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work was started")

    for name in ("run_sweep", "run_explore", "psi_sides"):
        monkeypatch.setattr(cli, name, no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


# the SweepGrid fields that each target's axes read; self-test sweeps a fixed grid of its own
READS = {
    "thm1.0": "primes a_range n_range l_range r_values",
    "thm1.1": "primes a_range n_range l_range r_values s_values t_values",
    "thm1.2": "primes n_range l_range r_values s_values t_values",
    "cor1.3": "primes n_range l_range r_values",
    "thm1.4": "primes a_range n_range l_range r_values",
    "thm1.5": "primes a_range l_range r_values m_range",
    "lem2.2": "n_range l_range r_values m_range abs_r_max",
    "lem3.1": "n_range l_range r_values d_range q_range",
    "lem3.2": "primes a_range n_range l_range r_values s_values t_values",
    "lem3.3": "primes n_range s_values t_values",
    "lem4.1": "primes n_range l_range r_values",
    "rem2.1": "primes a_range n_range l_range r_values",
    "conj-perm": "primes n_range r_values",
    "psi-identity": "primes a_range n_range r_values coeff_degree",
    "self-test": "",
    "rem1.2": "primes a_range n_range l_range r_values",
}
# each grid flag with a value that moves its field off the SweepGrid() default
GRID_FLAGS = {
    "--p": ("3", "primes"), "--a": ("1", "a_range"), "--a-min": ("2", "a_range"), "--a-max": ("1", "a_range"),
    "--n": ("3", "n_range"), "--n-min": ("1", "n_range"), "--n-max": ("3", "n_range"),
    "--l": ("1", "l_range"), "--l-min": ("1", "l_range"), "--l-max": ("1", "l_range"),
    "--r": ("0", "r_values"), "--s": ("0", "s_values"), "--t": ("0", "t_values"),
    "--m-min": ("2", "m_range"), "--m-max": ("2", "m_range"), "--d-max": ("2", "d_range"),
    "--q-max": ("2", "q_range"), "--abs-r-max": ("2", "abs_r_max"), "--coeff-degree": ("2", "coeff_degree"),
}


def _stub_sweeps(monkeypatch) -> list:
    """Replace run_sweep and run_explore by stubs that log the grid they get and pass."""
    grids = []

    def stub(*args, workers):
        grids.append(args[-1])
        return VerificationReport(theorem="stub", checked=1, failures=[], elapsed_ms=0)

    monkeypatch.setattr(cli, "run_sweep", stub)
    monkeypatch.setattr(cli, "run_explore", stub)
    return grids


@pytest.mark.parametrize("flag", GRID_FLAGS)
@pytest.mark.parametrize("target", READS)
def test_a_grid_flag_the_target_does_not_read_is_refused(target, flag, monkeypatch, capsys):
    # a flag that moves a field the target's axes never read would run the default sweep unchanged
    grids = _stub_sweeps(monkeypatch)
    value, name = GRID_FLAGS[flag]
    command = "explore" if target == "rem1.2" else "verify"
    code, out, err = run_cli([command, target, flag, value], capsys)
    if name in READS[target].split():
        assert (code, err) == (0, "")
        [grid] = grids
        assert [f.name for f in fields(grid) if getattr(grid, f.name) != getattr(SweepGrid(), f.name)] == [name]
    else:
        assert (code, out, err, grids) == (2, "", f"error: {target} does not read {name}\n", [])


def test_every_unread_field_is_named_and_a_default_value_moves_nothing(monkeypatch, capsys):
    grids = _stub_sweeps(monkeypatch)
    argv = ["verify", "self-test", "--p", "7", "--a", "2", "--n-max", "3", "--abs-r-max", "10"]
    assert run_cli(argv, capsys) == (2, "", "error: self-test does not read primes, a_range, n_range\n")
    argv = ["verify", "thm1.5", "--p", "2,3,5", "--n-min", "0", "--n-max", "40", "--q-max", "9"]
    assert run_cli(argv, capsys)[0] == 0
    assert grids == [SweepGrid()]


@pytest.mark.parametrize("argv", [["verify", "thm9.9", "--m-max", "2"], ["verify", "rem1.2", "--m-max", "2"]])
def test_an_unknown_check_id_is_refused_as_unknown_whatever_its_flags(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unknown check id {argv[1]!r}; valid ids: thm1.0, ")


THM1_1_DIGITS = ["verify", "thm1.1", "--p", "3", "--a", "2", "--l", "0", "--n-max", "2"]


@pytest.mark.parametrize(
    "argv, flag, value, expected",
    [
        # p = 3, a = 1, l = 0, n in 0..4, r in {-1, 0}
        (["verify", "thm1.0", "--p", "3", "--a", "1", "--l", "0", "--n-max", "4"], "--r", "-1,0",
         '"checked": 10'),
        (["explore", "rem1.2", "--p", "3", "--a", "1", "--l", "0", "--n-max", "4"], "--r", "-1,0",
         '"checked": 8'),
        # digits outside 0..p-1 are dropped: s = 0 and t = 1 over 3 rows and 11 classes
        (THM1_1_DIGITS + ["--t", "1"], "--s", "-1,0", '"checked": 33'),
        (THM1_1_DIGITS + ["--s", "0"], "--t", "-1,1", '"checked": 33'),
        (["table", "--p", "3", "--a", "1", "--n-max", "2"], "--r", "-7,4", "3,1,2,-7,0,1,0,1,1\n"),
        (["verify", "psi-identity", "--p", "3", "--a", "2", "--n-max", "12"], "--r", "-5,0,7",
         '"checked": 39'),
    ],
)
@pytest.mark.parametrize("joined", [False, True])
def test_list_flags_take_a_negative_first_value(argv, flag, value, expected, joined, capsys):
    # argparse alone reads "-1,0" after a space as an option and exits 2
    tail = [f"{flag}={value}"] if joined else [flag, value]
    code, out, err = run_cli(argv + tail, capsys)
    assert (code, err) == (0, "")
    assert expected in out


@pytest.mark.parametrize("joined", [False, True])
def test_negative_first_prime_list_reaches_the_prime_check(joined, capsys):
    tail = ["--p=-3,3"] if joined else ["--p", "-3,3"]
    code, out, err = run_cli(["verify", "thm1.0"] + tail, capsys)
    assert (code, out) == (2, "")
    assert err == "error: p must be prime, got -3\n"


class TestPsiCheck:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            ["psi-check", "--p", "2", "--a", "1", "--n", "1", "--r", "0", "--l-max", "3"],
            capsys,
        )
        assert code == 0
        assert "match: yes" in out

    def test_constant_row(self, capsys):
        code, out, _ = run_cli(
            ["psi-check", "--p", "3", "--a", "2", "--n", "0", "--r", "0"], capsys
        )
        assert code == 0
        assert "match: yes" in out

    def test_json_single(self, capsys):
        code, out, _ = run_cli(
            ["psi-check", "--p", "2", "--a", "1", "--n", "1", "--r", "0", "--l-max", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["match"] is True
        assert doc["rows"][0] == {"l": 0, "psi": "-1", "expected": "-1"}

    def test_csv_single(self, capsys):
        code, out, _ = run_cli(
            ["psi-check", "--p", "2", "--a", "1", "--n", "1", "--r", "0", "--l-max", "2",
             "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out == "l,psi,expected\n0,-1,-1\n1,0,0\n2,0,0\n"

    def test_needs_row_or_grid(self, capsys):
        code, _, err = run_cli(["psi-check", "--p", "2", "--a", "1"], capsys)
        assert code == 2
        assert "--n" in err

    def test_single_row_r_defaults_to_zero(self, capsys):
        argv = ["psi-check", "--p", "3", "--a", "1", "--n", "4"]
        assert run_cli(argv, capsys) == run_cli(argv + ["--r", "0"], capsys)


class TestExplore:
    def test_rem1_2(self, capsys):
        code, out, _ = run_cli(
            ["explore", "rem1.2", "--p", "3", "--a", "1", "--n-max", "6", "--l-max", "1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem"] == "rem1.2"
        assert doc["verdict"] == "pass"
        assert "min_margin" in doc

    def test_unknown_target(self, capsys):
        code, _, err = run_cli(["explore", "rem9.9"], capsys)
        assert code == 2
        assert "rem1.2" in err

    def test_empty_grid_refused(self, capsys):
        # rem1.2 keeps only p != 2
        assert run_cli(["explore", "rem1.2", "--p", "2"], capsys) == (
            2, "", "error: the grid gives rem1.2 no tuples to check\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cycpsi.cli", "coeff", "--p", "2", "--a", "1",
         "--n", "4", "--r", "0", "--l", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "normalized = 1" in proc.stdout


def test_optimized_interpreter_still_fails_self_test():
    # python -O strips assert statements; no check may depend on them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cycpsi.cli", "verify", "self-test"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "fail"
