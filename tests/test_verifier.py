import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cycpsi import (
    CHECK_IDS,
    SweepGrid,
    congruent_mod_p_power,
    delta_for,
    fleck_sum_general,
    normalized_parts,
    residue_system,
    run_explore,
    run_sweep,
)
from cycpsi import coefficients, verifier
from cycpsi.coefficients import normalized_table
from cycpsi.verifier import CHECKS, CheckFailure, _lem3_2_exceptional, _shard, _sigma, _thm1_2_branch
from cycpsi.exactmath import ord_p

TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")

SMALL = SweepGrid(
    primes=(2, 3),
    a_range=(1, 2),
    n_range=(0, 8),
    l_range=(0, 2),
    m_range=(1, 4),
    d_range=(1, 3),
    q_range=(1, 3),
    abs_r_max=3,
    coeff_degree=3,
)


def test_residue_system():
    assert residue_system(2, 1) == (0, 1, -1)
    assert residue_system(3, 1) == (0, 1, 2, -1, -2)
    assert residue_system(2, 2) == (0, 1, 2, 3, -1, -3)


def test_delta_table():
    assert [delta_for(p) for p in (2, 3, 5, 7, 11)] == [0, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        delta_for(6)


class TestSweepGrid:
    def test_defaults(self):
        grid = SweepGrid()
        assert grid.primes == (2, 3, 5)
        assert grid.a_range == (1, 2)
        assert grid.n_range == (0, 40)
        assert grid.l_range == (0, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"primes": ()},
            {"primes": (4,)},
            {"a_range": (2, 1)},
            {"a_range": (0, 2)},
            {"n_range": (-1, 5)},
            {"m_range": (0, 3)},
            {"r_values": ()},
            {"abs_r_max": -1},
            {"coeff_degree": -2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepGrid(**kwargs)

    @pytest.mark.parametrize(
        "name, values, text",
        [
            ("primes", (3, 3), "3"),
            ("r_values", (2, -1, 2, -1, 0), "-1, 2"),
            ("s_values", (1, 1), "1"),
            ("t_values", (0, 4, 4), "4"),
        ],
    )
    def test_repeated_values_refused(self, name, values, text):
        with pytest.raises(ValueError, match=f"^{name} has repeated values: {text}$"):
            SweepGrid(**{name: values})

    def test_residues_override(self):
        grid = SweepGrid(r_values=(0, 5))
        assert grid.residues(3, 2) == (0, 5)
        assert SweepGrid().residues(3, 1) == (0, 1, 2, -1, -2)

    def test_digit_filtering(self):
        grid = SweepGrid(s_values=(0, 1, 4, 9))
        assert grid.digits(3, grid.s_values) == (0, 1)
        assert grid.digits(5, None) == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("check_id", [cid for cid in CHECK_IDS if cid != "self-test"])
def test_small_sweeps_pass(check_id):
    report = run_sweep(check_id, SMALL)
    assert report.verdict == "pass", report.failures[:3]
    assert report.checked > 0
    assert report.failures == []


def test_checked_counts_match_expansion():
    grid = SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0), m_range=(1, 6))
    report = run_sweep("thm1.5", grid)
    # 6 multipliers times the 5-element residue system mod 3
    assert report.checked == 30
    assert report.checked == sum(1 for _ in CHECKS["thm1.5"].expand(grid))


def test_self_test_fails():
    report = run_sweep("self-test", SMALL)
    assert report.verdict == "fail"
    assert report.failures
    assert report.checked == 20


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        run_sweep("thm9.9", SMALL)


def test_deterministic_reports():
    first = run_sweep("thm1.0", SMALL)
    second = run_sweep("thm1.0", SMALL)
    assert first.checked == second.checked
    assert first.failures == second.failures
    assert first.verdict == second.verdict


@TWO_CPUS
def test_workers_match_serial():
    serial = run_sweep("thm1.2", SMALL)
    parallel = run_sweep("thm1.2", SMALL, workers=2)
    assert serial.checked == parallel.checked
    assert serial.failures == parallel.failures
    parallel_fail = run_sweep("self-test", SMALL, workers=2)
    assert parallel_fail.verdict == "fail"
    assert parallel_fail.checked == 20


POOL_SCRIPT = """
import json
import multiprocessing
import sys

from cycpsi import SweepGrid, run_sweep

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    grid = SweepGrid(**json.loads(sys.argv[2]))
    docs = {}
    for check_id in ("self-test", "thm1.1", "psi-identity"):
        doc = run_sweep(check_id, grid, workers=2).to_json_dict()
        del doc["elapsed_ms"]
        docs[check_id] = doc
    print(json.dumps(docs))
"""


@TWO_CPUS
@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pool_start_methods_match_serial(method, tmp_path):
    # Python 3.14 makes forkserver the default on Linux; spawn is the default elsewhere
    grid = {"primes": [2, 3], "a_range": [1, 2], "n_range": [0, 8], "l_range": [0, 2]}
    script = tmp_path / "pooled.py"
    script.write_text(POOL_SCRIPT, encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(script), method, json.dumps(grid)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    pooled = json.loads(proc.stdout)
    serial_grid = SweepGrid(**{key: tuple(value) for key, value in grid.items()})
    for check_id, doc in pooled.items():
        serial = run_sweep(check_id, serial_grid).to_json_dict()
        del serial["elapsed_ms"]
        assert json.loads(json.dumps(serial)) == doc, check_id
    assert pooled["self-test"]["verdict"] == "fail"


def merged_shards(target, grid, workers=3):
    """Every shard of target run in process, as pool workers would run them, merged on i."""
    shards = [_shard(target, grid, index, workers) for index in range(workers)]
    for index, (checked, rows) in enumerate(shards):
        assert checked > 0
        assert all(i % workers == index for i, _, _ in rows)
    rows = sorted((row for _, part in shards for row in part), key=lambda row: row[0])
    return sum(checked for checked, _ in shards), rows


def test_three_shards_merge_to_the_serial_report():
    serial = run_sweep("self-test", SMALL)
    checked, rows = merged_shards("self-test", SMALL)
    assert checked == serial.checked == 20
    assert [i for i, _, _ in rows] == list(range(checked))  # every tuple fails
    assert [CheckFailure(params, *outcome) for _, params, outcome in rows] == serial.failures

    grid = SweepGrid(primes=(3, 5), a_range=(1, 2), n_range=(1, 5), l_range=(0, 1))
    serial = run_explore(grid)
    checked, rows = merged_shards("rem1.2", grid)
    assert checked == serial.checked
    assert checked - len(rows) == serial.extra["infinite_margins"] > 0
    worst = sorted(rows, key=lambda row: row[2]["margin"])[:10]
    assert [{"params": params, **outcome} for _, params, outcome in worst] == serial.extra["worst"]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep("thm1.0", SMALL, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_explore(SMALL, workers=workers)


def test_psi_identity_leaves_the_sum_memo_empty():
    # each tuple's sums are distinct, so psi-identity reads the sums uncached
    report = run_sweep("psi-identity", SMALL)
    assert report.verdict == "pass" and report.checked > 0
    assert fleck_sum_general.cache_info().currsize == 0
    assert normalized_table.cache_info().currsize == 0


def _counting_normalized_parts(monkeypatch) -> list:
    """Count the calls that reach normalized_parts, i.e. the memo misses."""
    calls = []
    direct = coefficients.normalized_parts

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(coefficients, "normalized_parts", counted)
    return calls


def _doc(report) -> dict:
    doc = report.to_json_dict()
    del doc["elapsed_ms"]
    return doc


def test_memo_is_kept_while_the_grid_stays(monkeypatch):
    calls = _counting_normalized_parts(monkeypatch)
    first = _doc(run_sweep("thm1.1", SMALL))
    thm1_1_misses = set(calls)
    assert thm1_1_misses
    calls.clear()
    assert _doc(run_sweep("thm1.1", SMALL)) == first
    assert calls == []
    # lem3.2 reads every coefficient thm1.1 read and computes none of them again
    run_sweep("lem3.2", SMALL)
    assert calls and thm1_1_misses.isdisjoint(calls)
    assert len(calls) == len(set(calls))


def test_a_new_grid_starts_with_empty_memos():
    run_sweep("thm1.1", SMALL)
    run_sweep("thm1.0", SMALL)
    assert normalized_table.cache_info().currsize > 0
    assert fleck_sum_general.cache_info().currsize > 0
    other = SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0), m_range=(1, 2))
    run_sweep("thm1.5", other)
    assert normalized_table.cache_info().currsize == 1  # only the table thm1.5 filled
    assert fleck_sum_general.cache_info().currsize == 0


def test_empty_grid_raises():
    # thm1.1 keeps only a >= 2, so a_range (1, 1) gives it nothing to check
    with pytest.raises(ValueError, match=r"^the grid gives thm1\.1 no tuples to check$"):
        run_sweep("thm1.1", SweepGrid(a_range=(1, 1)))


def test_cor1_3_refuses_non_integral_sides(monkeypatch):
    # the p-integrality pre-check reports the failure; congruent_mod_p_power would raise
    monkeypatch.setattr(verifier, "t_coeff", lambda p, a, n, r, l: Fraction(1, p))
    outcome = CHECKS["cor1.3"].evaluate(p=3, l=0, n=4, r=1)
    assert outcome == ("lhs 3-integral", "lhs = 1/3")


def test_valuation_failure_texts(monkeypatch):
    # a unit sum misses thm1.0's floor exponent floor((5 - 1) / 2) = 2
    monkeypatch.setattr(verifier, "fleck_sum_general", lambda n, r, m, l: 1)
    assert CHECKS["thm1.0"].evaluate(p=3, a=1, l=0, n=5, r=0) == ("ord_3 >= 2", "ord_3 = 0")
    # a difference of 3 misses thm1.4's bound ceil(4/5 (2 ord_5(5) + 2)) = 4
    monkeypatch.setattr(verifier, "normalized", lambda p, a, n, r, l: 3 * a)
    assert CHECKS["thm1.4"].evaluate(p=5, a=1, l=0, n=5, r=0) == ("ord_5 >= 4", "ord_5 = 0")


def test_evaluators_resolve_names_at_call_time(monkeypatch):
    # a tracer rebinds these names in the module; the sweeps must call the new bindings
    monkeypatch.setattr(verifier, "index_reduction_identity", lambda n, r, l, m: (1, 2))
    report = run_sweep("lem2.2", SMALL)
    assert report.verdict == "fail"
    assert len(report.failures) == report.checked > 0
    assert (report.failures[0].expected, report.failures[0].actual) == ("2", "1")
    margin = {"target": 0, "observed": -7, "margin": -7}
    monkeypatch.setattr(verifier, "_margin_rem1_2", lambda p, a, l, n, r: margin)
    report = run_explore(SMALL)
    assert report.extra["min_margin"] == "-7"
    assert report.extra["worst"][0] == {"params": {"p": 3, "a": 1, "l": 0, "n": 1, "r": 0}, **margin}


def test_report_json_schema():
    report = run_sweep("thm1.5", SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0)))
    doc = report.to_json_dict()
    assert set(doc) == {"theorem", "checked", "failures", "elapsed_ms", "verdict"}
    assert doc["theorem"] == "thm1.5"
    assert doc["verdict"] == "pass"
    assert isinstance(doc["checked"], int)
    assert doc["failures"] == []


class TestThm12Branches:
    def test_branches_cover_and_exclude(self):
        # uncovered digit pairs exist and genuinely fail the plain congruence
        assert _thm1_2_branch(3, 0, 5, 1, 0) == 0
        lhs = normalized_parts(3, 2, 3 * 5 + 1, 0, 0)[2]
        rhs = normalized_parts(3, 1, 5, 0, 0)[2]
        assert (lhs - rhs) % 3 != 0

    def test_branch_exclusivity(self):
        for p in (2, 3, 5):
            for l in range(0, 3):
                for n in range(0, 12):
                    for s in range(p):
                        for t in range(p):
                            branch = _thm1_2_branch(p, l, n, s, t)
                            assert branch in (0, 1, 2)
                            in_one = (
                                n % p == 0
                                or (n - l - 1) % (p - 1) != 0
                                or s == p - 1
                                or (s == 2 * t and p != 2)
                            )
                            in_two = (
                                n % p != 0
                                and (n - l - 1) % (p - 1) == 0
                                and s < t
                            )
                            assert not (in_one and in_two)
                            assert branch == (1 if in_one else 2 if in_two else 0)

    def test_expansion_skips_uncovered(self):
        grid = SweepGrid(primes=(3,), n_range=(5, 5), l_range=(0, 0))
        tuples = list(CHECKS["thm1.2"].expand(grid))
        assert all(_thm1_2_branch(t["p"], t["l"], t["n"], t["s"], t["t"]) for t in tuples)
        assert not any(t["s"] == 1 and t["t"] == 0 for t in tuples)


def test_lem3_2_classification_is_total():
    # spec-discussed tuple: phi(3) = 2 does not divide 2 - 1, so not exceptional
    assert not _lem3_2_exceptional(3, 1, 0, 2, 0)
    grid = SweepGrid(primes=(3,), a_range=(1, 1), n_range=(0, 10), l_range=(0, 2))
    seen = {True: 0, False: 0}
    for t in CHECKS["lem3.2"].expand(grid):
        seen[_lem3_2_exceptional(t["p"], t["a"], t["l"], t["n"], t["s"])] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_sigma_divisible_by_p():
    for p in (2, 3, 5):
        for n in range(1, 11):
            for s in range(p - 1):
                for t in range(0, s + 1):
                    assert ord_p(_sigma(p, n, s, t), p) >= 1, (p, n, s, t)


class TestExplore:
    def test_report_structure(self):
        grid = SweepGrid(primes=(3, 5), a_range=(1, 2), n_range=(1, 5), l_range=(0, 1))
        report = run_explore(grid)
        assert report.verdict == "pass"
        assert report.failures == []
        assert report.checked > 0
        assert "min_margin" in report.extra
        assert "worst" in report.extra
        doc = report.to_json_dict()
        assert doc["theorem"] == "rem1.2"
        assert "conjectured_exponent" in doc

    def test_skips_p_equal_two(self):
        grid = SweepGrid(primes=(2,), n_range=(1, 5))
        report = run_explore(grid)
        assert report.checked == 0
        assert report.extra["min_margin"] == "infinite"

    @TWO_CPUS
    def test_workers_match_serial(self):
        grid = SweepGrid(primes=(3,), a_range=(1, 1), n_range=(1, 4), l_range=(0, 1))
        serial = run_explore(grid)
        parallel = run_explore(grid, workers=2)
        assert serial.checked == parallel.checked
        assert serial.extra == parallel.extra


def test_hand_verified_instances_present():
    # the two anchor congruences quoted throughout the docs
    assert normalized_parts(2, 3, 9, 0, 0) == (10, 1, 5)
    assert normalized_parts(2, 2, 4, 0, 0) == (2, 1, 1)
    assert (5 - 1) % 2 == 0
    assert normalized_parts(3, 2, 15, 1, 0)[2] == 332
    assert 332 % 3 == 2
    assert congruent_mod_p_power(332, 5, 3, 1)
