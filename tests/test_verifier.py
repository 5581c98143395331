import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, fields, replace
from fractions import Fraction
from functools import cache
from itertools import chain, zip_longest
from operator import ne
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycpsi import (
    CHECK_IDS,
    SweepGrid,
    congruent_mod_p_power,
    delta_for,
    normalized_parts,
    residue_system,
    run_explore,
    run_sweep,
)
from cycpsi import IntegrityError, coefficients, verifier
from cycpsi.coefficients import floor_exponent, normalized
from cycpsi.psi_series import _images
from cycpsi.verifier import CHECKS, CheckFailure, _block, _lem3_2_exceptional, _sigma, _thm1_2_branch
from oracles import fleck_oracle, nested_expand, row_tuples
from test_golden_reports import GRIDS
from test_mutants import (CATALOG_GRID, COEFFICIENT_MUTANTS, _doc, _in_process, _InProcessWorkers, _mutant,
                          _mutated_verifier, _rebind_everywhere)
from work import count_work, empty_memos, work_of

TWO_CPUS = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")

SMALL = GRIDS["small"]  # the golden reports' small grid


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
    assert report.checked == len(row_tuples(CHECKS["thm1.5"].expand(grid)))


def test_self_test_fails():
    report = run_sweep("self-test", SMALL)
    assert report.verdict == "fail"
    assert report.failures
    assert report.checked == 20


def test_unknown_id_rejected():
    # the CLI has no check of its own: `cycpsi verify thm9.9` prints this text
    with pytest.raises(ValueError) as err:
        run_sweep("thm9.9", SMALL)
    assert str(err.value) == f"unknown check id 'thm9.9'; valid ids: {', '.join(CHECK_IDS)}"


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


FAILING_WORKER_SCRIPT = """
import multiprocessing
import os
import sys
import time

from cycpsi import cli, verifier

if __name__ == "__main__":
    multiprocessing.set_start_method("fork")
    how, workers = sys.argv[1], sys.argv[2]
    parent, block_of = os.getpid(), verifier._block

    def failing_block(target, grid, block):
        if how == "exit" and os.getpid() != parent:
            os._exit(7)
        if how == "raise" and block == (2,):
            raise MemoryError
        if how == "raise in this process" and os.getpid() == parent:
            raise ValueError("raised in this process")
        if how == "raise in this process":
            time.sleep(60)
        return block_of(target, grid, block)

    verifier._block = failing_block
    code = cli.main(["verify", "lem3.3", "--workers", workers])
    print("running:", len(multiprocessing.active_children()))
    sys.exit(code)
"""


def run_failing_workers(how: str, workers: int, tmp_path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of verify lem3.3 with workers forked processes, whose block (5,) runs in
    this process and (3,) and (2,) in one worker at workers = 2, when blocks fail as how says."""
    script = tmp_path / "failing.py"
    script.write_text(FAILING_WORKER_SCRIPT, encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(script), how, str(workers)], capture_output=True, text=True,
                          env=env, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr


@TWO_CPUS
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_a_worker_that_dies_raises_in_this_process(tmp_path):
    # a worker that ends without sending its rows is one error line and exit 3, not a hang
    code, out, err = run_failing_workers("exit", 2, tmp_path)
    assert (code, err) == (3, "error: a worker process exited with code 7 before it sent its rows\n")
    assert out.endswith("running: 0\n")
    # and a sweep that passes leaves no worker running either
    code, out, err = run_failing_workers("pass", 2, tmp_path)
    assert (code, out.splitlines()[-1], err) == (0, "running: 0", "")


@TWO_CPUS
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_an_exception_a_worker_raised_is_raised_in_this_process(tmp_path):
    # the worker's MemoryError is raised here with its own type, so the sweep exits as a serial one does
    serial = run_failing_workers("raise", 1, tmp_path)
    assert serial[0] == 3 and serial[2] == "error: out of memory; narrow the grid or the arguments\n"
    assert run_failing_workers("raise", 2, tmp_path) == serial
    # an exception in this process's share kills the worker still running, which would sleep for a minute
    assert run_failing_workers("raise in this process", 2, tmp_path) == (
        2, "running: 0\n", "error: raised in this process\n")


def concatenated_blocks(target, grid):
    """The nonempty blocks' sizes summed, and their rows concatenated in expansion order,
    each block run in process by _block as a share of a sweep runs it. A block's size is the
    number of tuples its expand's rows hold."""
    check = verifier._check_of(target)
    blocks = [(block, size) for block, size in check.blocks(grid) if size]
    assert [size for _, size in blocks] == [len(row_tuples(check.expand(grid, block))) for block, _ in blocks]
    return sum(size for _, size in blocks), [row for block, _ in blocks for row in _block(target, grid, block)]


def test_concatenated_blocks_give_the_serial_report(monkeypatch):
    serial = run_sweep("self-test", SMALL)
    checked, rows = concatenated_blocks("self-test", SMALL)
    assert checked == serial.checked == len(rows) == 20  # every tuple fails
    assert [CheckFailure(params, *outcome) for params, outcome in rows] == serial.failures

    grid = SweepGrid(primes=(3, 5), a_range=(1, 2), n_range=(1, 5), l_range=(0, 1))
    serial = run_explore(grid)
    checked, rows = concatenated_blocks("rem1.2", grid)
    assert checked == serial.checked
    assert checked - len(rows) == serial.extra["infinite_margins"] > 0
    worst = sorted(rows, key=lambda row: row[1]["margin"])[:10]
    assert [{"params": params, **outcome} for params, outcome in worst] == serial.extra["worst"]
    # and three shares, two of them in worker processes, put the blocks' results back in the same order
    started = _in_process(monkeypatch).started
    assert _doc(run_explore(grid, workers=3)) == _doc(serial)
    assert len(started) == 2


# every memo steps along n inside one binding of a check's block axes; thm1.5 and self-test reach n through m
BLOCK_AXES = {
    "thm1.0": ("p", "a", "l"), "thm1.1": ("p", "a", "l"), "thm1.2": ("p", "l"), "cor1.3": ("p", "l"),
    "thm1.4": ("p", "a", "l"), "thm1.5": ("p", "a", "l"), "lem2.2": ("n",), "lem3.1": ("d", "q"),
    "lem3.2": ("p", "a", "l"), "lem3.3": ("p",), "lem4.1": ("p", "l"), "rem2.1": ("p", "a", "l"),
    "conj-perm": ("p",), "psi-identity": ("p", "a"), "self-test": ("p", "a", "l"), "rem1.2": ("p", "a", "l"),
}


def test_blocks_bind_the_axes_before_n():
    checks = {target: verifier._check_of(target) for target in ALL_TARGETS}
    assert {target: check.names[:verifier._block_depth(check.axes)] for target, check in checks.items()} == BLOCK_AXES


def test_each_thm1_0_block_builds_its_rows_once():
    grid = ACCEPTANCE_GRIDS[0][1]
    blocks = CHECKS["thm1.0"].blocks(grid)
    # in expansion order, so each block meets the record and row the one before it left; _block empties
    # the records, so the block's record (p, a, l) starts at n = 0 and steps to n = 1. A block with a
    # positive bound at n = 120 steps it on to 120 and gives the row of every binding (p, a, l, n) with a
    # positive bound with no direct pass; a block whose every bound is <= 0 (floor_exponent grows with n)
    # reads no row and steps no further
    positive = {(p, a, l) for (p, a, l), _ in blocks if floor_exponent(p, a, 120, l) > 0}
    for block, _ in blocks:
        assert work_of(_block, "thm1.0", grid, block) == Counter(steps=120 if block in positive else 1), block
    # every 7^3 and 5^3 block, 7^2 at l >= 2, and 3^3 and 5^2 at l = 4 is vacuous
    assert len(blocks) - len(positive) == 15
    assert sum(size for _, size in blocks) == 381_150
    # the largest block is (7, 3, l): 121 values of n times 7^3 + 2 residues
    assert max(size for _, size in blocks) == 121 * (7 ** 3 + 2) == 41_745


@pytest.mark.parametrize("workers", [2, 3])
def test_psi_identity_blocks_build_the_images_of_a_fresh_worker(monkeypatch, workers):
    built = {}
    block_of = verifier._block

    def recording_block(target, grid, block):
        with count_work() as work:
            rows = block_of(target, grid, block)
        built[block] = work
        return rows

    class FreshWorkers(_InProcessWorkers):
        """Runs each share but the first as if in a worker that has run no block before."""

        def Process(self, target, args):
            return super().Process(lambda *args: empty_memos() or target(*args), args)

    monkeypatch.setattr(verifier, "_block", recording_block)
    # in process, each block runs after the blocks larger than it, on the memos they left
    run_sweep("psi-identity")
    in_process = dict(built)
    assert len(in_process) == 6 and all(work["images"] for work in in_process.values())
    built.clear()
    started = _in_process(monkeypatch, FreshWorkers()).started
    run_sweep("psi-identity", workers=workers)
    assert len(started) == workers - 1
    assert built == in_process


def test_tasks_go_largest_first_with_ties_in_expansion_order(monkeypatch):
    ran = []
    block_of = verifier._block

    def recording_block(target, grid, block):
        ran.append(block)
        return block_of(target, grid, block)

    monkeypatch.setattr(verifier, "_block", recording_block)
    started = _in_process(monkeypatch).started
    grid = SweepGrid(primes=(2, 3), a_range=(1, 2), l_range=(0, 1), n_range=(0, 4))
    blocks = dict(CHECKS["thm1.0"].blocks(grid))
    serial = _doc(run_sweep("thm1.0", grid))
    assert ran == [(3, 2, 0), (3, 2, 1), (2, 2, 0), (2, 2, 1), (3, 1, 0), (3, 1, 1), (2, 1, 0), (2, 1, 1)]
    assert [blocks[block] for block in ran] == [55, 55, 30, 30, 25, 25, 15, 15]
    # the tie 55, 55 goes to shares 0 and 1 in expansion order, and each later block to the lighter share;
    # the in-process stand-in runs the second share when it starts, before this process runs the first
    ran.clear()
    assert _doc(run_sweep("thm1.0", grid, workers=2)) == serial
    assert started == [[(3, 2, 1), (2, 2, 1), (3, 1, 1), (2, 1, 1)]]
    assert ran == started[0] + [(3, 2, 0), (2, 2, 0), (3, 1, 0), (2, 1, 0)]
    # lem3.3's three blocks (p) grow with p, so they are dealt last first, and three blocks cap the shares
    started.clear()
    ran.clear()
    assert _doc(run_sweep("lem3.3", workers=4)) == _doc(run_sweep("lem3.3"))
    assert started == [[(3,)], [(2,)]]
    assert ran[:3] == [(3,), (2,), (5,)]


def test_a_sweep_of_one_block_starts_no_process(monkeypatch):
    started = _in_process(monkeypatch).started
    serial = _doc(run_sweep("self-test"))
    assert serial["verdict"] == "fail"
    for workers in (2, 3):
        assert _doc(run_sweep("self-test", workers=workers)) == serial
    assert started == []  # self-test is one block, so it runs in process
    # thm1.5 at p = 3, l = 0 is two blocks, a = 1 and a = 2
    grid = SweepGrid(primes=(3,), a_range=(1, 2), l_range=(0, 0), m_range=(1, 4))
    assert _doc(run_sweep("thm1.5", grid, workers=3)) == _doc(run_sweep("thm1.5", grid))
    assert started == [[(3, 1, 0)]]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_sweep("thm1.0", SMALL, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_explore(SMALL, workers=workers)


def test_psi_identity_leaves_the_sum_memo_empty():
    # psi-identity reads its sums from the raw-sum record of each (p, a, coeff_degree), never summing directly
    work = work_of(run_sweep, "psi-identity", SMALL)
    assert work["steps"] and set(+work) <= {"steps", "psi_power", "images", "constants"}


def test_every_sweep_starts_with_empty_records_and_operator_constants():
    # every block does: each psi-identity block (p, a) at coeff_degree 3 steps one record from n = 0 to 8
    # and builds its images and constants, the same work whatever blocks ran before it, thm1.0's included
    blocks = [(p, a) for p in SMALL.primes for a in (1, 2)]
    fresh = {block: empty_memos() or work_of(_block, "psi-identity", SMALL, block) for block in blocks}
    assert all(work["steps"] == 8 and work["images"] for work in fresh.values())
    _block("thm1.0", SMALL, (3, 2, 1))
    assert [work_of(_block, "psi-identity", SMALL, block) for block in blocks[::-1]] == [
        fresh[block] for block in blocks[::-1]]


def test_every_sweep_starts_with_an_empty_image_memo():
    # a second sweep of the same grid, whose coefficient memos stay, builds every image again
    works = [work_of(run_sweep, "psi-identity", SMALL) for _ in range(2)]
    assert works[0]["images"] > 0 and works[0] == works[1]


def test_a_block_reads_no_stepping_memo_left_before_it(monkeypatch):
    # stand-in verdicts that fail every tuple with both sides expose what each tuple read; thm1.0's block
    # (2, 1, 0) reads a sum at n >= 2, where its bound n - 1 is positive, 7 rows of 3 classes on SMALL
    monkeypatch.setattr(verifier, "_ord_at_least", lambda value, bound, p: (str(bound), str(value)))
    monkeypatch.setattr(verifier, "_exact", lambda lhs, rhs: (str(rhs), str(lhs)))
    blocks = [("thm1.0", (2, 1, 0)), ("psi-identity", (2, 1))]
    clean = [_block(target, SMALL, block) for target, block in blocks]
    assert [len(rows) for rows in clean] == [7 * 3, dict(CHECKS["psi-identity"].blocks(SMALL))[2, 1]]
    for (target, block), rows in zip(blocks, clean):
        # wrong records at n = 0 for thm1.0's (2, 1, 0) and psi-identity's (2, 1, 3), and wrong images
        coefficients._sums[2, 1, 0] = 0, [[7]]
        coefficients._sums[2, 1, 3] = 0, [[7], [7], [7], [7]]
        _images[2, 1, 3] = [[0] * 40 for _ in range(4)]
        assert _block(target, SMALL, block) == rows, target


# psi_sides reads its Fleck side from the record _sums[p, a, l_max] while n steps from 0, and sums it
# with _fleck_row behind the record or two past it; the moduli q are 2, 4, 9 and 25
@pytest.mark.parametrize("p, a", [(2, 1), (2, 2), (3, 2), (5, 2)])
def test_psi_sides_matches_the_oracle_on_and_off_the_record(p, a):
    q = p ** a

    def check(*ns) -> tuple[int, int]:
        """(record steps, direct rows) of psi_sides at every n of ns, every r checked against the oracle."""
        # negative r, r >= q, and for n < q - 1 the residues r0 > n, which have no term
        with count_work() as work:
            sides = {(n, r): verifier.psi_sides(p, a, n, r, 4) for n in ns for r in range(-3 * q, 3 * q + 1)}
        for (n, r), (got, want) in sides.items():
            assert want == [verifier._sign(n) * fleck_oracle(n, r, q, l) for l in range(5)] == got, (n, r)
        return work["steps"], work["fleck_rows"]

    assert check(*range(q + 3)) == (q + 2, 0)
    # behind the record, two past it, and far past it, each r summed directly; the record stays at q + 2
    assert check(q // 2, q + 4, 3 * q + 5) == (0, 3 * (6 * q + 1))
    assert check(q + 2, q + 3) == (1, 0)


def test_thm1_0_rows_off_the_record_are_summed_directly(monkeypatch):
    # a stand-in verdict that returns the sum each tuple read, for residues and for classes outside [0, 3),
    # each row of classes evaluated in one call; the bound floor((n - 7) / 2) of (3, 1, 2, n) is positive
    # from n = 9, and below it nothing is read
    monkeypatch.setattr(verifier, "_ord_at_least", lambda value, bound, p: value)
    classes = (-4, -1, 0, 1, 2, 4, 5)
    works = []
    for n in (10, 0, 1, 8, 9, 10, 11, 9, 13, 12):
        with count_work() as work:
            sums = CHECKS["thm1.0"].evaluate(3, 1, 2, n, classes)
        assert sums == ([(r, fleck_oracle(n, r, 3, 2)) for r in classes] if n >= 9 else []), n
        works.append(work)
    # with no record, 10 is off it: one residue row, and every class outside [0, 3) summed directly. Then
    # n = 0 and 1 start the record, and 8 leaves it at 1; 9 steps it over 2..8 first, and 13 over 12.
    # 9 lies behind the record at 11, and 12 behind the one at 13, so both are off it too
    step, off = Counter(steps=1), Counter(residue_rows=1, direct_sums=4)
    assert works == [off, Counter(), step, Counter(), Counter(steps=8), step, step, off, Counter(steps=2), off]


# thm1.0 reads the residues 0 <= r < p^a from one row per binding, and every other representative
# (negative classes, and classes at or above p^a) from its residue's levels in the same record; only a
# binding off the record sums those directly
THM1_0_GRIDS = [
    SweepGrid(primes=(2, 3), a_range=(1, 2), n_range=(0, 14), l_range=(0, 3),
              r_values=(-10, -4, -1, 0, 1, 2, 4, 8, 9, 25)),
    # mod 25 the residues 3, 7 and 24 lie past n for the small n, where they have no term
    SweepGrid(primes=(5,), a_range=(1, 2), n_range=(0, 30), l_range=(0, 2), r_values=(-26, -1, 0, 3, 7, 24, 25, 31)),
]


def _thm1_0_reads(sweeps, grid, monkeypatch) -> list:
    """[(bound, sum)] of every thm1.0 tuple of grid as the verifier module sweeps reads it: a
    stand-in verdict that fails every tuple with its bound and sum exposes what each tuple read."""
    monkeypatch.setattr(sweeps, "_ord_at_least", lambda value, bound, p: (bound, value))
    return [(f.expected, f.actual) for f in sweeps.run_sweep("thm1.0", grid).failures]


def _positive(values) -> bool:
    """Whether the thm1.0 tuple values = (p, a, l, n, r) has a positive bound, the only ones read."""
    p, a, l, n, _ = values
    return floor_exponent(p, a, n, l) > 0


def _thm1_0_oracle_reads(grid) -> list:
    """[(bound, sum)] of every thm1.0 tuple of grid with a positive bound, the sum from the oracle."""
    return [(floor_exponent(p, a, n, l), fleck_oracle(n, r, p ** a, l))
            for p, a, l, n, r in filter(_positive, row_tuples(CHECKS["thm1.0"].expand(grid)))]


@pytest.mark.parametrize("grid", THM1_0_GRIDS)
def test_thm1_0_matches_an_evaluator_on_the_oracle(grid, monkeypatch):
    tuples = list(filter(_positive, row_tuples(CHECKS["thm1.0"].expand(grid))))
    assert any(r < 0 for *_, r in tuples) and any(r >= p ** a for p, a, *_, r in tuples)
    assert [verifier._ord_at_least(value, bound, p)
            for (bound, value), (p, *_) in zip(_thm1_0_oracle_reads(grid), tuples)] == [None] * len(tuples)
    assert run_sweep("thm1.0", grid).verdict == "pass"
    assert _thm1_0_reads(verifier, grid, monkeypatch) == _thm1_0_oracle_reads(grid)


@pytest.mark.parametrize("grid", THM1_0_GRIDS)
def test_thm1_0_vacuous_tuples_read_nothing(grid, monkeypatch):
    # a bound <= 0 holds for every sum: such a tuple reaches no verdict and no kernel. Past n = 1 it does
    # not touch the record either; at n <= 1 it starts the record, which may take the step to n = 1
    def no_verdict(value, bound, p):
        raise AssertionError("a vacuous tuple reached _ord_at_least")

    monkeypatch.setattr(verifier, "_ord_at_least", no_verdict)
    # from the nested loops, since expand keeps only the vacuous rows at n <= 1
    vacuous = [values for values in nested_expand(CHECKS["thm1.0"].axes, grid) if not _positive(values)]
    assert any(n >= 2 for _, _, _, n, _ in vacuous)
    for values in vacuous:
        record_work = set() if values[3] >= 2 else {"steps"}
        assert set(+work_of(CHECKS["thm1.0"].evaluate, *values[:-1], values[-1:])) <= record_work, values
    assert [CHECKS["thm1.0"].evaluate(*values[:-1], values[-1:]) for values in vacuous] == [[]] * len(vacuous)


# thm1.0 from n = 1, where a kept n = 1 row starts each record, and from n = 2, where no row starts one,
# so every read of a class outside [0, p^a) is a direct sum
THM1_0_FROM_N = [SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(n_lo, 30), l_range=(0, 2),
                           r_values=(-7, -1, 0, 3, 11, 26)) for n_lo in (1, 2)]


@pytest.mark.parametrize("grid", [*THM1_0_GRIDS, *THM1_0_FROM_N])
def test_thm1_0_reads_as_when_it_evaluated_every_tuple(grid, monkeypatch):
    # the route that pruning replaced: every tuple of the nested loops evaluated as a one-value row,
    # block by block in expansion order, each on the memos _block empties; its vacuous rows past n = 1
    # read nothing
    with count_work() as work:
        reads = _thm1_0_reads(verifier, grid, monkeypatch)
    assert bool(work["direct_sums"]) is (grid.n_range[0] >= 2)
    check = CHECKS["thm1.0"]
    tuples = {}
    for values in nested_expand(check.axes, grid):
        tuples.setdefault(values[:3], []).append((*values[:-1], values[-1:]))
    monkeypatch.setitem(CHECKS, "thm1.0", replace(check, expand=lambda grid, block: tuples[block]))
    every = [outcome for block, _ in check.blocks(grid) for _, outcome in _block("thm1.0", grid, block)]
    assert reads and every == reads


# The read of a class outside [0, p^a): its residue's level l plus shift coefficient i times level l - i.
# Every level l' <= l reaches level l's bound, so an integer combination of them does too: thm1.0's own
# verdict passes under each of these, and only the differential against the oracle sees them
THM1_0_READ_MUTANTS = {
    "shift term subtracted": ("total += c * raw[l - i][r0]", "total -= c * raw[l - i][r0]"),
    "shift term one level up": ("raw[l - i][r0]", "raw[l - i + 1][r0]"),
    "shift term from level i - 1": ("raw[l - i][r0]", "raw[i - 1][r0]"),
}


@pytest.mark.parametrize("mutant", THM1_0_READ_MUTANTS)
def test_the_oracle_differential_catches_thm1_0_read_mutants(mutant, monkeypatch):
    mutated = _mutated_verifier(*THM1_0_READ_MUTANTS[mutant])
    differ = 0
    for grid in THM1_0_GRIDS:
        reads, oracle = _thm1_0_reads(mutated, grid, monkeypatch), _thm1_0_oracle_reads(grid)
        # the mutant reads the same tuples, so it is caught by the sums it reads, not by their number
        assert len(reads) == len(oracle)
        differ += sum(map(ne, reads, oracle))
    assert differ


@pytest.mark.parametrize("grid", [*THM1_0_GRIDS, SweepGrid()])
def test_thm1_0_sums_directly_only_off_the_record(grid):
    # every block steps its records from n = 0, so each binding is on the record; where n starts
    # at 5, every block starts past its records' first step and sums the other classes directly
    for n_range, direct in ((grid.n_range, False), ((5, 14), True)):
        with count_work() as work:
            assert run_sweep("thm1.0", replace(grid, n_range=n_range)).verdict == "pass"
        assert bool(work["direct_sums"]) is direct, n_range


def test_a_sweep_after_the_row_kernel_is_patched_sees_the_patch(monkeypatch):
    # one binding (p, a, l, n) = (3, 1, 0, 5), so each sweep starts at the binding the last one ended on
    grid = SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0), n_range=(5, 5), r_values=(0, 1, 2))
    assert run_sweep("thm1.0", grid).verdict == "pass"
    # unit sums miss the floor exponent floor((5 - 1) / 2) = 2
    monkeypatch.setattr(verifier, "_fleck_residues", lambda n, m, l: [1] * min(n + 1, m))
    assert len(run_sweep("thm1.0", grid).failures) == 3
    monkeypatch.undo()
    assert run_sweep("thm1.0", grid).verdict == "pass"


def test_memo_is_kept_while_the_grid_stays():
    thm1_1 = work_of(run_sweep, "thm1.1", SMALL)
    assert work_of(run_sweep, "thm1.1", SMALL) == Counter()
    # lem3.2 reads every coefficient thm1.1 reads (thm1.1 after it computes none), so after thm1.1 it
    # does its work alone less all of thm1.1's
    after = work_of(run_sweep, "lem3.2", SMALL)
    coefficients.clear_caches()
    assert work_of(run_sweep, "lem3.2", SMALL) == thm1_1 + after
    assert (thm1_1["normalized_parts"], after["normalized_parts"]) == (210, 92)
    assert work_of(run_sweep, "thm1.1", SMALL) == Counter()


def test_rem2_1_after_thm1_1_sums_no_more_directly_than_alone():
    # rem2.1 reads behind the records it steps; each sweep starts its records at n = 0, so the ones
    # thm1.1 left at the end of the grid do not turn rem2.1's reads into direct sums
    alone = work_of(run_sweep, "rem2.1")["normalized_parts"]
    coefficients.clear_caches()
    run_sweep("thm1.1")
    assert work_of(run_sweep, "rem2.1")["normalized_parts"] <= alone


CATALOG_TARGETS = [*(c for c in CHECK_IDS if c != "self-test"), "rem1.2"]


def _catalog_doc(target: str) -> dict:
    """target's report on CATALOG_GRID, bar elapsed_ms, on the memos as they stand."""
    return _doc(run_explore(CATALOG_GRID) if target == "rem1.2" else run_sweep(target, CATALOG_GRID))


@cache
def _fresh_catalog() -> dict:
    """Every catalog target's report on CATALOG_GRID from empty memos, bar elapsed_ms."""
    return {target: empty_memos() or _catalog_doc(target) for target in CATALOG_TARGETS}


@given(st.lists(st.sampled_from(CATALOG_TARGETS), min_size=3, max_size=6))
@example(CATALOG_TARGETS)
@example(CATALOG_TARGETS[::-1])
@settings(max_examples=10, deadline=None)
def test_a_catalog_sharing_its_memos_reports_as_fresh_sweeps_do(targets):
    # each on memos left by the sweeps before it: rows are kept for a grid and shared between checks,
    # records restart in every block
    fresh = _fresh_catalog()
    empty_memos()
    assert [_catalog_doc(target) for target in targets] == [fresh[target] for target in targets]


def test_a_new_grid_starts_with_empty_memos():
    other = SweepGrid(primes=(3,), a_range=(1, 1), l_range=(0, 0), m_range=(1, 2))
    fresh = {target: empty_memos() or work_of(run_sweep, target, other) for target in ("thm1.5", "cor1.3")}
    assert fresh["thm1.5"]["normalized_parts"] == 10 and fresh["cor1.3"] == Counter(memo_sums=521)
    # SMALL's sweeps read the same coefficients and sums; each change of grid empties the memos
    for target, work in fresh.items():
        run_sweep(target, SMALL)
        assert work_of(run_sweep, target, other) == work


def test_the_memo_holds_one_row_per_r_and_l():
    # every coefficient thm1.1 reads is kept for the grid, each the direct route's value
    run_sweep("thm1.1", SMALL)
    reads = {args for p, a, l, n, r, s, t in row_tuples(CHECKS["thm1.1"].expand(SMALL))
             for args in ((p, a + 1, p * n + s, p * r + t, l), (p, a, n, r, l))}
    with count_work() as work:
        kept = {args: normalized(*args) for args in reads}
    assert work == Counter()
    assert all(value == normalized_parts(*args)[2] for args, value in kept.items())


def test_abs_r_max_bounds_lem2_2_only():
    # lem3.1 sweeps |r| <= 2 whatever abs_r_max says; lem2.2 sweeps |r| <= abs_r_max
    small = dict(d_range=(1, 1), q_range=(1, 1), n_range=(1, 2), l_range=(1, 1), m_range=(1, 1))
    counts = {k: (run_sweep("lem3.1", SweepGrid(**small, abs_r_max=k)).checked,
                  run_sweep("lem2.2", SweepGrid(**small, abs_r_max=k)).checked) for k in (0, 5)}
    assert counts == {0: (30, 2), 5: (30, 22)}


def test_lem3_1_t_axis_is_the_small_digits_and_d_minus_1_below_d():
    name, axis_fields, values = verifier._LEM3_1_T
    assert (name, axis_fields) == ("t", ())
    for d in range(1, 13):
        assert list(values(SweepGrid(), {"d": d})) == [t for t in sorted({-2, -1, 0, 1, 2, d - 1}) if t < d]


def _targets() -> dict:
    """Every check id and rem1.2, each as (expand, axes, the grid that expand(grid) actually sweeps)."""
    out = {c: (check.expand, check.axes, None) for c, check in CHECKS.items()}
    out["self-test"] = (CHECKS["self-test"].expand, CHECKS["self-test"].axes, verifier._SELF_TEST_GRID)
    out["rem1.2"] = (verifier._expand_rem1_2, verifier._REM1_2_AXES, None)
    return out


# the acceptance grids of tests/test_acceptance.py, each with the checks it is swept for
ACCEPTANCE_GRIDS = [
    (("thm1.0",), SweepGrid(primes=(2, 3, 5, 7), a_range=(1, 3), n_range=(0, 120), l_range=(0, 4))),
    (("thm1.1",), SweepGrid(primes=(2, 3, 5), a_range=(2, 3), n_range=(0, 40), l_range=(0, 3))),
    (("thm1.2", "lem4.1"), SweepGrid(primes=(2, 3, 5), n_range=(0, 40), l_range=(0, 3))),
    (("cor1.3",), SweepGrid(primes=(2, 3, 5), n_range=(0, 60), l_range=(0, 3))),
    (("thm1.4",), SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(1, 40), l_range=(0, 2))),
    (("thm1.5",), SweepGrid(primes=(2, 3, 5), a_range=(1, 2), l_range=(0, 3), m_range=(1, 6))),
    (("lem2.2",), SweepGrid(n_range=(1, 30), l_range=(1, 4), m_range=(1, 8), abs_r_max=10)),
    (("lem3.1",), SweepGrid(n_range=(0, 30), l_range=(0, 3), d_range=(1, 9), q_range=(1, 9))),
    (("lem3.2",), SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(0, 20), l_range=(0, 2))),
    (("lem3.3",), SweepGrid(primes=(2, 3, 5), n_range=(1, 20))),
    (("rem2.1",), SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(1, 30), l_range=(1, 3))),
    (("psi-identity",), SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(0, 30),
                                  r_values=tuple(range(-6, 7)), coeff_degree=4)),
    (("conj-perm",), SweepGrid(primes=(3, 5, 7), n_range=(2, 40))),
]
ALL_TARGETS = tuple(CHECK_IDS) + ("rem1.2",)
# explicit value lists: s = 3, 4 and t = 5, 6 are no digits of p = 2 or 3, so some bindings expand to nothing
LISTED = dict(primes=(2, 3, 5, 7), a_range=(1, 2), n_range=(0, 6), l_range=(0, 2), m_range=(1, 3),
              d_range=(1, 4), q_range=(1, 3), abs_r_max=2, coeff_degree=2)
EXPANSION_GRIDS = [
    (ALL_TARGETS, SweepGrid()),
    (ALL_TARGETS, CATALOG_GRID),
    *ACCEPTANCE_GRIDS,
    (ALL_TARGETS, SweepGrid(**LISTED, r_values=(-4, 0, 1, 9), s_values=(0, 3, 4), t_values=(1, 5, 6))),
    (ALL_TARGETS, SweepGrid(**LISTED, r_values=(7,), s_values=(3, 4), t_values=(5, 6))),
]


def _expanded_tuples(target: str, grid: SweepGrid) -> dict:
    """block -> the tuples of the nested loops that target's expand keeps in it, in order: thm1.2's
    in a branch of the statement, thm1.0's at n <= 1 or with a positive bound."""
    _, axes, fixed = _targets()[target]
    depth = verifier._block_depth(axes)
    tuples = {}
    for values in nested_expand(axes, fixed or grid):
        if target == "thm1.2" and not _thm1_2_branch(values[0], values[1], values[2], values[4], values[5]):
            continue
        if target == "thm1.0" and not (values[3] <= 1 or _positive(values)):
            continue
        tuples.setdefault(values[:depth], []).append(values)
    return tuples


@pytest.mark.parametrize("targets, grid", EXPANSION_GRIDS)
def test_products_expand_as_the_nested_loops(targets, grid):
    # the expanders take products over the inner axes; the oracle binds every axis in turn, and keeps
    # thm1.2's tuples in a branch of the statement and thm1.0's at n <= 1 (which start its records) or
    # with a positive bound
    missing = object()
    for target in targets:
        want = chain.from_iterable(_expanded_tuples(target, grid).values())
        pairs = zip_longest(row_tuples(_targets()[target][0](grid)), want, fillvalue=missing)
        assert all(got == want for got, want in pairs), target


@pytest.mark.parametrize("targets, grid", EXPANSION_GRIDS)
def test_block_sizes_count_what_each_block_expands_to(targets, grid):
    # thm1.0's blocks also count the vacuous rows it does not expand: each size is the block's count
    # over the nested loops of its axes
    for target in targets:
        check = verifier._check_of(target)
        blocks = check.blocks(grid)
        if target == "thm1.0":
            counts = Counter(values[:3] for values in nested_expand(check.axes, grid))
            assert [counts[block] for block, _ in blocks] == [n for _, n in blocks], target
        else:
            assert [len(row_tuples(check.expand(grid, block))) for block, _ in blocks] == [n for _, n in blocks], target


# thm1.0's (expanded, pruned, checked) tuples: a row past n = 1 whose bound is <= 0 is counted, never built
THM1_0_PRUNED = [
    (ACCEPTANCE_GRIDS[0][1], (49_694, 331_456, 381_150)),
    (SweepGrid(), (4_362, 5_314, 9_676)),
    (THM1_0_GRIDS[0], (1_290, 1_110, 2_400)),
    (THM1_0_GRIDS[1], (648, 840, 1_488)),
]


@pytest.mark.parametrize("grid, counts", THM1_0_PRUNED)
def test_thm1_0_expands_no_vacuous_row_past_n_1(grid, counts, monkeypatch):
    check = CHECKS["thm1.0"]
    pruned = Counter(values[:3] for values in nested_expand(check.axes, grid)
                     if values[3] >= 2 and not _positive(values))
    expanded = []
    for block, size in check.blocks(grid):
        kept = row_tuples(check.expand(grid, block))
        assert not any(values[3] >= 2 and not _positive(values) for values in kept), block
        assert len(kept) + pruned[block] == size, block
        expanded += kept
    assert (len(expanded), sum(pruned.values()), len(expanded) + sum(pruned.values())) == counts
    calls = []

    def evaluate(*row):
        calls.append(row)
        return check.evaluate(*row)

    monkeypatch.setitem(CHECKS, "thm1.0", replace(check, evaluate=evaluate))
    assert run_sweep("thm1.0", grid).checked == counts[2]
    assert len(row_tuples(calls)) == counts[0] and Counter(row_tuples(calls)) == Counter(expanded)


def _one_value_rows(target: str, tuples: list) -> list:
    """[(params, outcome)] of each failing tuple, every tuple evaluated as a one-value row, in order."""
    check = verifier._check_of(target)
    return [(dict(zip(check.names, (*outer, v))), outcome)
            for *outer, value in tuples for v, outcome in check.evaluate(*outer, (value,))]


def _rows_against_one_value_rows(targets, grid) -> int:
    """Assert that each target's rows, block by block in expansion order from empty memos, fail as
    its tuples do evaluated one by one as one-value rows the same way; return the failures seen."""
    seen = 0
    for target in targets:
        blocks = _expanded_tuples(target, grid)
        for block, _ in verifier._check_of(target).blocks(grid):
            empty_memos()
            rows = _block(target, grid, block)
            empty_memos()
            assert rows == _one_value_rows(target, blocks.get(block, [])), (target, block)
            seen += len(rows)
    return seen


# two mutants whose failure rows reach most checks, wrong values and bug traps alike: a Pascal step of
# the records (IntegrityError in thm1.1, thm1.2 and rem2.1 on CATALOG_GRID) and a direct sum that drops
# a term (NotPIntegralError in cor1.3, IntegrityError in rem2.1)
ROW_DIFFERENTIAL_MUTANTS = ("fill step S(n-1, r-1) - S(n-1, r)", "sum from k = r % m + m")


@pytest.mark.parametrize("targets, grid", EXPANSION_GRIDS)
def test_rows_report_as_one_value_rows(targets, grid):
    # a row shares work among its values (a signed row, a base coefficient, a record read, a bound);
    # the one-value rows share none of it and read in the nested loops' order
    _rows_against_one_value_rows(targets, grid)


@pytest.mark.parametrize("mutant", ROW_DIFFERENTIAL_MUTANTS)
@pytest.mark.parametrize("targets, grid", EXPANSION_GRIDS)
def test_mutated_rows_report_as_one_value_rows(mutant, targets, grid, monkeypatch):
    module, name, old, new, _ = COEFFICIENT_MUTANTS[mutant]
    _rebind_everywhere(monkeypatch, module, name, _mutant(module, name, old, new))
    # both mutants fail rows on each grid swept for every target; one swept for a single check may see none
    assert _rows_against_one_value_rows(targets, grid) or targets != ALL_TARGETS


def test_rows_have_the_oracle_sides_tuple_by_tuple(monkeypatch):
    # thm1.0 under a stand-in verdict that fails every tuple with its (bound, sum), and lem3.1 with each
    # row's two sides recorded per tuple as factorization_sides gives them, both against sums of
    # fleck_oracle, tuple by tuple in expansion order
    monkeypatch.setattr(verifier, "_ord_at_least", lambda value, bound, p: (bound, value))
    grid = SweepGrid(primes=(2, 3), a_range=(1, 2), n_range=(0, 9), l_range=(0, 2), r_values=(-5, -1, 0, 2, 4, 11),
                     d_range=(1, 3), q_range=(1, 3))
    sides = [(f.expected, f.actual) for f in run_sweep("thm1.0", grid).failures]
    assert sides == _thm1_0_oracle_reads(grid) and len(sides) > 100

    def recording(*row):
        lhs, rhs = sides_of(*row)
        *outer, ls = row
        sides.update(((*outer, l), pair) for l, pair in zip(ls, zip(lhs, rhs)))
        return lhs, rhs

    sides, sides_of = {}, verifier.factorization_sides
    monkeypatch.setattr(verifier, "factorization_sides", recording)
    assert run_sweep("lem3.1", grid).verdict == "pass"

    def lem3_1_oracle(d, q, n, r, t, l):
        lhs = sum((-1) ** j * fleck_oracle(n, t, d, j) * fleck_oracle(j, r, q, l) for j in range((n - t) // d + 1))
        return lhs, fleck_oracle(n, d * r + t, d * q, l)

    tuples = list(nested_expand(CHECKS["lem3.1"].axes, grid))
    # t takes 3, 4 and 5 values below d = 1, 2 and 3, for 3 moduli q, 10 values of n, 6 of r and 3 of l
    assert len(sides) == len(tuples) == (3 + 4 + 5) * 3 * 10 * 6 * 3
    assert [sides[values] for values in tuples] == [lem3_1_oracle(*values) for values in tuples]


def test_a_trap_fails_its_own_tuple_or_its_row(monkeypatch):
    # a read of one tuple's own coefficient <pn+s, pr+t> that raises fails that tuple alone; a read of
    # its row's <n, r>, which every digit t of the row shares, fails each t of the row
    planted = {(3, 3, 3 * 4 + 1, 3 * 2 + 2, 1), (3, 2, 5, -1, 0)}

    def trapping(p, a, n, r, l):
        if (p, a, n, r, l) in planted:
            raise IntegrityError(f"planted at {(p, a, n, r, l)}")
        return normalized(p, a, n, r, l)

    monkeypatch.setattr(verifier, "normalized", trapping)
    report = run_sweep("thm1.1", SMALL)
    text = "no IntegrityError"
    assert [(f.params, f.expected, f.actual) for f in report.failures] == [
        (dict(p=3, a=2, l=0, n=5, r=-1, s=s, t=t), text, "planted at (3, 2, 5, -1, 0)")
        for s in range(3) for t in range(3)] + [
        (dict(p=3, a=2, l=1, n=4, r=2, s=1, t=2), text, "planted at (3, 3, 13, 8, 1)")]


def test_a_truncation_trap_fails_every_l_of_its_rows(monkeypatch):
    # the signed row of (d, n, t) = (2, 6, 1) ends at j = 2; its pass to j = 3 is made to end in 1, so
    # every row (2, 3, 6, r, 1) fails at each l, each text naming its own r and l, while the rows at
    # n = 5 and 7 and the other t pass
    kernel = coefficients._fleck_row

    def truncating(n, r, m, l_max):
        row = kernel(n, r, m, l_max)
        return row[:-1] + [1] if (n, r, m, l_max) == (6, 1, 2, 3) else row

    monkeypatch.setattr(coefficients, "_fleck_row", truncating)
    grid = SweepGrid(d_range=(2, 2), q_range=(3, 3), n_range=(5, 7), l_range=(0, 3))
    report = run_sweep("lem3.1", grid)
    assert report.checked == 3 * 5 * 4 * 4
    assert [(f.params, f.expected, f.actual) for f in report.failures] == [
        (dict(d=2, q=3, n=6, r=r, t=1, l=l), "no IntegrityError",
         f"the j-sum does not end at j = 2 (d=2, q=3, n=6, r={r}, t=1, l={l})")
        for r in range(-2, 3) for l in range(4)]


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_one_evaluate_call_per_row(target, monkeypatch):
    # a tracer counts the rows expand yields and the evaluate calls, and reads them as one count
    check = verifier._check_of(target)
    rows, calls = [], []

    def expand(grid, block=None):
        for row in check.expand(grid, block):
            rows.append(row)
            yield row

    def evaluate(*row):
        calls.append(row)
        return check.evaluate(*row)

    if target == "rem1.2":
        monkeypatch.setattr(verifier, "_expand_rem1_2", expand)
        monkeypatch.setattr(verifier, "_margin_rem1_2", evaluate)
        run_explore(SMALL)
    else:
        monkeypatch.setitem(CHECKS, target, replace(check, expand=expand, evaluate=evaluate))
        run_sweep(target, SMALL)
    assert rows and calls == rows


GRID_FIELDS = frozenset(f.name for f in fields(SweepGrid))


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_every_axis_reads_only_what_it_declares(target):
    # an axis declares what it reads by its place: a block axis reads no axis and an inner
    # axis only the block axes, so given those it takes the values it takes with every outer axis bound;
    # and it reads exactly the grid fields it names, which a grid that logs its field reads shows
    reads = set()

    class ReadLog(SweepGrid):
        def __getattribute__(self, name):
            if name in GRID_FIELDS:
                reads.add(name)
            return super().__getattribute__(name)

    _, axes, fixed = _targets()[target]
    grid = ReadLog(**asdict(fixed or SMALL))
    names, depth = verifier._names(axes), verifier._block_depth(axes)
    seen = set()
    for values in nested_expand(axes, grid):
        for k, (_, axis_fields, axis_values) in enumerate(axes):
            prefix = values[:k]
            if (k, prefix) not in seen:
                seen.add((k, prefix))
                declared = dict(zip(names[:depth], prefix)) if k >= depth else {}
                reads.clear()
                got = list(axis_values(grid, declared))
                assert reads == set(axis_fields), (target, names[k], prefix)
                assert got == list(axis_values(grid, dict(zip(names, prefix))))
    assert verifier._check_of(target).fields == frozenset().union(*(f for _, f, _ in axes))


def test_empty_grid_raises():
    # thm1.1 keeps only a >= 2, so a_range (1, 1) gives it nothing to check
    with pytest.raises(ValueError, match=r"^the grid gives thm1\.1 no tuples to check$"):
        run_sweep("thm1.1", SweepGrid(a_range=(1, 1)))


def test_a_grid_whose_thm1_2_tuples_all_lie_outside_the_statement_is_refused(monkeypatch):
    # p = 3, n = 1, l = 0, s = 1, t = 0: a row with n - l - 1 = 0 (mod 2) and s > t, so
    # no branch covers it, and thm1.2's blocks count the tuples its filter keeps
    grid = SweepGrid(primes=(3,), n_range=(1, 1), l_range=(0, 0), s_values=(1,), t_values=(0,))
    assert [size for _, size in CHECKS["thm1.2"].blocks(grid)] == [0]
    _in_process(monkeypatch)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"^the grid gives thm1\.2 no tuples to check$"):
            run_sweep("thm1.2", grid, workers)


def test_cor1_3_refuses_non_integral_sides(monkeypatch):
    # congruent_mod_p_power traps the non-integral side, and the sweep reports the trap
    monkeypatch.setattr(verifier, "t_coeff", lambda p, a, n, r, l: Fraction(1, p))
    report = run_sweep("cor1.3", SweepGrid(primes=(3,), n_range=(0, 4), l_range=(0, 0)))
    assert report.verdict == "fail" and len(report.failures) == report.checked > 0
    assert {(f.expected, f.actual) for f in report.failures} == {("no NotPIntegralError", "1/3 is not 3-integral")}


def test_other_exceptions_propagate(monkeypatch):
    # only the package's bug traps become failure rows; a programming error stays loud
    def broken(*values):
        raise ZeroDivisionError("not a bug trap")

    monkeypatch.setitem(CHECKS, "thm1.5", replace(CHECKS["thm1.5"], evaluate=broken))
    with pytest.raises(ZeroDivisionError, match="not a bug trap"):
        run_sweep("thm1.5", SMALL)


# (value, bound, p, outcome): p^0 = 1 divides every integer, and a failure prints the bound and ord_p
ORD_AT_LEAST_CASES = [
    *((value, 0, p, None) for value in (0, 1, -1, -12, 3 ** 41 * 5 + 2) for p in (2, 3, 5)),
    (0, 7, 3, None), (8, 3, 2, None), (-27, 3, 3, None), (250, 3, 5, None), (3 ** 40, 40, 3, None),
    (12, 3, 2, ("ord_2 >= 3", "ord_2 = 2")), (7, 1, 3, ("ord_3 >= 1", "ord_3 = 0")),
    (-50, 3, 5, ("ord_5 >= 3", "ord_5 = 2")), (3 ** 40, 41, 3, ("ord_3 >= 41", "ord_3 = 40")),
]


@pytest.mark.parametrize("value, bound, p, outcome", ORD_AT_LEAST_CASES)
def test_ord_at_least(value, bound, p, outcome):
    assert verifier._ord_at_least(value, bound, p) == outcome


def test_an_inverted_zero_bound_return_breaks_ord_at_least():
    mutated = _mutated_verifier("if not bound or ", "if bound or ")
    assert [mutated._ord_at_least(*case[:3]) for case in ORD_AT_LEAST_CASES] != [c[3] for c in ORD_AT_LEAST_CASES]


def _outcome(check_id: str, params: dict):
    """The outcome of the one tuple params evaluated as a one-value row, None if it holds."""
    assert tuple(params) == CHECKS[check_id].names
    *outer, value = params.values()
    failures = CHECKS[check_id].evaluate(*outer, (value,))
    assert [v for v, _ in failures] in ([], [value])
    return failures[0][1] if failures else None


def test_valuation_failure_texts(monkeypatch):
    # a unit sum misses thm1.0's floor exponent floor((5 - 1) / 2) = 2, read from the row at r = 0
    monkeypatch.setattr(verifier, "_fleck_residues", lambda n, m, l: [1] * min(n + 1, m))
    assert _outcome("thm1.0", dict(p=3, a=1, l=0, n=5, r=0)) == ("ord_3 >= 2", "ord_3 = 0")
    # and summed directly at the negative representative r = -1
    monkeypatch.setattr(verifier, "_direct_fleck_sum", lambda n, r, m, l: 1)
    assert _outcome("thm1.0", dict(p=3, a=1, l=0, n=5, r=-1)) == ("ord_3 >= 2", "ord_3 = 0")
    # a difference of 3 misses thm1.4's bound ceil(4/5 (2 ord_5(5) + 2)) = 4
    monkeypatch.setattr(verifier, "normalized", lambda p, a, n, r, l: 3 * a)
    assert _outcome("thm1.4", dict(p=5, a=1, l=0, n=5, r=0)) == ("ord_5 >= 4", "ord_5 = 0")


# (check id, params, (expected, actual)) under the stand-in coefficients of
# test_congruence_failure_texts: integer congruences print both residues mod p,
# rational ones print both sides unreduced
CONGRUENCE_FAILURES = [
    # lhs 36, rhs (-1)^1 binom(2, 1) 22 = -44
    ("thm1.1", dict(p=3, a=2, l=0, n=1, r=0, s=2, t=1), ("1 (mod 3)", "0 (mod 3)")),
    # a correction row: rhs 0 plus (-1)^0 11 * 14
    ("lem3.2", dict(p=3, a=1, l=0, n=1, r=0, s=0, t=1), ("1 (mod 3)", "0 (mod 3)")),
    # thm1.2's explicit branch, n <= l + 1 and beyond
    ("thm1.2", dict(p=5, l=0, n=1, r=0, s=1, t=3), ("0 (mod 5)", "2 (mod 5)")),
    ("thm1.2", dict(p=5, l=0, n=9, r=0, s=1, t=3), ("-3/2 (mod 5)", "67 (mod 5)")),
    ("cor1.3", dict(p=3, l=0, n=5, r=1), ("-2/7 (mod 3)", "2/7 (mod 3)")),
    # lem3.3's two branches, s < t and s >= t
    ("lem3.3", dict(p=5, n=1, s=1, t=3), ("1/6 (mod 5)", "17 (mod 5)")),
    ("lem3.3", dict(p=3, n=1, s=1, t=1), ("-1 (mod 3)", "15 (mod 3)")),
    ("thm1.5", dict(p=5, a=1, l=1, m=2, r=0), ("4 (mod 5)", "0 (mod 5)")),
    # lem4.1 past n = l and at n <= l
    ("lem4.1", dict(p=5, l=1, n=9, r=0), ("4 (mod 5)", "0 (mod 5)")),
    ("lem4.1", dict(p=5, l=1, n=0, r=0), ("0 (mod 5)", "1 (mod 5)")),
    ("rem2.1", dict(p=5, a=1, l=1, n=2, r=0), ("3 (mod 5)", "1 (mod 5)")),
]


def test_congruence_failure_texts(monkeypatch):
    # stand-in coefficients that break each congruence at the tuple given
    monkeypatch.setattr(verifier, "normalized", lambda p, a, n, r, l: 10 * a + n + 1)
    monkeypatch.setattr(verifier, "t_coeff", lambda p, a, n, r, l: Fraction(a, 7))
    monkeypatch.setattr(verifier, "recurrence_residue", lambda p, a, n, r, l: 1)
    for check_id, params, outcome in CONGRUENCE_FAILURES:
        assert _outcome(check_id, params) == outcome, (check_id, params)


@pytest.mark.parametrize("target", CHECK_IDS + ("rem1.2",))
def test_evaluators_take_the_values_in_axis_order(target):
    # _block calls evaluate(*outer, values), so the parameters must be the outer axis names in order,
    # then one for the innermost axis' values; every row binds each outer axis once
    check = verifier._check_of(target)
    parameters = tuple(inspect.signature(check.evaluate).parameters)
    assert parameters[:-1] == check.names[:-1] and len(parameters) == len(check.names)
    rows = list(check.expand(SweepGrid()))
    assert {len(row) for row in rows} == {len(check.names)} and all(row[-1] for row in rows)


def test_evaluators_resolve_names_at_call_time(monkeypatch):
    # a tracer rebinds these names in the module; the sweeps must call the new bindings
    monkeypatch.setattr(verifier, "index_reduction_identity", lambda n, r, l, m: (1, 2))
    report = run_sweep("lem2.2", SMALL)
    assert report.verdict == "fail"
    assert len(report.failures) == report.checked > 0
    assert (report.failures[0].expected, report.failures[0].actual) == ("2", "1")
    margin = {"target": 0, "observed": -7, "margin": -7}
    monkeypatch.setattr(verifier, "_margin_rem1_2", lambda p, a, l, n, rs: [(r, margin) for r in rs])
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

    def test_evaluating_an_uncovered_tuple_is_refused(self):
        # s = 1, t = 0 at p = 3, n = 5 is in neither branch, so no sweep expands it
        with pytest.raises(ValueError, match="^no branch of thm1.2 covers p=3, l=0, n=5, r=0, s=1, t=0$"):
            CHECKS["thm1.2"].evaluate(3, 0, 5, 0, 1, (0,))

    def test_expansion_skips_uncovered(self):
        grid = SweepGrid(primes=(3,), n_range=(5, 5), l_range=(0, 0))
        check = CHECKS["thm1.2"]
        tuples = [dict(zip(check.names, values)) for values in row_tuples(check.expand(grid))]
        assert all(_thm1_2_branch(t["p"], t["l"], t["n"], t["s"], t["t"]) for t in tuples)
        assert not any(t["s"] == 1 and t["t"] == 0 for t in tuples)


def test_lem3_2_classification_is_total():
    # spec-discussed tuple: phi(3) = 2 does not divide 2 - 1, so not exceptional
    assert not _lem3_2_exceptional(3, 1, 0, 2, 0)
    grid = SweepGrid(primes=(3,), a_range=(1, 1), n_range=(0, 10), l_range=(0, 2))
    seen = {True: 0, False: 0}
    check = CHECKS["lem3.2"]
    for t in (dict(zip(check.names, values)) for values in row_tuples(check.expand(grid))):
        seen[_lem3_2_exceptional(t["p"], t["a"], t["l"], t["n"], t["s"])] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_sigma_divisible_by_p():
    for p in (2, 3, 5):
        for n in range(1, 11):
            for s in range(p - 1):
                for t in range(0, s + 1):
                    assert _sigma(p, n, s, t).numerator % p == 0, (p, n, s, t)


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
        with pytest.raises(ValueError, match=r"^the grid gives rem1\.2 no tuples to check$"):
            run_explore(grid)

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
