"""The work ledger: the exact work of each (target, grid) row from empty memos,
as count_work() counts it. A change that moves a count re-pins it here."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycpsi import CHECK_IDS, SweepGrid, run_explore, run_sweep, verifier
from cycpsi.coefficients import floor_exponent
from cycpsi.verifier import CHECKS, _block, psi_sides
from test_verifier import ACCEPTANCE_GRIDS, _thm1_0_oracle_reads, _thm1_0_reads
from work import work_of


def _sweeps(grid: SweepGrid, *targets: str):
    return lambda: [run_explore(grid) if target == "rem1.2" else run_sweep(target, grid) for target in targets]


# the normalized-catalog and psi-operator (seed 1) benchmark workloads
CATALOG = [*(c for c in CHECK_IDS if c not in ("lem2.2", "lem3.1", "psi-identity")), "psi-identity", "rem1.2"]
PSI_OPERATOR = SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(0, 80), coeff_degree=4,
                         r_values=(-30, -24, -21, -15, -13, 5, 6, 14, 19, 28))
LONE_THM1_0 = SweepGrid(primes=(101,), a_range=(2, 2), n_range=(5_000, 5_000), l_range=(3, 3))
LONE_THM1_0_P31 = SweepGrid(primes=(31,), a_range=(2, 2), n_range=(1_000, 1_000), l_range=(0, 0))

# row -> (what it runs, the work it does from empty memos); a kernel left out does none
WORK = {
    # the Pascal fill writes ~14 values for each one summed directly
    "catalog-default": (_sweeps(SweepGrid(), *CATALOG), dict(
        normalized_parts=14_153, direct_sums=14_153, steps=5_679, fill_writes=199_234, psi_power=48, images=288,
        constants=59, memo_sums=8_084)),
    # 60 blocks (p, a, l), each starting one record at n = 0 and stepping it to 1. The 45 with a positive
    # bound step it on to 120 and read every class of those rows from it; the 15 others read nothing
    "thm1.0-acceptance": (_sweeps(ACCEPTANCE_GRIDS[0][1], "thm1.0"), dict(steps=45 * 120 + 15)),
    # the images below p^a from psi_power and the rest by the recurrence; the Fleck side from the records
    "psi-identity-psi-operator": (_sweeps(PSI_OPERATOR, "psi-identity"),
                                  dict(steps=480, psi_power=48, images=528, constants=60)),
    # every sum read from a line, each line value summed once
    "lem2.2-default": (_sweeps(SweepGrid(), "lem2.2"), dict(direct_sums=49_824)),
    # a direct right side per tuple plus the column values, and a _fleck_row per signed row (d, n, t)
    "lem3.1-d4-q4": (_sweeps(SweepGrid(d_range=(1, 4), q_range=(1, 4)), "lem3.1"),
                     dict(direct_sums=62_480, fleck_rows=738)),
    # stress: from n = 2 a record never moves, so every read is a direct sum, 27 times those from n = 0
    "thm1.1-n2-20": (_sweeps(SweepGrid(n_range=(2, 20)), "thm1.1"),
                     dict(normalized_parts=63_992, direct_sums=63_992)),
    "thm1.1-n0-20": (_sweeps(SweepGrid(n_range=(0, 20)), "thm1.1"),
                     dict(normalized_parts=2_360, direct_sums=2_360, steps=1_068, fill_writes=68_368)),
    # stress: one binding far past any record, whose bound is <= 0, so it reads nothing
    "thm1.0-lone-row-p101": (_sweeps(LONE_THM1_0, "thm1.0"), dict()),
    # one binding far past any record with bound 1: one residue pass, and -1 and 1 - 31^2 summed directly
    "thm1.0-lone-row-p31": (_sweeps(LONE_THM1_0_P31, "thm1.0"), dict(residue_rows=1, direct_sums=2)),
    # stress: all 343 images below 7^3 from psi_power, and the Fleck side off the record in one row
    "psi_sides-7-3-400": (lambda: psi_sides(7, 3, 400, 0, 4),
                          dict(psi_power=343, images=401, constants=1, fleck_rows=1)),
}


@pytest.mark.parametrize("row", WORK)
def test_work(row):
    run, counts = WORK[row]
    assert work_of(run) == Counter(counts)


@given(st.integers(0, 6), st.integers(0, 24), st.sampled_from([(2,), (3,), (2, 5)]), st.integers(1, 2),
       st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_thm1_0_blocks_step_only_from_n_at_most_1(n_lo, span, primes, a_max, l_max):
    # a block from n <= 1 starts its record there and, if a row has a positive bound (the bound grows
    # with n), steps it to n_hi, else to 1 at most; a block from n >= 2 steps nothing and reads its
    # positive rows off the record. Either way every positive tuple reads the oracle's sum, and no other
    grid = SweepGrid(primes=primes, a_range=(1, a_max), n_range=(n_lo, n_lo + span), l_range=(0, l_max))
    n_hi = n_lo + span
    for block, _ in CHECKS["thm1.0"].blocks(grid):
        p, a, l = block
        steps = 0 if n_lo >= 2 else n_hi if floor_exponent(p, a, n_hi, l) > 0 else min(n_hi, 1)
        assert work_of(_block, "thm1.0", grid, block)["steps"] == steps, block
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert _thm1_0_reads(verifier, grid, monkeypatch) == _thm1_0_oracle_reads(grid)
