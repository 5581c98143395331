"""Acceptance suite: every criterion at its stated grid, exact tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s); an assertion
failure marks the criterion FAIL.
"""

import random
from time import perf_counter

from cycpsi import (
    SweepGrid,
    TruncPoly,
    normalized_parts,
    ord_p,
    phi_apply,
    projection_rule_check,
    psi_apply,
    residue_system,
    run_sweep,
)
from cycpsi.cli import main
from cycpsi.verifier import CHECKS, _lem3_2_exceptional, _sigma


def _params(check_id, grid):
    """The tuples check_id expands on grid, each as a dict keyed by axis name."""
    check = CHECKS[check_id]
    return [dict(zip(check.names, (*outer, value))) for *outer, values in check.expand(grid) for value in values]


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_integrality():
    grid = SweepGrid(primes=(2, 3, 5, 7), a_range=(1, 3), n_range=(0, 120), l_range=(0, 4))
    report = run_sweep("thm1.0", grid, workers=1)
    ok = report.verdict == "pass" and report.elapsed_ms < 60_000
    _line(1, "integrality sweep", ok,
          f"checked={report.checked} failures={len(report.failures)} elapsed={report.elapsed_ms}ms")


def test_criterion_02_lucas_congruence():
    # hand-verified instance: <9,0> at depth 8 is 5, <4,0> at depth 4 is 1
    assert normalized_parts(2, 3, 9, 0, 0) == (10, 1, 5)
    assert normalized_parts(2, 2, 4, 0, 0) == (2, 1, 1)
    assert (5 - 1) % 2 == 0
    grid = SweepGrid(primes=(2, 3, 5), a_range=(2, 3), n_range=(0, 40), l_range=(0, 3))
    instance = {"p": 2, "a": 2, "l": 0, "n": 4, "r": 0, "s": 1, "t": 0}
    assert instance in _params("thm1.1", grid)
    report = run_sweep("thm1.1", grid)
    _line(2, "Lucas congruence sweep (depth >= 2)", report.verdict == "pass",
          f"checked={report.checked} failures={len(report.failures)}")


def test_criterion_03_depth_one_both_branches():
    assert normalized_parts(3, 2, 15, 1, 0) == (2988, 2, 332)
    assert 332 % 3 == 2
    grid = SweepGrid(primes=(2, 3, 5), n_range=(0, 40), l_range=(0, 3))
    instance = {"p": 3, "l": 0, "n": 5, "r": 0, "s": 0, "t": 1}
    assert instance in _params("thm1.2", grid)
    report = run_sweep("thm1.2", grid)
    _line(3, "depth-1 congruence sweep, both branches", report.verdict == "pass",
          f"checked={report.checked} failures={len(report.failures)}")


def test_criterion_04_t_coeff_congruence():
    grid = SweepGrid(primes=(2, 3, 5), n_range=(0, 60), l_range=(0, 3))
    report = run_sweep("cor1.3", grid)
    _line(4, "T-coefficient congruence sweep (p-integrality certified)",
          report.verdict == "pass",
          f"checked={report.checked} failures={len(report.failures)}")


def test_criterion_05_valuation_bound():
    grid = SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(1, 40), l_range=(0, 2))
    # rows with ord_p(n) = 2 are present for every prime in the grid
    for p in (2, 3, 5):
        assert any(ord_p(n, p) == 2 for n in range(1, 41))
    report = run_sweep("thm1.4", grid)
    _line(5, "valuation lower bound sweep", report.verdict == "pass",
          f"checked={report.checked} failures={len(report.failures)}")


def test_criterion_06_sharpness_rows():
    for r in residue_system(3, 1):
        assert normalized_parts(3, 1, 2, r, 0)[2] % 3 == 1
    grid = SweepGrid(primes=(2, 3, 5), a_range=(1, 2), l_range=(0, 3), m_range=(1, 6))
    report = run_sweep("thm1.5", grid)
    _line(6, "sharpness residues on boundary rows", report.verdict == "pass",
          f"checked={report.checked} failures={len(report.failures)}")


def test_criterion_07_exact_identities():
    grid22 = SweepGrid(n_range=(1, 30), l_range=(1, 4), m_range=(1, 8), abs_r_max=10)
    assert any(t["m"] == 6 for t in _params("lem2.2", grid22))  # composite moduli included
    report22 = run_sweep("lem2.2", grid22)
    grid31 = SweepGrid(n_range=(0, 30), l_range=(0, 3), d_range=(1, 9), q_range=(1, 9))
    report31 = run_sweep("lem3.1", grid31)
    ok = report22.verdict == "pass" and report31.verdict == "pass"
    _line(7, "exact order-lowering and modulus-factoring identities", ok,
          f"lem2.2 checked={report22.checked}, lem3.1 checked={report31.checked}")


def test_criterion_08_correction_lemmas_and_recurrence():
    reports = {
        "lem3.2": run_sweep("lem3.2", SweepGrid(primes=(2, 3, 5), a_range=(1, 2),
                                                n_range=(0, 20), l_range=(0, 2))),
        "lem3.3": run_sweep("lem3.3", SweepGrid(primes=(2, 3, 5), n_range=(1, 20))),
        "lem4.1": run_sweep("lem4.1", SweepGrid(primes=(2, 3, 5), n_range=(0, 40),
                                                l_range=(0, 3))),
        "rem2.1": run_sweep("rem2.1", SweepGrid(primes=(2, 3, 5), a_range=(1, 2),
                                                n_range=(1, 30), l_range=(1, 3))),
    }
    # sigma divisibility asserted independently of the sweep: p divides the numerator (sigma may be 0)
    for p in (2, 3, 5):
        for n in range(1, 21):
            for s in range(p - 1):
                for t in range(0, s + 1):
                    assert _sigma(p, n, s, t).numerator % p == 0
    # the lem3.2 grid exercises both classification branches
    exceptional = sum(
        1 for t in _params("lem3.2", SweepGrid(primes=(3,), a_range=(1, 1),
                                               n_range=(0, 20), l_range=(0, 2)))
        if _lem3_2_exceptional(t["p"], t["a"], t["l"], t["n"], t["s"])
    )
    assert exceptional > 0
    ok = all(r.verdict == "pass" for r in reports.values())
    detail = ", ".join(f"{k} checked={r.checked}" for k, r in reports.items())
    _line(8, "correction lemmas and order recurrence", ok, detail)


def test_criterion_09_psi_operator_suite():
    start = perf_counter()
    rng = random.Random(20260810)
    # exact round trip psi(phi(x)) = x up to degree 60 for each prime
    for p in (2, 3, 5, 7):
        for _ in range(3):
            coeffs = [rng.randint(-9, 9) for _ in range(61)]
            coeffs[60] = rng.choice([c for c in range(-9, 10) if c])
            x = TruncPoly.of(coeffs)
            assert psi_apply(phi_apply(x, p), p) == x, f"round trip failed, p={p}"
    # projection rule on a random grid
    for p in (2, 3, 5):
        for _ in range(25):
            x = TruncPoly.of([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
            y = TruncPoly.of([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
            assert projection_rule_check(x, y, p), f"projection failed, p={p}"
    # master coefficient identity
    grid = SweepGrid(primes=(2, 3, 5), a_range=(1, 2), n_range=(0, 30),
                     r_values=tuple(range(-6, 7)), coeff_degree=4)
    report = run_sweep("psi-identity", grid)
    elapsed = perf_counter() - start
    ok = report.verdict == "pass" and elapsed < 120.0
    _line(9, "psi-operator suite (round trip, projection, coefficients)", ok,
          f"identity checked={report.checked} elapsed={elapsed:.1f}s")


def test_criterion_10_residue_permutation():
    grid = SweepGrid(primes=(3, 5, 7), n_range=(2, 40))
    tuples = _params("conj-perm", grid)
    assert tuples and any(t["p"] == 7 for t in tuples)
    report = run_sweep("conj-perm", grid)
    _line(10, "residue permutation over t, r-independent", report.verdict == "pass",
          f"checked={report.checked} failures={len(report.failures)}")


def test_criterion_11_harness_self_test(capsys):
    code = main(["verify", "self-test"])
    out = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 1 and '"verdict": "fail"' in out
        _line(11, "sign-flipped self-test yields fail verdict and exit 1", ok,
              f"exit={code}")
