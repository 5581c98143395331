"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench

They show that a wrong report is counted as failed, that seeds change the
swept classes but not the tuple count, and that tracing leaves every
report unchanged.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from worker import report_digest  # noqa: E402

RECORDED = json.loads(run.EXPECTED_PATH.read_text())
DEFAULT = RECORDED["default_seed"]


def observed(name: str) -> list[dict]:
    """A repetition whose every report matches the recorded one."""
    return [{k: e[k] for k in ("sweep", "verdict", "checked", "exit", "digest")}
            for e in copy.deepcopy(RECORDED["workloads"][name])]


def test_right_reports_pass():
    for name in workloads.WHY:
        assert run.judge(RECORDED["workloads"][name], observed(name), DEFAULT, DEFAULT) == []


def test_passing_self_test_is_counted_failed():
    got = observed("normalized-catalog")
    bad = next(s for s in got if s["sweep"] == "verify self-test")
    bad["verdict"], bad["exit"] = "pass", 0
    tally = run.Tally(RECORDED["workloads"]["normalized-catalog"], DEFAULT, DEFAULT)
    tally.add(got)
    assert (tally.attempted, tally.failed) == (13, 1)
    assert "verify self-test" in tally.problems[0]


def test_changed_digest_is_counted_failed():
    got = observed("normalized-catalog")
    got[0]["digest"] = "0" * 64
    # Unseeded sweeps are checked by digest at every seed.
    assert len(run.judge(RECORDED["workloads"]["normalized-catalog"], got, DEFAULT + 7, DEFAULT)) == 1


def test_seeded_digest_checked_only_at_default_seed():
    expected = RECORDED["workloads"]["psi-operator"]
    got = observed("psi-operator")
    got[0]["digest"] = "0" * 64
    assert len(run.judge(expected, got, DEFAULT, DEFAULT)) == 1
    assert run.judge(expected, got, DEFAULT + 7, DEFAULT) == []
    got[0]["checked"] -= 1
    assert len(run.judge(expected, got, DEFAULT + 7, DEFAULT)) == 1


def test_fewer_tuples_or_missing_sweep_is_counted_failed():
    expected = RECORDED["workloads"]["composite-moduli"]
    got = observed("composite-moduli")
    got[1]["checked"] -= 1
    assert len(run.judge(expected, got, DEFAULT, DEFAULT)) == 1
    assert len(run.judge(expected, got[:1], DEFAULT, DEFAULT)) == len(expected)


def test_recorded_digest_matches_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from cycpsi.verifier import run_sweep

    doc = run_sweep("self-test").to_json_dict()
    want = next(e for e in RECORDED["workloads"]["normalized-catalog"] if e["sweep"] == "verify self-test")
    assert report_digest(doc) == want["digest"]
    doc["elapsed_ms"] += 1000  # volatile: not part of the digest
    assert report_digest(doc) == want["digest"]
    doc["failures"] = doc["failures"][1:]
    assert report_digest(doc) != want["digest"]


@pytest.mark.parametrize("name", ["psi-operator", "composite-moduli"])
def test_seed_changes_classes_not_counts(name):
    grids = {seed: [s["grid"]["r_values"] for s in workloads.sweeps(name, seed)] for seed in range(1, 9)}
    assert len({tuple(g) for g in grids.values()}) > 1
    for classes in grids.values():
        assert [len(r) for r in classes] == [len(r) for r in grids[1]]
        assert all(len(set(r)) == len(r) and min(r) < 0 for r in classes)
    assert grids[3] == [s["grid"]["r_values"] for s in workloads.sweeps(name, 3)]


def test_reference_seconds_remove_machine_drift_not_program_speed():
    rep = {"sweeps": [{"wall_s": 2.0}, {"wall_s": 1.1}], "probe_wall_s": 0.1, "probe_s": run.PROBE_REF_S}
    slow_machine = {"sweeps": [{"wall_s": 4.0}, {"wall_s": 2.2}], "probe_wall_s": 0.2, "probe_s": 2 * run.PROBE_REF_S}
    slow_program = dict(slow_machine, probe_s=run.PROBE_REF_S)
    assert run.sweep_seconds(rep) == pytest.approx(3.0)
    assert run.reference_seconds(slow_machine) == pytest.approx(run.reference_seconds(rep))
    assert run.reference_seconds(slow_program) == pytest.approx(2 * run.reference_seconds(rep))


def test_pool_never_exceeds_cpu_count():
    assert 1 <= workloads.pool_workers() <= (os.cpu_count() or 1)
    assert all(s["workers"] <= (os.cpu_count() or 1) for s in workloads.sweeps("pooled", 1))


TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cycpsi, tracing
from cycpsi import verifier
grid = verifier.SweepGrid(primes=(2, 3), n_range=(0, 12), l_range=(0, 2), d_range=(1, 4), q_range=(1, 4))
def reports():
    out = {c: verifier.run_sweep(c, grid).to_json_dict() for c in cycpsi.CHECK_IDS}
    out["rem1.2"] = verifier.run_explore(grid).to_json_dict()
    for doc in out.values():
        doc.pop("elapsed_ms")
    return out
before = reports()
tracer = tracing.Tracer()
tracing.install(tracer, cycpsi)
after = reports()
tracer.fold_cache_stats()
print(json.dumps({"same": before == after, "stats": tracer.stats, "caches": tracer.cache_totals,
                  "entries": tracer.cache_peak_entries, "items": tracer.items, "spans": len(tracer.spans)}))
"""


def test_tracing_keeps_reports_and_counts_layers():
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(HERE)],
                         capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout)
    assert result["same"]
    stats = result["stats"]
    for name in ("exactmath.binom", "coefficients.fleck_sum_general", "coefficients.normalized_parts",
                 "psi_series.psi_apply", "verifier.run_sweep", "verifier.evaluate.rem1.2", "verifier.expand"):
        assert stats[name][0] > 0, name
    hits, misses = result["caches"]["coefficients.fleck_sum_general"]
    assert hits + misses == stats["coefficients.fleck_sum_general"][0]
    assert result["entries"] > 0 and result["spans"] > 0
    assert result["items"]["verifier.expand"] == sum(
        stats[n][0] for n in stats if n.startswith("verifier.evaluate."))


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pooled", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
