"""Golden reports: every check id and the rem1.2 exploration must produce the
same report, byte for byte apart from elapsed_ms, as when the digests below
were recorded.

The digest is taken over ``json.dumps(doc, indent=2)`` without sorting keys,
so a change in the order of a failure's params is caught too. Re-record
(only for a deliberate report change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import hashlib
import json
import os

import pytest

from cycpsi import CHECK_IDS, SweepGrid, run_explore, run_sweep

GRIDS = {
    "small": SweepGrid(
        primes=(2, 3),
        a_range=(1, 2),
        n_range=(0, 8),
        l_range=(0, 2),
        m_range=(1, 4),
        d_range=(1, 3),
        q_range=(1, 3),
        abs_r_max=3,
        coeff_degree=3,
    ),
    "custom": SweepGrid(
        primes=(2, 3, 5),
        a_range=(1, 2),
        n_range=(0, 10),
        l_range=(0, 2),
        r_values=(-4, 0, 3, 11),
        s_values=(0, 1, 3),
        t_values=(0, 2, 4),
        m_range=(2, 4),
        d_range=(1, 3),
        q_range=(2, 3),
        abs_r_max=2,
        coeff_degree=2,
    ),
}

TARGETS = CHECK_IDS + ("rem1.2",)

DIGESTS = {
    ("custom", "thm1.0"): "8e97abc545efa745c5849f6ac1787c14e96627f5b68a4bf30d9b4b84c135b3dc",
    ("custom", "thm1.1"): "f7113b49bcb56caf15d0e05ea3b72ff176d070b70277a7b9ffd478d7dd186cb7",
    ("custom", "thm1.2"): "a95d4bc3f78efe528af1721623a5b0d32c9ddc2f4bb6b3c3ac2620c4c05f7069",
    ("custom", "cor1.3"): "faba8e0fb3eea596d784a6550a0382647f59f454214ae7d948eac0e8ce2cd745",
    ("custom", "thm1.4"): "ebd9b87ac13e6fb9ddd107407685fd3d0d76abc0023b112317903ca2e8ea6165",
    ("custom", "thm1.5"): "022f4e8a2e668ccd76d4f76772dbfa2a5c16a2cbe68b6bfd2a9ee7f065f0119d",
    ("custom", "lem2.2"): "fcd7ecb179abc30674ad8f3ba1a09d224be05ee760448ec60c045ddf8e53d668",
    ("custom", "lem3.1"): "48c18599f37295997c0686c6a175659d62037f6fae512925f8b97d9e8fb76905",
    ("custom", "lem3.2"): "f142bc9a50f9e7ab4ae25be681e95a9b3ef8fa0389d92ba7f2c17aad83a0f6a7",
    ("custom", "lem3.3"): "0133de870352a3f22615efc5c87b26ccb21a01f4312a9c848ef9565142659083",
    ("custom", "lem4.1"): "35a73d24d045e8aa32a962fe6f4b69c5d3180d2c925e619509adc0a94408f773",
    ("custom", "rem2.1"): "ccfe3d3e88e7f3fe42381618ca89581d0b958b34820331f093d3b604c8f63180",
    ("custom", "conj-perm"): "0aaa7de32075b077a72cc632e152bdd704ad6c5000e99c9e4c3c7a3567b2a23e",
    ("custom", "psi-identity"): "da6cd9542a9dd21216b1d4150b1c948459f1ec26938bc3b8a4c692397c4dc6ad",
    ("custom", "self-test"): "2f17350f596608e09ddb00e5626d43ba20180f5b838dfc385973101e373019db",
    ("custom", "rem1.2"): "8449b6aa662fbf25c8acd05ee62a41d72b5831a6f8e0ef2ea6b806d5bf6d11e8",
    ("small", "thm1.0"): "59fc9437c348e98b70fc07bf2399c65a3132c82984793ee45c5d98aa7a87bb64",
    ("small", "thm1.1"): "2f0268a269963151dd375a8d5d14e2a068d5fb153d477f55b63c1132e587163e",
    ("small", "thm1.2"): "9babeb1dc406d5a0c5c80694e4e0be601f976e7b967e43d8c979e8b8556fe646",
    ("small", "cor1.3"): "c57c5086e78c4fcba9fe3684b70a808ffa989ea539c89e350264178ccf9dff15",
    ("small", "thm1.4"): "ebe7f4acf040427912b5db0caaaf7092a3523590dda35d6c26297b3b58941786",
    ("small", "thm1.5"): "2969d157bfa0e94102b5e8c3edeb8fe62071c03b5dedc9a35566f0fc6f319745",
    ("small", "lem2.2"): "406c7a2e482cb111a8f8d2b64ce5d42fe01d11e069d32b1419c6149ee2d60582",
    ("small", "lem3.1"): "c5f94873cbdba8700f3c6a587ee27fc6bfda29c8c6753e523c31c00f9b2bfb8f",
    ("small", "lem3.2"): "d97f0b23fff563e6904c013d57c001f1acdfc9dfd536d30c5084f13249618f4d",
    ("small", "lem3.3"): "2271e95c14af26255ea5934392abe583bade024ebfdeccd6359954fcf041954e",
    ("small", "lem4.1"): "bc2df70bc65e8db2bfc2c60df64651730e63777bf11cfcc3865b499a6f1abb34",
    ("small", "rem2.1"): "b6375bef5dd0fd11a9fae419e1e866425cb8091ec3bac72a2de74d9d8543b8af",
    ("small", "conj-perm"): "0a6a1e6a4498be028a43864aaf497d6dd11f44a1cf724bc39637dbed8a1240cb",
    ("small", "psi-identity"): "c5c9c8e78f3690f1da0bfe596f9e506bd37dffe62de0b4a756c05c059b1db592",
    ("small", "self-test"): "2f17350f596608e09ddb00e5626d43ba20180f5b838dfc385973101e373019db",
    ("small", "rem1.2"): "a54798e2d282e66dcd94a9dacb20bd75812bbadd06433f4b3430d8fc83e723a6",
}


def report_digest(target: str, grid: SweepGrid, workers: int) -> str:
    if target == "rem1.2":
        report = run_explore(grid, workers=workers)
    else:
        report = run_sweep(target, grid, workers=workers)
    doc = report.to_json_dict()
    del doc["elapsed_ms"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("target", TARGETS)
def test_serial_report_unchanged(grid_name, target):
    assert report_digest(target, GRIDS[grid_name], 1) == DIGESTS[(grid_name, target)]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("target", TARGETS)
def test_pooled_report_unchanged(grid_name, target):
    assert report_digest(target, GRIDS[grid_name], 2) == DIGESTS[(grid_name, target)]


@pytest.mark.parametrize("grid", [SweepGrid(), GRIDS["small"]], ids=["default", "small"])
@pytest.mark.parametrize("target", TARGETS)
def test_two_and_three_workers_give_the_serial_report(grid, target):
    # pools of whole blocks; self-test, one block, runs in process, and a pool has no more processes than blocks
    serial = report_digest(target, grid, 1)
    assert [report_digest(target, grid, workers) for workers in (2, 3)] == [serial, serial]


def test_reverse_order_in_one_process():
    # later targets read coefficients that earlier ones memoized on the same grid
    for grid_name in sorted(GRIDS):
        for target in reversed(TARGETS):
            assert report_digest(target, GRIDS[grid_name], 1) == DIGESTS[(grid_name, target)], target


if __name__ == "__main__":
    for name in sorted(GRIDS):
        for target in TARGETS:
            digest = report_digest(target, GRIDS[name], 1)
            print(f'    ("{name}", "{target}"): "{digest}",')
