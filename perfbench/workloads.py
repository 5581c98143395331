"""Workload definitions: the sweeps each workload runs, derived from a seed.

A sweep is a dict with the CLI command ("verify" or "explore"), the check id,
the SweepGrid keyword arguments and the worker count. The same dict gives the
argv passed to ``cycpsi.cli.main`` and the grid validated during set-up, so
the two can never disagree.
"""

import os
import random

DEFAULT_SEED = 1

# Every prime-power check of the catalog at SweepGrid() defaults.
CATALOG_IDS = (
    "thm1.0", "thm1.1", "thm1.2", "cor1.3", "thm1.4", "thm1.5",
    "lem3.2", "lem3.3", "lem4.1", "rem2.1", "conj-perm", "self-test",
)

# Fixed sample sizes keep the tuple count independent of the seed; only
# which classes r are swept changes.
PSI_R_POOL = range(-30, 31)
PSI_R_COUNT = 10
# Composite sums share cache entries between neighbouring classes, so a
# scattered sample would change the size of the working set (and so peak
# RSS) from seed to seed. A window of consecutive classes at a seeded offset
# changes which entries are cached but not how many. lem3.1 also shares
# entries between r and its digits t >= -2, and its sums grow with |r|, so
# its window starts at -10 or -9.
LEM3_1_R_POOL = range(-10, -4)
LEM3_1_R_COUNT = 5
LEM2_2_R_POOL = range(-10, 11)
LEM2_2_R_COUNT = 15

# Acceptance grid of criterion 1 (tests/test_acceptance.py): many cheap tuples.
THM1_0_ACCEPTANCE = {"primes": (2, 3, 5, 7), "a_range": (1, 3), "n_range": (0, 120), "l_range": (0, 4)}

WHY = {
    "normalized-catalog": "every prime-power check at default grids plus explore rem1.2; "
    "bound by normalized_parts and per-tuple verifier overhead",
    "composite-moduli": "lem3.1 and lem2.2 over composite moduli with seeded r; "
    "read-heavy Fleck-sum cache and modulus_factorization_identity",
    "psi-operator": "psi-identity to n=80 with seeded r; psi_apply basis change and binom dominate, "
    "coefficients barely used",
    "pooled": "thm1.0 acceptance grid and psi-identity with 2 workers; "
    "the only workload that reaches the process pool",
}


def _sample_r(rng: random.Random, pool: range, count: int) -> tuple[int, ...]:
    """count distinct classes from pool, half of them negative, sorted."""
    negatives = [r for r in pool if r < 0]
    others = [r for r in pool if r >= 0]
    picked = rng.sample(negatives, count // 2) + rng.sample(others, count - count // 2)
    return tuple(sorted(picked))


def _window_r(rng: random.Random, pool: range, count: int) -> tuple[int, ...]:
    """count consecutive classes from pool, starting at a negative class."""
    start = rng.randrange(pool.start, min(0, pool.stop - count) + 1)
    return tuple(range(start, start + count))


def pool_workers() -> int:
    """Two pool workers, never more than the machine has CPUs."""
    return min(2, os.cpu_count() or 1)


def sweeps(workload: str, seed: int, workers: int | None = None) -> list[dict]:
    """The sweeps of one workload; workers overrides the pool size of pooled sweeps."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "normalized-catalog":
        out = [{"command": "verify", "check": c, "grid": {}} for c in CATALOG_IDS]
        out.append({"command": "explore", "check": "rem1.2", "grid": {}})
    elif workload == "composite-moduli":
        out = [
            {"command": "verify", "check": "lem3.1",
             "grid": {"r_values": _window_r(rng, LEM3_1_R_POOL, LEM3_1_R_COUNT)}, "seeded": True},
            {"command": "verify", "check": "lem2.2",
             "grid": {"r_values": _window_r(rng, LEM2_2_R_POOL, LEM2_2_R_COUNT)}, "seeded": True},
        ]
    elif workload == "psi-operator":
        grid = {"primes": (2, 3, 5), "a_range": (1, 2), "n_range": (0, 80), "coeff_degree": 4,
                "r_values": _sample_r(rng, PSI_R_POOL, PSI_R_COUNT)}
        out = [{"command": "verify", "check": "psi-identity", "grid": grid, "seeded": True}]
    elif workload == "pooled":
        n = pool_workers() if workers is None else workers
        out = [
            {"command": "verify", "check": "thm1.0", "grid": dict(THM1_0_ACCEPTANCE), "workers": n},
            {"command": "verify", "check": "psi-identity", "grid": {}, "workers": n},
        ]
    else:
        raise KeyError(workload)
    for sweep in out:
        sweep.setdefault("workers", 1)
        sweep.setdefault("seeded", False)
    return out


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def argv(sweep: dict) -> list[str]:
    """Command line for cycpsi.cli.main that runs one sweep with JSON output."""
    out = [sweep["command"], sweep["check"]]
    grid = sweep["grid"]
    if "primes" in grid:
        out += ["--p", _ints(grid["primes"])]
    for key, flag in (("a_range", "a"), ("n_range", "n"), ("l_range", "l")):
        if key in grid:
            lo, hi = grid[key]
            out += [f"--{flag}-min", str(lo), f"--{flag}-max", str(hi)]
    if "r_values" in grid:
        out.append("--r=" + _ints(grid["r_values"]))
    if "coeff_degree" in grid:
        out += ["--coeff-degree", str(grid["coeff_degree"])]
    out += ["--format", "json", "--workers", str(sweep["workers"])]
    return out


def label(sweep: dict) -> str:
    return f"{sweep['command']} {sweep['check']}"
