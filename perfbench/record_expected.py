"""Write perfbench/expected.json: what every sweep of every workload must report.

Run from the root of a checkout whose reports are known to be right:

    python3 perfbench/record_expected.py

The verdict is fixed by rule, not copied from the run: every sweep must
pass except self-test, which must fail. The checked count and the report
digest are taken from a run at the default seed; the count is confirmed to
be the same at two further seeds, since seeds change which classes are
swept but never how many.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

CONFIRM_SEEDS = (2, 3)


def expected_verdict(sweep: dict) -> str:
    return "fail" if sweep["check"] == "self-test" else "pass"


def main() -> int:
    seed = workloads.DEFAULT_SEED
    recorded = {}
    for name in workloads.WHY:
        plan = workloads.sweeps(name, seed)
        _, result = run.run_worker(name, seed, "run")
        entries = []
        for sweep, got in zip(plan, result["sweeps"], strict=True):
            verdict = expected_verdict(sweep)
            if got["verdict"] != verdict:
                raise SystemExit(f"{name}: {got['sweep']} reported {got['verdict']}, must be {verdict}")
            entries.append({
                "sweep": got["sweep"],
                "seeded": sweep["seeded"],
                "verdict": verdict,
                "exit": 0 if verdict == "pass" else 1,
                "checked": got["checked"],
                "digest": got["digest"],
            })
        for other in CONFIRM_SEEDS:
            _, again = run.run_worker(name, other, "run")
            problems = run.judge(entries, again["sweeps"], other, seed)
            if problems:
                raise SystemExit(f"{name} at seed {other}: {problems}")
        recorded[name] = entries
        print(f"{name}: {sum(e['checked'] for e in entries)} tuples in {len(entries)} sweeps")
    run.EXPECTED_PATH.write_text(json.dumps({"default_seed": seed, "workloads": recorded}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
