"""Sweep benchmark for cycpsi: see perfbench/NOTES.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every repetition is a fresh interpreter (perfbench/worker.py) that runs the
workload's sweeps through ``cycpsi.cli.main``. Repetitions continue until
``--seconds`` have passed (at least MIN_REPS). Every report is checked
against perfbench/expected.json; a wrong report counts as failed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics, as
medians over the repetitions; with ``--trace 1`` it carries the per-layer
metrics of traced repetitions, each paired with an untraced one for the
tracing overhead. The line before it gives the machine facts, and
perfbench/out/result-<workload>-<run|trace>.json keeps every repetition.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPS = 3
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 120
# Stop starting repetitions after this long, so a run ends well within 180 s.
RUN_BUDGET_S = 120
EXPECTED_PATH = HERE / "expected.json"
# CPU seconds of one probe loop on the reference machine; see reference_seconds.
PROBE_REF_S = 0.001


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, workers: int | None = None) -> tuple[float, dict]:
    """Start one worker interpreter; return (its start time, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool children
        proc.communicate()
        raise WorkerError(f"{mode} worker timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return start, json.loads(out.strip().splitlines()[-1])


def judge(expected: list[dict], observed: list[dict], seed: int, default_seed: int) -> list[str]:
    """One problem per wrong sweep of a repetition; empty when every report is right.

    Verdict, checked count and exit code are checked for every seed. The
    digest is recorded for the default seed, so a sweep whose grid depends
    on the seed is checked by digest only at that seed.
    """
    if [e["sweep"] for e in expected] != [o["sweep"] for o in observed]:
        ran = [o["sweep"] for o in observed]
        return [f"ran {ran}, expected {e['sweep']!r}" for e in expected]
    problems = []
    for want, got in zip(expected, observed):
        wrong = [key for key in ("verdict", "checked", "exit") if got[key] != want[key]]
        if (seed == default_seed or not want["seeded"]) and got["digest"] != want["digest"]:
            wrong.append("digest")
        if wrong:
            problems.append(f"{want['sweep']}: " + ", ".join(
                f"{key} {got[key]!r} != {want[key]!r}" for key in wrong))
    return problems


def machine_facts(root: Path, seed: int) -> dict:
    sys.path.insert(0, str(root / "src"))
    import cycpsi

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cycpsi": cycpsi.__version__,
        "commit": git_commit(root),
        "seed": seed,
        "pool_workers": workloads.pool_workers(),
    }


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def setup_seconds(start: float, result: dict) -> float:
    """Interpreter start until cycpsi.cli is imported and every grid validated, in reference seconds."""
    return (result["ready"] - start) * PROBE_REF_S / result["probe_s"]


def setup_samples(workload: str, seed: int) -> list[float]:
    run_worker(workload, seed, "setup")  # warm-up: writes bytecode caches once
    return [setup_seconds(*run_worker(workload, seed, "setup")) for _ in range(SETUP_SAMPLES)]


class Tally:
    """Sweeps attempted and failed over a run, with the reasons."""

    def __init__(self, expected: list[dict], seed: int, default_seed: int):
        self.expected = expected
        self.seed = seed
        self.default_seed = default_seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, sweeps: list[dict]) -> None:
        self.attempted += len(self.expected)
        problems = judge(self.expected, sweeps, self.seed, self.default_seed)
        self.failed += len(problems)
        self.problems += problems

    def crashed(self, err: Exception) -> None:
        self.attempted += len(self.expected)
        self.failed += len(self.expected)
        self.problems.append(str(err))


def sweep_seconds(result: dict) -> float:
    """Wall time of a repetition's sweeps, without the probe's own time."""
    return sum(s["wall_s"] for s in result["sweeps"]) - result["probe_wall_s"]


def reference_seconds(result: dict) -> float:
    """Sweep time rescaled to the reference machine speed (see NOTES.md, "Speed probe").

    The probe loop took ``probe_s`` CPU seconds per run during these sweeps
    and takes PROBE_REF_S at reference speed, so the sweeps would have taken
    sweep_seconds * PROBE_REF_S / probe_s there. This removes the machine's
    own drift (up to 2x over tens of seconds on a shared host) and keeps
    every change of the program's speed.
    """
    return sweep_seconds(result) * PROBE_REF_S / result["probe_s"]


class Pace:
    """Starts a repetition only if one as long as the last still ends within the run."""

    def __init__(self, seconds: float, started: float):
        self.seconds = seconds
        self.started = started
        self.t0 = self.last = time.monotonic()

    def another(self, required: bool) -> bool:
        now = time.monotonic()
        if now - self.started > RUN_BUDGET_S:
            return False
        last_rep = now - self.last
        self.last = now
        return required or (now - self.t0) + last_rep <= self.seconds


def measure(workload: str, seed: int, seconds: float, tally: Tally, started: float) -> tuple[dict, list]:
    setup = setup_samples(workload, seed)
    reps = []
    pace = Pace(seconds, started)
    while pace.another(len(reps) < MIN_REPS):
        try:
            start, result = run_worker(workload, seed, "run")
        except WorkerError as err:
            tally.crashed(err)
            break
        tally.add(result["sweeps"])
        setup.append(setup_seconds(start, result))
        reps.append({
            "checked": sum(s["checked"] for s in result["sweeps"]),
            "wall_s": sweep_seconds(result),
            "reference_s": reference_seconds(result),
            "probe_s": result["probe_s"],
            "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        })
    if not reps:
        return {}, reps
    values = {
        "tuples_per_s": statistics.median(r["checked"] / r["reference_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setup),
        "checked_total": statistics.median_low(r["checked"] for r in reps),
    }
    return values, reps


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally, started: float) -> tuple[dict, list]:
    pooled = workload == "pooled" and workloads.pool_workers() > 1
    reps = []
    pace = Pace(seconds, started)
    while pace.another(not reps):
        try:
            _, plain = run_worker(workload, seed, "run")
            tally.add(plain["sweeps"])
            _, traced = run_worker(workload, seed, "trace")
            tally.add(traced["sweeps"])
            serial = None
            if pooled:
                _, serial = run_worker(workload, seed, "run", workers=1)
                tally.add(serial["sweeps"])
        except WorkerError as err:
            tally.crashed(err)
            break
        wall = sweep_seconds(plain)
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = sum(s["wall_s"] for s in traced["sweeps"]) / wall
        layers["cli.import_ms"] = traced["import_ms"]
        # The pool is only reached by pooled sweeps; elsewhere both ratios read 0.
        layers["verifier.pool.speedup"] = 0.0
        layers["verifier.pool.cpu_ratio"] = 0.0
        if serial is not None:
            layers["verifier.pool.speedup"] = reference_seconds(serial) / reference_seconds(plain)
            layers["verifier.pool.cpu_ratio"] = plain["cpu_s"] / serial["cpu_s"]
        reps.append(layers)
    if not reps:
        return {}, reps
    return {name: statistics.median(r[name] for r in reps) for name in reps[0]}, reps


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cycpsi" / "__init__.py").is_file():
        print(f"error: run from the root of a cycpsi checkout (no src/cycpsi under {root})", file=sys.stderr)
        return 2
    if args.workload not in workloads.WHY:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WHY)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    recorded = json.loads(EXPECTED_PATH.read_text())
    tally = Tally(recorded["workloads"][args.workload], args.seed, recorded["default_seed"])

    facts = machine_facts(root, args.seed)
    if args.trace:
        facts["note"] = "pooled sweeps: parent-side spans only; pool workers are not traced"
        values, reps = measure_layers(args.workload, args.seed, args.seconds, tally, started)
    else:
        values, reps = measure(args.workload, args.seed, args.seconds, tally, started)
    if not reps:
        print("error: no repetition completed: " + "; ".join(tally.problems), file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    suffix = "trace" if args.trace else "run"
    (out_dir / f"result-{args.workload}-{suffix}.json").write_text(json.dumps(
        {"machine": facts, "workload": args.workload, "seconds": args.seconds, "reps": reps,
         "metrics": values, "problems": tally.problems}, indent=1))
    for problem in tally.problems:
        print(f"wrong report: {problem}", file=sys.stderr)
    print("machine " + json.dumps(facts))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
