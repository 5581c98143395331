"""One fresh interpreter running one repetition of a workload.

Run from the root of a checkout holding ``src/cycpsi``:

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace [--workers N]

``setup`` imports ``cycpsi.cli``, validates every grid of the workload and
prints the monotonic time at which it was ready, then times the speed
probe a few times. ``run`` also runs every
sweep through ``cycpsi.cli.main`` and prints, per sweep, the exit code, the
report's checked count, verdict and digest, and its wall time, plus the
CPU time and peak RSS of this process and its pool children, and the
speed probe's figures. ``trace`` runs the sweeps with every layer wrapped,
without the probe, and adds the per-layer figures. The result is one JSON
line on stdout.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Report fields that must repeat byte for byte; anything else (elapsed_ms,
# or a volatile block added later) is left out of the digest.
STABLE_FIELDS = ("theorem", "checked", "failures", "verdict")
REM1_2_FIELDS = ("conjectured_exponent", "min_margin", "infinite_margins", "worst")


def report_digest(doc: dict) -> str:
    import hashlib  # here, so that set-up time covers only what the sweeps need

    keys = STABLE_FIELDS + (REM1_2_FIELDS if doc.get("theorem") == "rem1.2" else ())
    stable = {k: doc[k] for k in keys if k in doc}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


PROBE_INTERVAL_S = 0.1
SETUP_PROBES = 5


def probe_loop() -> int:
    """Fixed pure-Python integer work (about 1 ms): the yardstick of machine speed."""
    total = 0
    for n in range(80):
        for k in range(n + 1):
            total += comb(n, k) * (k - 3) // 7
    return total


class SpeedProbe:
    """Times probe_loop every PROBE_INTERVAL_S, on a timer signal, while the sweeps run.

    The signal handler runs between the sweeps' own bytecodes, so the probe
    sees the machine at the same moments as the sweeps. On a shared machine
    whose speed drifts, the probe's CPU time per loop tracks that drift.
    ``wall_s`` is the time the timed probes took out of the sweeps.
    """

    def __init__(self):
        self.cpu_s: list[float] = []
        self.wall_s = 0.0

    def sample(self) -> None:
        cpu = time.thread_time()
        probe_loop()
        self.cpu_s.append(time.thread_time() - cpu)

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.wall_s += time.perf_counter() - start

    def __enter__(self):
        self.sample()  # at least two samples, however short the sweeps
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def import_cycpsi(root: Path):
    """Import cycpsi.cli from root/src and refuse any other copy."""
    src = root / "src"
    if not (src / "cycpsi" / "__init__.py").is_file():
        raise SystemExit(f"error: no cycpsi sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import cycpsi.cli

    import_ms = (time.perf_counter() - start) * 1000
    if Path(cycpsi.__file__).resolve().parent != (src / "cycpsi").resolve():
        raise SystemExit(f"error: imported cycpsi from {cycpsi.__file__}, not {src}")
    return cycpsi, import_ms


def run_sweeps(cycpsi, plan: list[dict]) -> list[dict]:
    out = []
    for sweep in plan:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cycpsi.cli.main(workloads.argv(sweep))
        wall = time.perf_counter() - start
        doc = json.loads(buf.getvalue())
        out.append({
            "sweep": workloads.label(sweep),
            "exit": code,
            "checked": doc["checked"],
            "verdict": doc["verdict"],
            "digest": report_digest(doc),
            "wall_s": wall,
        })
    return out


COUNTED = (
    "exactmath.binom", "exactmath.ord_p", "coefficients.fleck_sum_general",
    "coefficients.normalized_parts", "coefficients.modulus_factorization_identity",
    "coefficients.index_reduction_identity", "psi_series.monomial_twisted", "psi_series.psi_apply",
)
TIMED = COUNTED + ("coefficients.t_coeff", "coefficients.recurrence_residue")


def layer_metrics(tracer, check_ids) -> dict:
    """Per-layer figures from the tracer's totals, named <module>.<function>.<stat>."""
    stats = tracer.stats

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def hit_ratio(name):
        totals = tracer.cache_totals.get(name)
        if not totals or not sum(totals):
            return 0.0
        return totals[0] / sum(totals)

    m = {f"{name}.calls": calls(name) for name in COUNTED}
    m.update({f"{name}.self_us": self_s(name) * 1e6 for name in TIMED})
    fleck = "coefficients.fleck_sum_general"
    # Without a cache every call computes; with one, only the misses do.
    m[f"{fleck}.computed"] = tracer.cache_totals[fleck][1] if fleck in tracer.cache_totals else calls(fleck)
    m[f"{fleck}.hit_ratio"] = hit_ratio(fleck)
    m["coefficients.normalized_parts.hit_ratio"] = hit_ratio("coefficients.normalized_parts")
    m["coefficients.cache_entries"] = tracer.cache_peak_entries

    evaluations = [n for n in stats if n.startswith("verifier.evaluate.")]
    tuples_evaluated = sum(calls(n) for n in evaluations)
    m["verifier.expand.tuples"] = tracer.items.get("verifier.expand", 0)
    m["verifier.expand.self_s"] = self_s("verifier.expand")
    m["verifier.evaluate.self_us"] = (
        sum(self_s(n) for n in evaluations) / tuples_evaluated * 1e6 if tuples_evaluated else 0.0
    )
    m["verifier.run_sweep.self_s"] = self_s("verifier.run_sweep") + self_s("verifier.run_explore")
    for check_id in check_ids:
        name = f"verifier.evaluate.{check_id}"
        n = calls(name)
        m[f"verifier.{check_id}.us_per_tuple"] = stats[name][1] / n * 1e6 if n else 0.0
    m["cli.main.self_ms"] = self_s("cli.main") * 1000
    return m


def usage(cpu0) -> dict:
    """CPU seconds since cpu0 and peak RSS in MiB, both counting pool children."""
    cpu1 = os.times()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"cpu_s": sum(cpu1[:4]) - sum(cpu0[:4]),
            "peak_rss_mb": (own + children) / 1024}  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)

    plan = workloads.sweeps(args.workload, args.seed, args.workers)
    cycpsi, import_ms = import_cycpsi(Path.cwd())
    for sweep in plan:
        cycpsi.verifier.SweepGrid(**sweep["grid"])
    result = {"ready": time.monotonic(), "import_ms": import_ms}
    if args.mode == "setup":
        probe = SpeedProbe()
        for _ in range(SETUP_PROBES):
            probe.sample()
        result["probe_s"] = statistics.median(probe.cpu_s)
    elif args.mode == "run":
        cpu0 = os.times()
        with SpeedProbe() as probe:
            result["sweeps"] = run_sweeps(cycpsi, plan)
        result.update(usage(cpu0), probe_s=statistics.median(probe.cpu_s), probe_wall_s=probe.wall_s)
    else:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, cycpsi)
        cpu0 = os.times()
        result["sweeps"] = run_sweeps(cycpsi, plan)
        result.update(usage(cpu0))
        tracer.fold_cache_stats()
        check_ids = tuple(cycpsi.verifier.CHECK_IDS) + ("rem1.2",)
        result["layers"] = layer_metrics(tracer, check_ids)
        out_dir = Path.cwd() / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(
            out_dir / f"spans-{args.workload}.jsonl",
            {"workload": args.workload, "seed": args.seed,
             "note": "parent-side spans only; pool workers are not traced"},
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
