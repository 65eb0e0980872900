"""mtwcheck benchmark: region checks and the three-route agreement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a source checkout.  NAME is one of
check-conformal2d, check-inline3d, routes, or ``all`` to run each in
turn in its own process.  One caller runs operations back to back (a
closed loop) for about S seconds; the checker's own thread pool is the
only other source of load.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer counts and times of a traced run
(see perfbench/README.md).  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7
IMPORT_CLI = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mtwcheck.cli"


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing mtwcheck.cli.

    One unmeasured spawn first, so the bytecode cache exists as it does
    for an installed package.
    """
    cmd = [sys.executable, "-c", IMPORT_CLI]
    subprocess.run(cmd, check=True)
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def provenance(mods) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mtwcheck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "mtwcheck_path": str(Path(mods["cli"].__file__).relative_to(ROOT)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "MTW_THREADS": os.environ.get("MTW_THREADS"),
        "checker_workers": mods["mtw"]._worker_count(),
    }


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(failures))
        self.messages += failures


def timed(work, tally):
    """One operation, timed; its gate runs after the clock stops."""
    t0 = perf_counter()
    try:
        result = work.run_once()
    except Exception as e:  # a raise is a failed operation, not a crash
        tally.add(1, [f"operation raised {e!r}"])
        return perf_counter() - t0, None
    wall = perf_counter() - t0
    tally.add(*work.check(result))
    return wall, result


def keep_going(start: float, walls: list, seconds: float) -> bool:
    """Start another operation while it should end near the deadline."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * statistics.median(walls) < seconds


def run_plain(work, seconds, tally):
    """Timed operations back to back.  For a workload gauged by
    hostspeed.py, kernel samples run between the operations and the
    bounded figures are quoted at nominal host speed.  Returns the
    bounded metrics and the figures as measured, which are printed only."""
    import hostspeed

    setup_s = measure_setup()
    gauge = None
    if work.host_gauged:
        # operations and kernel run on one CPU, so the kernel measures
        # the speed of the CPU the operations ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        gauge = hostspeed.Gauge()
        gauge.sample()
    walls, evaluations = [], 0
    start = perf_counter()
    while not walls or keep_going(start, walls, seconds):
        wall, result = timed(work, tally)
        if gauge:
            gauge.sample()
        walls.append(wall)
        if result is not None:
            evaluations += work.evaluations(result)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = gauge.scale() if gauge else 1.0
    print("operation walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    if gauge:
        print(f"host-speed scale {scale:.4f} from {len(gauge.samples)} kernel samples")
    # Means over the run, not medians of its two to five operations:
    # on a shared host successive operations swing by +-20 % within
    # seconds, and a median of a few of them jumps between the swings
    # where the mean averages them.
    wall_s = statistics.fmean(walls)
    evals_per_s = evaluations / sum(walls)
    metrics = {
        "norm_wall_s": (wall_s * scale, "s"),
        "norm_evals_per_s": (evals_per_s / scale, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    measured = {
        "wall_s": (wall_s, "s"),
        "evals_per_s": (evals_per_s, "1/s"),
    }
    return metrics, measured


def run_traced(work, mods, seconds, tally) -> dict:
    """Alternate untraced and traced operations; layer metrics come from
    the traced ones, tracing overhead from the difference."""
    from tracing import Tracer

    tracer = Tracer(mods)
    plain, traced, per_op = [], [], []
    start = perf_counter()
    while not traced or keep_going(start, [a + b for a, b in zip(plain, traced)],
                                   seconds):
        plain.append(timed(work, tally)[0])
        tracer.reset()
        with tracer:
            traced.append(timed(work, tally)[0])
        per_op.append(tracer.layer_metrics())
        if tracer.counts["unreadable_calls"]:
            print(f"NOTE {tracer.counts['unreadable_calls']} calls were not "
                  "counted: a wrapped signature changed")
    first = per_op[0]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    notes = work.trace_notes(counts)
    if any({k: op[k] for k in counts} != counts for op in per_op):
        notes.append("layer counts differ between repeated traced operations")
    for note in notes:
        print("NOTE " + note)
    out = {k: (counts[k], "count") if k in counts
           else (statistics.median(op[k] for op in per_op), "s") for k in first}
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return out


def run_all(args) -> int:
    from workloads import NAMES

    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "mtwcheck" / "__init__.py").is_file():
        print(f"error: no mtwcheck sources under {SRC}", file=sys.stderr)
        return 2
    # measure the checker's default pool size
    os.environ.pop("MTW_THREADS", None)
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import mtwcheck
    from mtwcheck import cli, conformal, dynamics, geometry, mtw
    import workloads

    if args.workload not in workloads.NAMES:
        p.error(f"unknown workload {args.workload!r} (one of {workloads.NAMES})")
    if SRC not in Path(mtwcheck.__file__).resolve().parents:
        print(f"error: mtwcheck imported from {mtwcheck.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    mods = {"cli": cli, "conformal": conformal, "dynamics": dynamics,
            "geometry": geometry, "mtw": mtw}
    reference = json.loads((BENCH / "reference.json").read_text())
    work = workloads.make(mods, args.workload, args.seed, reference)

    tally = Tally()
    if args.trace:
        metrics, measured = run_traced(work, mods, args.seconds, tally), {}
    else:
        metrics, measured = run_plain(work, args.seconds, tally)
    attempted, failures, rel_errs = work.confirm()
    tally.add(attempted, failures)
    route_err = (float(max(rel_errs, default=0.0)), "1")
    if args.trace:
        metrics["route_max_rel_err"] = route_err

    print("provenance " + json.dumps(provenance(mods), sort_keys=True))
    for name, (value, unit) in {**metrics, **measured}.items():
        print(f"{name:34s} {value!r:>24} {unit}")
    if not args.trace:
        print(f"{'route_max_rel_err':34s} {route_err[0]!r:>24} 1")
    print(f"{'fail_ratio':34s} {tally.failed / max(1, tally.attempted)!r:>24} 1"
          f"   ({tally.failed} of {tally.attempted} operations)")
    for msg in tally.messages[:20]:
        print("FAIL " + msg)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
