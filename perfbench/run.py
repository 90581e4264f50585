"""The repository benchmark: one workload per call, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload round-research --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then runs its operations for ``--seconds`` and reports the
end-to-end metrics, every timing in reference-speed seconds (see
``speed.py``).  ``--trace 1`` runs the operations untraced for half
the budget, replays exactly those operations with every layer's public
entry points timed (see ``ledger.py``), and reports the per-layer
ledger; the two passes must produce identical verdict digests.

The human-readable report goes first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 when every correctness check passed,
1 when one failed, 2 when the benchmark cannot run here at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from speed import REFERENCE_CALL_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment switches that select a different program path.
ALTERNATE_PATHS = ("REPRO_FULL_CONVERGE", "REPRO_NO_VECTORIZE")

#: ``setup_s`` is the median of at least this many set-ups ...
MIN_SETUPS = 3
#: ... repeated (up to MAX_SETUPS) until this many seconds were spent.
SETUP_SECONDS = 2.0
MAX_SETUPS = 100

#: The ledger criterion: named layers cover all but this share of the
#: traced wall time.
MAX_UNATTRIBUTED = 0.05

WORKLOAD_NAMES = (
    "round-research",
    "stream-replay",
    "monitor-mixed",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------- provenance


def git(*args) -> str:
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = dirty = None
    if (ROOT / ".git").exists():  # the checkout itself, not an enclosing repo
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty if sha else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "program_path": "incremental-converge+vectorized-greedy",
    }


# ------------------------------------------------------------ measuring


def tail(samples):
    """``(percentile, value)``: the highest of p99/p95/p90/p75 (nearest
    rank) with at least ten samples beyond it, or ``None``."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        rank = math.ceil(pct * len(ordered) / 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def digest_of(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()[:16]


def timed_setups(workload, seed: int, probe):
    """Set the workload up repeatedly; return (median seconds, count, state)."""
    seconds = []
    state = None
    while len(seconds) < MIN_SETUPS or (
        sum(seconds) < SETUP_SECONDS and len(seconds) < MAX_SETUPS
    ):
        state = None  # drop the previous set-up before building the next
        gc.collect()
        mark = probe.mark()
        started = probe.clock()
        state = workload.setup(seed)
        seconds.append((probe.clock() - started) * probe.scale(mark))
    return statistics.median(seconds), len(seconds), state


def settle() -> None:
    """Move everything set-up built out of the collector's reach, so a
    full collection during the timed operations does not walk the
    topology, the deployment and the scenario pool."""
    gc.collect()
    gc.freeze()


def counts_line(counts) -> str:
    return "counts " + json.dumps(
        {name: value for name, value in counts.items() if value}, sort_keys=True
    )


def report_untraced(workload, setup_s, setups, result, peak_rss, probe):
    samples = result.latencies
    p50 = statistics.median(samples)
    name = workload.latency_name
    lines = [
        f"host speed: reference kernel {probe.mean_call() * 1000:.4f} ms "
        f"per call over {probe.calls} calls; timings below are "
        f"reference-speed seconds ({REFERENCE_CALL_S * 1000:g} ms per call)",
        f"metric setup_s = {setup_s:.6f} s (median of {setups} set-ups)",
        f"metric {name}.p50 = {p50:.6f} s "
        f"(n={len(samples)} {workload.op_unit}s)",
    ]
    high = tail(samples)
    if high is not None:
        lines.append(
            f"metric {name}.p{high[0]} = {high[1]:.6f} s (n={len(samples)})"
        )
    else:
        lines.append(
            f"metric {name}: no tail percentile has ten samples beyond it "
            f"at n={len(samples)}"
        )
    throughput = result.work / result.busy
    lines += [
        f"metric {workload.throughput_name} = {throughput:.4f} 1/s "
        f"({result.work} {workload.work_unit} in {result.busy:.3f} s busy, "
        f"{result.ops} ops)",
        f"metric peak_rss_mb = {peak_rss:.1f} MB",
        f"metric failed_share = {result.failed / result.attempted:.6f} "
        f"({result.failed} failed of {result.attempted} "
        f"{workload.failure_unit})",
    ]
    offered = result.counts["stream.events_offered"]
    if offered:
        quarantined = result.counts["stream.events_quarantined"]
        lines.append(
            f"metric quarantined_share = {quarantined / offered:.6f} "
            f"({quarantined} quarantined of {offered} events offered)"
        )
    lines += [
        counts_line(result.counts),
        f"verdict_digest {digest_of(result.digests)}",
    ]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_s.p50": {"value": p50, "unit": "s"},
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    return lines, metrics


def report_traced(untraced, traced, ledger, layers, counts_names):
    rows = ledger.summary()
    wall = ledger.wall()
    overhead = wall - untraced.busy
    idle = {"calls": 0, "self_s": 0.0, "p50_s": 0.0, "share": 0.0}
    root = rows.get("op", idle)
    lines = [
        f"ledger {'layer':<30} {'calls':>8} {'self_s':>10} {'p50_ms':>9} "
        f"{'share':>7}"
    ]
    metrics = {}
    for layer in layers:
        row = rows.get(layer, idle)
        lines.append(
            f"ledger {layer + '_s':<30} {row['calls']:>8} "
            f"{row['self_s']:>10.4f} {row['p50_s'] * 1000:>9.4f} "
            f"{row['share']:>7.2%}"
        )
        metrics[f"{layer}.share"] = {"value": row["share"], "unit": "share"}
    lines += [
        f"ledger {'(unattributed)':<30} {'':>8} {root['self_s']:>10.4f} "
        f"{'':>9} {root['share']:>7.2%}",
        f"trace wall {wall:.4f} s traced vs {untraced.busy:.4f} s untraced "
        f"over {traced.ops} ops: overhead {overhead:+.4f} s",
        counts_line(traced.counts),
        f"verdict_digest {digest_of(untraced.digests)} untraced, "
        f"{digest_of(traced.digests)} traced",
    ]
    for name in counts_names:
        metrics[name] = {"value": traced.counts[name] / traced.ops, "unit": "count"}
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.unattributed_share"] = {"value": root["share"], "unit": "share"}
    return lines, metrics, root["share"]


def run_one(args) -> int:
    import workloads
    from ledger import Ledger
    from repro.perf import peak_rss_mb

    workload = workloads.WORKLOADS[args.workload]
    print(
        f"# perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    if args.trace == 0:
        with SpeedProbe(workload.speed_kernel) as probe:
            setup_s, setups, state = timed_setups(workload, args.seed, probe)
            settle()
            result = workload.run(state, seconds=args.seconds, probe=probe)
        lines, metrics = report_untraced(
            workload, setup_s, setups, result, peak_rss_mb(), probe
        )
        problems = list(result.problems)
    else:
        state = workload.setup(args.seed)
        settle()
        # One throw-away operation first, so neither pass pays the
        # interpreter's warm-up and the overhead compares like with like.
        workload.run(state, ops=1)
        untraced = workload.run(state, seconds=args.seconds / 2.0)
        ledger = Ledger()
        try:
            result = workload.run(state, ops=untraced.ops, ledger=ledger)
        finally:
            ledger.restore()
        lines, metrics, unattributed = report_traced(
            untraced, result, ledger, workloads.LAYERS, workloads.COUNTS
        )
        problems = untraced.problems + result.problems
        problems += workload.check_traced(result)
        if result.digests != untraced.digests:
            problems.append("traced and untraced verdict digests differ")
        if unattributed > MAX_UNATTRIBUTED:
            problems.append(
                f"named layers miss {unattributed:.1%} of the traced wall time"
            )
    for label, value, ok in workload.floors(result):
        lines.append(f"quality {label}: {value:.4f}")
        if not ok:
            problems.append(f"quality floor missed: {label} ({value:.4f})")
    for line in lines:
        print(line)
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 1 if problems else 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=1800,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        last = done.stdout.strip().splitlines()[-1:] or ["{}"]
        try:
            summary[name] = json.loads(last[0])
        except json.JSONDecodeError:
            summary[name] = {"correct": False}
    print(json.dumps({"workloads": summary}, sort_keys=True))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    flagged = [
        name
        for name in ALTERNATE_PATHS
        if os.environ.get(name, "") not in ("", "0")
    ]
    if flagged:
        fail(
            f"refusing to run with {', '.join(flagged)} set: it selects a "
            "different program path"
        )
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
