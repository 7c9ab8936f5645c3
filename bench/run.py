"""Benchmark entry point for dispatchkit.

    python3 bench/run.py --workload eval-hot --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --smoke                      # tiny pass, checks only

One workload runs per process, so module-level state of the program
(value probes, cached rule runtimes) never leaks between workloads;
`--workload all` and `--smoke` start a fresh interpreter for each. The
last line of standard output is the result object; the line before it is
a report with the environment, the workload's own counters and every
metric under its workload-specific name. See bench/README.md.
"""

import time

START = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # leave the checkout as it was found

import harness  # noqa: E402

WORKLOADS = ("eval-hot", "infer-corpus", "index-copy", "cold-start")
# A run is split between this process and three fresh children, one after
# another, each setting up and then measuring a quarter of `--seconds`.
# Each process is pinned to one CPU, taken in turn from those the run may
# use. A process otherwise stays on whichever CPU it starts on, and on a
# shared host one CPU can run a good deal slower than another for minutes
# at a time, so a whole run would take the speed of the one it drew.
PROCESSES = 4
THROUGHPUT_NAME = {
    "eval-hot": "calls_per_s",
    "infer-corpus": "sites_per_s",
    "index-copy": "elems_per_s",
    "cold-start": "calls_per_s",
}
CHILD_TIMEOUT_S = 170


def build(name: str, dk, seed: int, smoke: bool):
    if name == "eval-hot":
        from eval_hot import EvalHot
        return EvalHot(dk, seed, smoke)
    if name == "infer-corpus":
        from infer_corpus import InferCorpus
        return InferCorpus(dk, seed, smoke)
    if name == "index-copy":
        from index_copy import IndexCopy
        return IndexCopy(dk, seed, smoke)
    from cold_start import ColdStart
    return ColdStart(dk, seed, smoke)


def set_up(args):
    """Import, generate, set up and warm up: everything before timing."""
    dk = harness.import_program()
    workload = build(args.workload, dk, args.seed, args.smoke)
    warm = harness.warm_up(workload)
    return dk, workload, warm


def child(args, *extra) -> list[str]:
    """Run this script for one workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=harness.ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}")
    return done.stdout.splitlines()


def pin(share: int):
    """Pin this process to the share's CPU; a no-op where unsupported."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[share % len(cpus)]})


def measure_share(args, share: int) -> dict:
    """Set up in this process, then measure its share of the run."""
    pin(share)
    _, workload, warm = set_up(args)
    try:
        setup_s = time.perf_counter() - START
        processes = 1 if args.smoke else PROCESSES
        stats = harness.measure(workload, args.seconds / processes,
                                min_passes=1 if args.smoke else harness.MIN_PASSES)
        rss = harness.peak_rss_mib()
    finally:
        workload.close()
    checked = [warm] + getattr(workload, "rewarms", [])
    return {
        "setup_s": setup_s,
        "peak_rss_mib": rss,
        "ops_per_pass": len(workload.ops),
        "durations": stats.durations,
        "work": stats.work,
        "attempted": stats.attempted + sum(s.attempted for s in checked),
        "failed": stats.failed + sum(s.failed for s in checked),
        "failures": (stats.failures + [f for s in checked for f in s.failures])[:5],
        "counters": workload.report(),
    }


def as_stats(share: dict) -> harness.RunStats:
    stats = harness.RunStats(share["ops_per_pass"])
    stats.durations, stats.work = share["durations"], share["work"]
    return stats


def measure_workload(args) -> int:
    processes = 1 if args.smoke else PROCESSES
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    try:
        shares = [measure_share(args, 0)]
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)  # the children pick from the whole set
    for k in range(1, processes):
        shares.append(json.loads(child(args, "--share", str(k))[-1]))
    summary = harness.summarize([as_stats(share) for share in shares])
    attempted = sum(share["attempted"] for share in shares)
    failed = sum(share["failed"] for share in shares)
    setups = [share["setup_s"] for share in shares]
    rss = [share["peak_rss_mib"] for share in shares]
    metrics = {
        "setup_s": {"value": harness.median(setups), "unit": "s"},
        "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
        "op_ms_p50": {"value": summary["op_ms_p50"], "unit": "ms"},
        "op_ms_p90": {"value": summary["op_ms_p90"], "unit": "ms"},
        "work_per_s": {"value": summary["work_per_s"], "unit": "1/s"},
        # a child's ru_maxrss starts from its parent's at the fork, so only
        # the first process's own figure is clean
        "peak_rss_mib": {"value": rss[0], "unit": "MiB"},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": harness.environment(),
        "named": {THROUGHPUT_NAME[args.workload]: summary["work_per_s"]},
        "fail_ratio": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "latency_samples": {"ops_timed": summary["ops"], "passes": summary["passes"],
                            "processes": processes,
                            "distinct_ops": summary["latency_samples"],
                            "above_p90": summary["samples_above_p90"]},
        "setup_samples_s": setups,
        "peak_rss_samples_mib": rss,
        "failures": [f for share in shares for f in share["failures"]][:5],
        "workload_counters": shares[0]["counters"],
    }
    harness.emit(failed == 0, attempted, failed, metrics, report)
    return 0


def share_only(args) -> int:
    print(json.dumps(measure_share(args, args.share)))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another; smoke
    mode runs the untraced and the traced entry point of each."""
    traces = (0, 1) if args.smoke else (args.trace,)
    extra = ["--smoke"] if args.smoke else []
    correct = True
    for name in WORKLOADS:
        for trace in traces:
            args.workload, args.trace = name, trace
            lines = child(args, *extra)
            print("\n".join(lines))
            correct = correct and json.loads(lines[-1])["correct"]
    print(json.dumps({"all_correct": correct}))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="dispatchkit benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run that gives the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="one tiny pass of each workload; checks outputs only")
    p.add_argument("--share", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    return args


def main(argv=None) -> int:
    # a terminated run still unwinds, so set-up files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        if args.share is not None:
            return share_only(args)
        if args.trace:
            import traced
            return traced.main(args, set_up)
        return measure_workload(args)
    except (harness.SetupError, ImportError) as err:
        print(f"bench: cannot run: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
