"""Shared plumbing: locating the program, the timed loop, and results.

The benchmark imports dispatchkit from the `src/` directory of the
checkout it sits in, never from an installed copy, so the numbers always
belong to the tree under test. It writes nothing outside `.bench_out/`
and `.bench_work/` at the checkout root.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
RULES = ("trailing-drop", "all-drop", "apl", "drop-size1")  # the indexing rule sets


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


def import_program():
    """Import dispatchkit from this checkout's src/ and return the module."""
    init = SRC / "dispatchkit" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"program source not found: {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import dispatchkit

    if Path(dispatchkit.__file__).resolve() != init.resolve():
        raise SetupError(f"dispatchkit was imported from {dispatchkit.__file__}, "
                         f"not from this checkout")
    return dispatchkit


def load_oracles():
    """tests/oracles.py, imported read-only as an independent reference."""
    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        raise SetupError("tests/oracles.py not found")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def commit_id() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list, q in [0, 100]."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(q / 100 * len(s)) - 1))
    return s[k]


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


class RunStats:
    """Per-op durations, work units and failures of whole passes over a
    workload's op list.

    The summary resists interference from other processes on the machine.
    Each op's latency is the median of its repetitions across passes, and
    throughput uses the median pass time. Every pass does the same work,
    so both describe the program rather than the moments it was unlucky.
    Garbage collection that runs in most passes stays in the pass time,
    while a pause that lands on a given op only now and then drops out of
    that op's median.
    """

    def __init__(self, ops_per_pass: int):
        self.ops_per_pass = ops_per_pass
        self.durations: list[float] = []
        self.work = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def record(self, seconds: float, work: int, ok: bool, why: str = ""):
        self.durations.append(seconds)
        self.work += work
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(why)

    def summary(self) -> dict:
        return summarize([self])


def summarize(runs: list[RunStats]) -> dict:
    """Figures for runs of the same op list, one per process.

    Within a run, each op's latency is the median of its repetitions and
    the pass time is the median pass. Across runs both are averaged, so
    every process weighs the same, whatever its speed.
    """
    n = runs[0].ops_per_pass
    per_op = [statistics.fmean(median(r.durations[i::n]) for r in runs)
              for i in range(n)]
    pass_s = statistics.fmean(
        median([sum(r.durations[k:k + n]) for k in range(0, len(r.durations), n)])
        for r in runs)
    passes = sum(len(r.durations) // n for r in runs)
    p90 = percentile(per_op, 90)
    return {
        "passes": passes,
        "ops": sum(len(r.durations) for r in runs),
        "ops_per_s": n / pass_s,
        "work_per_s": sum(r.work for r in runs) / passes / pass_s,
        "op_ms_p50": percentile(per_op, 50) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "latency_samples": n,
        "samples_above_p90": sum(1 for d in per_op if d > p90),
    }


MIN_PASSES = 5  # repetitions behind each op's median latency


class Workload:
    """What every workload provides: `name`, a list `ops`, and the
    methods below. `run` is the timed call; the rest run untimed."""

    name = ""
    ops: list = []

    def prepare(self, op):
        return op

    def run(self, prepared):
        raise NotImplementedError

    def check(self, op, out) -> tuple[bool, str]:
        raise NotImplementedError

    def work(self, op, out) -> int:
        return 1

    def after_pass(self, passes: int):
        pass

    def report(self) -> dict:
        return {}

    def close(self):
        """Release what set-up created, such as written files."""


def measure(workload, seconds: float, run=None, min_passes: int = MIN_PASSES) -> RunStats:
    """Run whole passes over the workload's ops until `seconds` of wall
    time have gone and at least `min_passes` passes ran.

    Only the op itself is timed: `workload.prepare(op)` (state an op
    needs but does not own, such as a fresh runtime) runs before the clock
    starts and the output check after it stops. Ending on a pass boundary
    keeps the op mix identical from run to run, whatever the speed.

    A full collection runs, untimed, before each pass, so every pass
    starts from the same collector state. Otherwise a full collection
    lands in some passes and not others, and scans whatever earlier
    passes left behind, so pass times within a run differ by up to half.
    Collections that a pass's own allocation triggers stay in its time.
    """
    run = run or workload.run
    stats = RunStats(len(workload.ops))
    clock = time.perf_counter
    deadline = clock() + seconds
    passes = 0
    while True:
        gc.collect()
        for op in workload.ops:
            prepared = workload.prepare(op)
            t0 = clock()
            try:
                out = run(prepared)
            except Exception as exc:  # noqa: BLE001 - judged by check()
                out = exc
            t1 = clock()
            ok, why = workload.check(op, out)
            stats.record(t1 - t0, workload.work(op, out), ok, why)
        passes += 1
        if clock() >= deadline and passes >= min_passes:
            return stats
        workload.after_pass(passes)


def warm_up(workload) -> RunStats:
    """One pass over every op, untimed, with every output checked."""
    stats = RunStats(len(workload.ops))
    for op in workload.ops:
        try:
            out = workload.run(workload.prepare(op))
        except Exception as exc:  # noqa: BLE001 - judged by check()
            out = exc
        ok, why = workload.check(op, out)
        stats.record(0.0, 0, ok, why)
    return stats


def emit(correct: bool, attempted: int, failed: int, metrics: dict, report: dict):
    """Print the human-facing report, then the result object as the last line."""
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()


def describe_exc(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text}"[:200]
