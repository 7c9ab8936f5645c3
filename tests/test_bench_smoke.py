"""The benchmark harness runs end to end in smoke mode.

`bench/run.py --smoke` makes one tiny, output-checked pass of every
workload, untraced and traced, through the public names the benchmark
calls (`view`, `view_get`, `to_array`, `index_shape`, `select`,
`cache_enabled`, `dispatch_call` among them). No timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert json.loads(last) == {"all_correct": True}
