"""The benchmark harness in fuzzbench/ runs against this source tree.

The harness calls into taserial by name (engine.run, the trace codec, the
checker, the fuzzer); a renamed or removed entry point fails here, not only
when the benchmark is run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, "fuzzbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
