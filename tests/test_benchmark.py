"""The benchmark harness in fuzzbench/ runs against this source tree.

The harness calls into taserial by name (engine.run, the trace codec, the
checker, the fuzzer); a renamed or removed entry point fails here, not only
when the benchmark is run.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "fuzzbench_tracer", ROOT / "fuzzbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_engine_wrapper_and_controller_hook_resolves():
    # A hook that resolves to nothing reads 0 in its per-layer metrics; the
    # two asm hooks are counted too.
    tracer = _tracer()
    hooks = [(m, p) for m, p in tracer.HOOKS
             if m in ("taserial.engine", "taserial.wrapper",
                      "taserial.controller", "taserial.asm")]
    assert len(hooks) == 18
    assert [h for h in hooks if tracer.resolve(*h) is None] == []


def test_benchmark_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, "fuzzbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
