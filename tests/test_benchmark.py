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


def test_a_round_trip_calls_the_codec_and_parser_hooks():
    # The per-layer codec metrics read these hooks' calls; a decoder that
    # calls around the module attributes would make them read 0.
    from taserial import engine
    from taserial.workloads import counter_config

    tracer = _tracer()
    hooks = [("taserial.engine", name) for name in
             ("trace_to_lines", "trace_from_lines", "parse_program")]
    trace = engine.run(counter_config(3, 2, seed=1))
    with tracer.Tracer(hooks) as traced:
        traced.begin(0)
        engine.trace_from_lines(engine.trace_to_lines(trace))
        traced.fold()
    assert traced.missing == []
    assert all(traced.calls[tracer.span_name(*h)] >= 1 for h in hooks), (
        traced.calls)


def test_benchmark_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, "fuzzbench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
