import importlib.util
from pathlib import Path

from taserial.engine import run, trace_to_lines
from taserial.fuzz import random_config

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "trace_bytes", ROOT / "tools" / "trace_bytes.py")
trace_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_bytes)


def test_corpus_bytes_are_the_written_lines_of_two_seeds():
    # fuzz3 is `random_config` with the default parameters.
    counts = trace_bytes.corpus_bytes(ROOT, "fuzz3", range(5, 7))
    lines = [trace_to_lines(run(random_config(seed))) for seed in (5, 6)]
    sizes = [[len(line) + 1 for line in trace] for trace in lines]
    assert counts == {
        "traces": 2, "errors": 0,
        "header": sum(s[0] for s in sizes),
        "step": sum(sum(s[1:-1]) for s in sizes),
        "footer": sum(s[-1] for s in sizes),
        "total": sum(map(sum, sizes))}


def test_seeds_are_a_half_open_range():
    assert trace_bytes.parse_seeds("3:7") == range(3, 7)
