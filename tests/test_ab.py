import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_summary_of_canned_pairs():
    parent = [{"run": v, "rate": r} for v, r in
              [(10.0, 5), (12.0, 5), (11.0, 4), (13.0, 6), (9.0, 5)]]
    change = [{"run": v, "rate": r} for v, r in
              [(9.5, 6), (12.0, 4), (10.0, 5), (12.5, 7), (9.5, 5)]]
    s = ab.summarize(parent, change, {"run": "lower", "rate": "higher"})
    run = s["run"]
    assert (run["parent_median"], run["change_median"]) == (11.0, 10.0)
    # exclusive quartiles of 9, 10, 11, 12, 13
    assert (run["parent_q1"], run["parent_q3"]) == (9.5, 12.5)
    assert run["parent_iqr"] == 3.0
    # pair 2 is a tie and counts for neither side; pair 5 the change loses
    assert (run["pairs_change_better"], run["pairs"]) == (3, 5)
    assert s["rate"]["pairs_change_better"] == 3  # higher is better here
    table = ab.report(s).splitlines()
    assert table[1].split() == ["run", "11", "10", "-9.09", "3", "3/5"]


def test_clear_bytecode_removes_only_caches_under_src(tmp_path):
    for d in ("src/pkg/__pycache__", "src/pkg/sub/__pycache__",
              "fuzzbench/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "m.pyc").write_bytes(b"")
    (tmp_path / "src/pkg/m.py").write_text("")
    ab.clear_bytecode(tmp_path)
    left = sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*") if p.is_file())
    assert left == ["fuzzbench/__pycache__/m.pyc", "src/pkg/m.py"]

