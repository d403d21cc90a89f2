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


def test_src_lines_per_module_and_in_total(tmp_path):
    for tree, files in (("parent", {"src/pkg/a.py": "x = 1\ny = 2\n",
                                    "src/pkg/gone.py": "z = 3\n"}),
                        ("change", {"src/pkg/a.py": "x = 1\n",
                                    "src/pkg/sub/b.py": "b = 1\nc = 2\nd = 3",
                                    "src/pkg/notes.txt": "not code\n",
                                    "tools/t.py": "t = 1\n"})):
        for name, text in files.items():
            (tmp_path / tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / tree / name).write_text(text)
    parent = ab.src_lines(tmp_path / "parent")
    change = ab.src_lines(tmp_path / "change")
    assert parent == {"pkg/a.py": 2, "pkg/gone.py": 1}
    # wc -l counts newlines: b.py's last line has none
    assert change == {"pkg/a.py": 1, "pkg/sub/b.py": 2}
    rows = [row.split() for row in ab.lines_report(parent, change).splitlines()]
    assert rows == [
        ["src", "module", "parent", "change", "net"],
        ["pkg/a.py", "2", "1", "-1"],
        ["pkg/gone.py", "1", "0", "-1"],
        ["pkg/sub/b.py", "0", "2", "+2"],
        ["total", "3", "3", "+0"]]


def test_session_of_two_workloads_alternates_and_summarizes_each():
    calls = []

    def run(side, workload):
        calls.append((side, workload))
        k = len(calls)
        # fuzz3's change is always faster; fuzz12's only in pair 2.
        value = {"fuzz3": 10.0 if side == "parent" else 9.0,
                 "fuzz12": 20.0 + k}[workload]
        return {"run": value, "trace_sha256": [workload]}

    runs = ab.session(run, ["fuzz3", "fuzz12"], 2)
    assert calls == [("parent", "fuzz3"), ("change", "fuzz3"),
                     ("parent", "fuzz12"), ("change", "fuzz12"),
                     ("change", "fuzz3"), ("parent", "fuzz3"),
                     ("change", "fuzz12"), ("parent", "fuzz12")]
    assert sorted(runs) == ["fuzz12", "fuzz3"]
    assert [r["pair"] for r in runs["fuzz12"]["change"]] == [1, 2]
    assert [r["run"] for r in runs["fuzz12"]["parent"]] == [23.0, 28.0]
    assert [r["run"] for r in runs["fuzz12"]["change"]] == [24.0, 27.0]
    fast = ab.summarize(runs["fuzz3"]["parent"], runs["fuzz3"]["change"],
                        {"run": "lower"})["run"]
    assert (fast["pairs_change_better"], fast["change_median"]) == (2, 9.0)
    mixed = ab.summarize(runs["fuzz12"]["parent"], runs["fuzz12"]["change"],
                         {"run": "lower"})["run"]
    assert (mixed["pairs_change_better"], mixed["pairs"]) == (1, 2)
    assert ab.same_traces(runs["fuzz3"]) and ab.same_traces(runs["fuzz12"])
    runs["fuzz12"]["change"][1]["trace_sha256"] = ["other"]
    assert not ab.same_traces(runs["fuzz12"])
