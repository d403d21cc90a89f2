import importlib.util
import sys
from pathlib import Path

import pytest

import taserial.engine

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("seedmin",
                                               ROOT / "tools" / "seedmin.py")
seedmin = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seedmin)


def test_session_alternates_and_keeps_each_seeds_minimum():
    calls = []
    times = {"parent": [3.0, 5.0, 2.0, 4.0], "change": [2.5, 4.0, 2.5, 3.0]}

    def timer(side):
        def time(seed):
            calls.append((side, seed))
            # per side, the rounds' times of seed 0, then of seed 1
            k = sum(1 for s, n in calls if s == side and n == seed) - 1
            return times[side][2 * seed + k], f"trace {seed}"
        return time

    best = seedmin.session({s: timer(s) for s in times}, [0, 1], 2)
    assert calls == [("parent", 0), ("change", 0), ("change", 1),
                     ("parent", 1), ("change", 0), ("parent", 0),
                     ("parent", 1), ("change", 1)]
    assert best == {"parent": {0: (3.0, "trace 0"), 1: (2.0, "trace 1")},
                    "change": {0: (2.5, "trace 0"), 1: (2.5, "trace 1")}}
    s = seedmin.summarize(best)
    assert (s["parent_s"], s["change_s"]) == (5.0, 5.0)
    assert s["median_ratio"] == (2.5 / 3.0 + 2.5 / 2.0) / 2
    assert (s["seeds_won"], s["seeds"], s["same_traces"]) == (1, 2, True)
    best["change"][1] = (2.5, "another trace")
    assert not seedmin.summarize(best)["same_traces"]


def test_two_seeds_of_one_tree_against_itself(capsys):
    before = {n: m for n, m in sys.modules.items() if n.startswith("taserial")}
    assert seedmin.main([str(ROOT), str(ROOT), "--workload", "fuzz3",
                         "--rounds", "1", "--seeds", "0:2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "== fuzz3, seeds 0:2, 1 rounds, part run"
    won = out[4].split()
    assert won[:4] == ["seeds", "the", "change", "won"]
    assert won[4].endswith("/2")
    assert out[5].split() == ["identical", "traces", "True"]
    # The trees' modules were imported beside, not over, this process's.
    assert {n: m for n, m in sys.modules.items()
            if n.startswith("taserial")} == before
    assert sys.modules["taserial.engine"] is taserial.engine


def test_check_part_and_workload_parameters():
    assert seedmin.workload_params(ROOT, "fuzz12")["n_machines"] == 12
    mods = seedmin.import_tree(ROOT)
    assert mods.engine is not taserial.engine
    took, digest = seedmin.timer(mods, {}, "check")(0)
    again = seedmin.timer(mods, {}, "run")(0)[1]
    assert took > 0 and digest == again


def test_setup_part_times_random_config_alone(monkeypatch):
    mods = seedmin.import_tree(ROOT)
    random_config, calls = mods.fuzz.random_config, []

    def counting(seed, params):
        calls.append(seed)
        return random_config(seed, params)
    monkeypatch.setattr(mods.fuzz, "random_config", counting)
    monkeypatch.setattr(mods.checker, "check_serializable", None)
    time = seedmin.timer(mods, {}, "setup")
    took, digest = time(4)
    assert took > 0 and calls == [4, 4]  # the seed's one run, then timed
    again, same = time(4)
    assert again > 0 and same == digest
    assert calls == [4, 4, 4]  # the run is not repeated
    assert digest == seedmin.timer(mods, {}, "run")(4)[1]


def test_every_run_timing_compiles_the_seeds_rules(monkeypatch):
    """A program keeps its compiled rules, and fuzzbench compiles a seed's
    rules once per run: so must every `--part run` timing of the seed."""
    mods = seedmin.import_tree(ROOT)
    compile_rule, compiled = mods.wrapper.compile_rule, []

    def counting(*args):
        compiled.append(args)
        return compile_rule(*args)
    monkeypatch.setattr(mods.wrapper, "compile_rule", counting)
    time = seedmin.timer(mods, {}, "run")
    time(0)
    once = len(compiled)
    time(0)
    assert once > 0 and len(compiled) == 2 * once


def test_seed_table_names_each_seed_by_ratio():
    best = {"parent": {0: (0.010, "a"), 1: (0.002, "b"), 2: (0.004, "c")},
            "change": {0: (0.012, "a"), 1: (0.001, "b"), 2: (0.004, "c")}}
    assert seedmin.seed_table(best).splitlines() == [
        "    seed  parent ms  change ms   diff ms   ratio",
        "       1      2.000      1.000    -1.000  0.5000",
        "       2      4.000      4.000    +0.000  1.0000",
        "       0     10.000     12.000    +2.000  1.2000"]


def test_main_prints_each_seeds_minima_after_the_summary(capsys):
    assert seedmin.main([str(ROOT), str(ROOT), "--workload", "fuzz3",
                         "--rounds", "1", "--seeds", "3:6", "--part",
                         "check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[6].split() == ["seed", "parent", "ms", "change", "ms", "diff",
                              "ms", "ratio"]
    rows = [line.split() for line in out[7:]]
    assert sorted(int(r[0]) for r in rows) == [3, 4, 5]
    ratios = [float(r[4]) for r in rows]
    assert ratios == sorted(ratios)
    for _, parent, change, diff, _ in rows:
        assert float(diff) == pytest.approx(float(change) - float(parent),
                                            abs=2e-3)
