"""The committed mutants (`tests/mutants.py`): the unmodified code rejects
each decoder mutant's forgery, and the mutated code accepts it; each
controller mutant is killed by the detectors it names, and no detector
kills the unmodified code."""
from mutants import CONTROLLER_MUTANTS, CORPUS_SEEDS, DETECTORS, MUTANTS, kills


def test_each_mutant_accepts_the_forgery_its_check_rejects(monkeypatch):
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 9
    accepted, rejected = [], []  # by the unmodified and the mutated code
    for mutant in MUTANTS:
        try:
            mutant.forge()
            accepted.append(mutant.name)
        except mutant.rejects:
            pass
        with monkeypatch.context() as patch:
            mutant.apply(patch)
            try:
                mutant.forge()
            except mutant.rejects as e:
                rejected.append((mutant.name, str(e)))
    assert accepted == [] and rejected == []


def test_each_controller_mutant_is_killed_by_the_detectors_it_names(
        monkeypatch):
    assert kills() == {"done": len(CORPUS_SEEDS), "run": 0,
                       **dict.fromkeys(DETECTORS, 0)}
    for mutant in CONTROLLER_MUTANTS:
        with monkeypatch.context() as patch:
            mutant.apply(patch)
            counts = kills()
        killers = tuple(d for d in ("run", *DETECTORS) if counts[d])
        assert killers == mutant.killed_by, (mutant.name, counts)
