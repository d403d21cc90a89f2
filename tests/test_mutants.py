"""The committed decoder mutants (`tests/mutants.py`): the unmodified code
rejects each mutant's forgery, and the mutated code accepts it."""
from mutants import MUTANTS


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
