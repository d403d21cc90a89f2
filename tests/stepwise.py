"""Step-wise cleansing, the reference for checker.cleanse in the tests."""
import random
from typing import Dict, List, Optional, Tuple

from taserial.checker import CleanSchedule, ScheduleEntry, _undone_steps
from taserial.engine import Trace


def cleanse_stepwise(trace: Trace, rng: random.Random) -> Dict[str, CleanSchedule]:
    """Cleanse by deleting one removable segment at a time in random order.

    The removable set never grows from a deletion, so every order reaches
    the same result; this exists to check that directly.
    """
    undone = _undone_steps(trace)
    work: Dict[str, List[Optional[ScheduleEntry]]] = {}
    removable: List[Tuple[str, int]] = []
    for m in trace.registered:
        col: List[Optional[ScheduleEntry]] = []
        for rec in trace.steps:
            ms = rec.per_machine.get(m)
            if ms is None:
                continue
            col.append(ScheduleEntry(rec.index, ms.updates, ms.reads))
            if not ms.proper or (m, rec.index) in undone:
                removable.append((m, len(col) - 1))
        work[m] = col
    rng.shuffle(removable)
    for m, pos in removable:
        work[m][pos] = None
    return {m: tuple(e for e in col if e is not None)
            for m, col in work.items()}
