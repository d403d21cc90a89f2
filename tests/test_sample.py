import gc
import importlib.util
import signal
from pathlib import Path
from time import process_time

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("sample",
                                               ROOT / "tools" / "sample.py")
sample = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sample)


def _spin(seconds):
    t0 = process_time()
    while process_time() - t0 < seconds:
        pass


def _garbage(seconds):
    t0 = process_time()
    while process_time() - t0 < seconds:
        cycle = [[] for _ in range(200)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            a.append(b)


@pytest.fixture
def sentinel():
    """A SIGPROF handler and a running ITIMER_PROF timer, far from firing,
    that sampling must leave as it found them."""
    def handler(signum, frame):
        raise AssertionError("the sampler's timer reached the old handler")
    previous = signal.signal(signal.SIGPROF, handler)
    signal.setitimer(signal.ITIMER_PROF, 1000, 500)
    callbacks = list(gc.callbacks)
    yield handler
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, previous)
    assert gc.callbacks == callbacks


def _left_as_found(handler):
    assert signal.getsignal(signal.SIGPROF) is handler
    delay, interval = signal.getitimer(signal.ITIMER_PROF)
    assert 990 < delay < 1001 and interval == 500


def test_shares_sum_to_100_and_name_the_busy_function(sentinel):
    sampler = sample.sample([(_spin, 0.2), (_garbage, 0.2)])
    _left_as_found(sentinel)
    assert sampler.samples > 10
    shares = sampler.shares()
    assert sum(own for own, _ in shares.values()) == pytest.approx(100)
    for own, incl in shares.values():
        assert 0 <= own <= incl + 1e-9 <= 100 + 1e-9
    spin, garbage = shares["test_sample._spin"], shares["test_sample._garbage"]
    gc_share = shares[sample.GC][0]
    # Half the time each, give or take a few 4 ms ticks.
    assert spin[0] > 25 and garbage[1] + gc_share > 25 and gc_share > 0
    assert shares["sample._timed"][1] == pytest.approx(100 - gc_share)
    assert sampler.section_s >= 0.4 and 0 < sampler.gc_s < sampler.section_s


@pytest.mark.parametrize("part", ["run", "check"])
def test_two_seeds_of_a_workload(sentinel, capsys, part):
    assert sample.main(["--workload", "fuzz3", "--seeds", "0:2", "--part",
                        part, "--rounds", "2"]) == 0
    _left_as_found(sentinel)
    out = capsys.readouterr().out.splitlines()
    head = out[0].split()
    assert head[:8] == ["==", "fuzz3,", "part", part + ",", "2", "completed",
                        "of", "seeds"]
    assert out[1].split() == ["self%", "incl%", "function"]
    rows = [line.split() for line in out[2:]]
    for own, incl, name in rows:
        assert 0 <= float(own) <= float(incl) <= 100
        assert float(incl) >= sample.LEAST_PCT
    if int(head[-2]):  # a short run may fall between two ticks
        inclusive = {name: float(incl) for _, incl, name in rows}
        # <gc>'s share is timed, not sampled; every sampled stack starts at
        # _timed, so the two make up the whole, each printed to 0.005.
        gc_share = inclusive.pop(sample.GC, None)
        timed = inclusive["sample._timed"]
        assert timed == max(inclusive.values())
        if gc_share is None:  # under LEAST_PCT, so not printed
            assert 100 - sample.LEAST_PCT - 0.005 < timed <= 100
        else:
            assert timed + gc_share == pytest.approx(100, abs=0.01 + 1e-9)
