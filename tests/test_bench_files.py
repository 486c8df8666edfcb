"""The benchmark trajectories kept at the root of the repo.

Each ``BENCH_<workload>.json`` holds one entry per change whose speed was
measured with ``perfbench/run.py`` on that workload: the commit it was
measured against (``parent``) and the commit measured (``commit``, null in
an entry written before its own commit existed, which only the newest entry
of a file may be), the Python version, the host slowness of each side, and
the median and interquartile range ``[q1, q3]`` of every end-to-end metric
of ``BENCHMARK.json`` on both sides.  An entry copied from the prose of
CHANGES.md is marked ``transcribed`` and may leave what that prose does not
give null: host slowness, an IQR, or a metric's median.

``BENCH_tier1.json`` holds the same pairs for the tier-1 test suite, timed
as a whole: each side's wall times, the tests it passed, and the slowest
tests that ``pytest --durations`` lists.
"""

import json
import re
import statistics
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
TIER1 = ROOT / "BENCH_tier1.json"
FILES = sorted(p for p in ROOT.glob("BENCH_*.json") if p != TIER1)
METRICS = [m["name"] for m in
           json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
           ["end_to_end"]]
SIDES = ("parent", "change")
HASH = re.compile(r"[0-9a-f]{40}")


def _number(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)


def test_files_found():
    # [TRIVIAL] the parametrisation below is not vacuous
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_entries_have_every_field(path):
    # [TRIVIAL] the file parses; every entry names both commits, Python,
    # host slowness and each end-to-end metric's median and IQR per side;
    # only the newest entry may still wait for its commit
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["workload"] == path.stem.removeprefix("BENCH_")
    assert data["entries"]
    for entry in data["entries"]:
        loose = entry["transcribed"]
        assert loose in (True, False)
        assert HASH.fullmatch(entry["parent"])
        if entry["commit"] is None:
            assert entry is data["entries"][-1]
        else:
            assert HASH.fullmatch(entry["commit"])
        assert isinstance(entry["python"], str)
        assert set(entry["host_slowness"]) == set(SIDES)
        assert set(entry["metrics"]) == set(METRICS)
        for side in SIDES:
            slowness = entry["host_slowness"][side]
            assert _number(slowness) or loose and slowness is None
            for name in METRICS:
                value = entry["metrics"][name][side]
                if value["median"] is None:
                    assert loose and value["iqr"] is None
                    continue
                assert _number(value["median"])
                iqr = value["iqr"]
                if iqr is None:
                    assert loose
                    continue
                q1, q3 = iqr
                assert q1 <= value["median"] <= q3


def test_tier1_entries_have_every_field():
    # [TRIVIAL] the tier-1 file parses; every entry names both commits and
    # Python, and gives per side the wall time of each run with their
    # median and IQR, the tests passed, and up to ten slowest tests as
    # [seconds, phase, test id], slowest first; only the newest entry may
    # still wait for its commit
    data = json.loads(TIER1.read_text(encoding="utf-8"))
    assert data["workload"] == "tier1"
    assert data["entries"]
    for entry in data["entries"]:
        assert HASH.fullmatch(entry["parent"])
        if entry["commit"] is None:
            assert entry is data["entries"][-1]
        else:
            assert HASH.fullmatch(entry["commit"])
        assert isinstance(entry["python"], str)
        for side in SIDES:
            wall = entry["wall_s"][side]
            runs = wall["runs"]
            assert len(runs) == entry["runs"] and all(map(_number, runs))
            assert wall["median"] == statistics.median(runs)
            q1, q3 = wall["iqr"]
            assert q1 <= wall["median"] <= q3
            assert isinstance(entry["passed"][side], int)
            slowest = entry["slowest"][side]
            assert 0 < len(slowest) <= 10
            for seconds, phase, test in slowest:
                assert _number(seconds) and phase in ("setup", "call",
                                                      "teardown")
                assert test.startswith("tests/")
            times = [row[0] for row in slowest]
            assert times == sorted(times, reverse=True)
