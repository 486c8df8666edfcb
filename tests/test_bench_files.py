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
"""

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
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
