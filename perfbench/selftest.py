"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

* every workload runs at minimal length, exits 0 and reports correct;
* the last stdout line has exactly the keys correct, attempted, failed and
  metrics, and its metrics are exactly the end-to-end metrics (--trace 0) or
  the per-layer metrics (--trace 1) named in BENCHMARK.json, with their units;
* a corrupted reference makes the output check fail (exit 1, correct false);
* in a directory holding only BENCHMARK.json and the benchmark's files the
  command exits non-zero without printing a result.

Takes about three minutes, most of it in the `analyze` workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def run(args: list[str], cwd: str = ROOT, timeout: float = 180):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + args, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except ValueError:
        last = None
    return proc, last


def bench_args(workload: str, trace: int, *extra: str) -> list[str]:
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--out",
            os.path.join(ROOT, ".perfbench", "selftest", f"{workload}-{trace}.json"),
            *extra]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(cond: bool, what: str):
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            proc, last = run(bench_args(w, trace))
            tag = f"{w} --trace {trace}"
            check(proc.returncode == 0, f"{tag}: exit code {proc.returncode}")
            if last is None:
                check(False, f"{tag}: last line is a JSON object")
                continue
            check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys {sorted(last)}")
            check(last.get("correct") is True, f"{tag}: correct")
            check(isinstance(last.get("attempted"), int)
                  and last["attempted"] >= 1
                  and isinstance(last.get("failed"), int),
                  f"{tag}: attempted/failed are whole numbers")
            got = {k: v.get("unit") for k, v in last["metrics"].items()}
            check(got == expected[trace],
                  f"{tag}: metrics match BENCHMARK.json "
                  f"(missing {sorted(set(expected[trace]) - set(got))}, "
                  f"extra {sorted(set(got) - set(expected[trace]))})")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in last["metrics"].values()),
                  f"{tag}: every value is a number")

    # the ungated census must report its failures without aborting
    proc, last = run(bench_args("sheared", 0))
    check(proc.returncode == 0 and last is not None and last["correct"],
          f"sheared: runs to the end and reports {last and last['failed']} "
          f"failures of {last and last['attempted']}")

    # a corrupted reference must make the output check fail
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bad = tempfile.mkdtemp(prefix="badref-", dir=scratch)
    try:
        ref = os.path.join(bad, "reference")
        shutil.copytree(os.path.join(HERE, "reference"), ref)
        for rel in ("table2.txt", "analyze/6b.json", "mutations/4c.txt"):
            with open(os.path.join(ref, rel), "a") as fh:
                fh.write(" ")
        for w in workloads:
            proc, last = run(bench_args(w, 0, "--reference", ref))
            check(proc.returncode == 1 and last is not None
                  and last["correct"] is False,
                  f"{w}: corrupted reference is caught "
                  f"(exit {proc.returncode})")
    finally:
        shutil.rmtree(bad, ignore_errors=True)

    # without the program's sources the command must fail, printing nothing
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, last = run(bench_args(workloads[0], 0), cwd=bare)
        check(proc.returncode != 0 and last is None,
              f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
