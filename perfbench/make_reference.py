"""Produce the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py           # compare, write nothing
    python3 perfbench/make_reference.py --write   # overwrite reference/

Run from the root of a checkout.  Without ``--write`` it recomputes every
reference output from ``src/`` and lists the files that would change (exit 1
if any would).  The stored reference is the seed commit's output; rewrite it
only when a change to the program's output is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from program import Program, source_dir
from workloads import REFERENCE_DIR, run_cli


def compute(prog: Program) -> dict[str, str]:
    cli = prog.cli
    names = list(prog.catalog.NAMES)
    files = {
        "names.json": json.dumps(names) + "\n",
        "volumes.json": json.dumps(
            [prog.catalog.get(n).volume() for n in names]) + "\n",
        "expected_table2.json": json.dumps(
            {n: [list(f), g] for n, (f, g) in cli.EXPECTED_TABLE2.items()},
            indent=1) + "\n",
    }
    for key, argv in (("catalog.txt", ["catalog"]),
                      ("classes.txt", ["classes"]),
                      ("table2.txt", ["table2", "--check"])):
        rc, files[key] = run_cli(cli, argv)
        if rc != 0:
            raise SystemExit(f"reflexo {' '.join(argv)} exited {rc}")
    for n in names:
        rc, files[f"mutations/{n}.txt"] = run_cli(cli, ["mutations", n])
        if rc != 0:
            raise SystemExit(f"reflexo mutations {n} exited {rc}")
    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as cache:
        os.environ["REFLEXO_CACHE"] = cache
        for n in names:
            rc, files[f"analyze/{n}.json"] = run_cli(cli, ["analyze", n])
            if rc != 0:
                raise SystemExit(f"reflexo analyze {n} exited {rc}")
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="overwrite the stored reference files")
    args = ap.parse_args(argv)
    files = compute(Program(source_dir(os.getcwd())))
    changed = []
    for rel, text in sorted(files.items()):
        path = os.path.join(REFERENCE_DIR, rel)
        try:
            with open(path, encoding="utf-8") as fh:
                same = fh.read() == text
        except FileNotFoundError:
            same = False
        if same:
            continue
        changed.append(rel)
        if args.write:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    verb = "wrote" if args.write else "would change"
    for rel in changed:
        print(f"{verb}: {rel}")
    print(f"{len(files)} reference files, {len(changed)} {verb}")
    return 1 if changed and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
