"""The benchmark's workloads: which user-level calls make one pass, and how
each output is checked against the stored reference.

An op is one user-level call.  ``Op.call`` runs it and returns its output;
``Op.check`` returns None when the output is right and a one-line reason
when it is not.  A workload's ``pass_ops`` draws the ops of one pass from
the seeded generator; ``check_pass`` runs the checks that need a whole pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Unimodular maps of the `sheared` family: elementary shears with |k| <= 2.
SHEARS = tuple(((1, k), (0, 1)) for k in (-2, -1, 1, 2)) + tuple(
    ((1, 0), (k, 1)) for k in (-2, -1, 1, 2)
)


@dataclass
class Op:
    label: str
    call: object
    check: object
    info: dict = field(default_factory=dict)


class Reference:
    """The stored outputs of the seed commit, read from a reference directory
    (see make_reference.py for how it is produced)."""

    def __init__(self, root: str = REFERENCE_DIR):
        self.root = root

    def text(self, *parts: str) -> str:
        with open(os.path.join(self.root, *parts), encoding="utf-8") as fh:
            return fh.read()

    def json(self, *parts: str):
        return json.loads(self.text(*parts))


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """`reflexo ARGV` in process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def expect_text(expected: str):
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if text != expected:
            return "output differs from the stored reference"
        return None
    return check


class Workload:
    name = ""
    # Seconds one pass took at the seed commit on a shared 2-vCPU Xeon.  It
    # only turns --seconds into a pass count: the count is fixed by
    # --seconds, whatever the speed of the commit or machine under test.
    nominal_pass_s = 1.0
    deadline_s = 60.0
    tolerates_failures = False  # True only for the sheared census

    def __init__(self, prog, ref: Reference, rng: random.Random, workdir: str):
        self.prog = prog
        self.ref = ref
        self.rng = rng
        self.workdir = workdir

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds / self.nominal_pass_s))

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def check_pass(self, ops: list[Op], outputs: list) -> list[str]:
        return []


class Table2(Workload):
    name = "table2"
    nominal_pass_s = 0.75

    def __init__(self, *a):
        super().__init__(*a)
        self.expected = self.ref.text("table2.txt")

    def pass_ops(self):
        # one worker: with the default pool of four, GIL hand-offs between
        # the two cores make the op's time follow the scheduler
        cli = self.prog.cli
        return [Op("table2 --check --jobs 1",
                   lambda: run_cli(cli, ["table2", "--check", "--jobs", "1"]),
                   expect_text(self.expected))]


def p3_period(m: int) -> int:
    """Closed form of the P3 period: (3j)!/(j!)^3 at m = 3j, else 0."""
    if m % 3:
        return 0
    j = m // 3
    return factorial(3 * j) // factorial(j) ** 3


class Analyze(Workload):
    name = "analyze"
    nominal_pass_s = 25.0
    deadline_s = 120.0

    def __init__(self, *a):
        super().__init__(*a)
        self.names = self.ref.json("names.json")
        self.reports = {n: self.ref.text("analyze", f"{n}.json")
                        for n in self.names}
        self.classes = [line.split(",") for line in
                        self.ref.text("classes.txt").splitlines()]

    def pass_ops(self):
        order = list(self.names)
        self.rng.shuffle(order)
        return [self._op(n) for n in order]

    def _op(self, name: str) -> Op:
        cli = self.prog.cli
        expected = self.reports[name]
        # a fresh, empty cache directory for every op: always cold
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

        def call():
            old = os.environ.get("REFLEXO_CACHE")
            os.environ["REFLEXO_CACHE"] = cache
            try:
                return run_cli(cli, ["analyze", name])
            finally:
                if old is None:
                    del os.environ["REFLEXO_CACHE"]
                else:
                    os.environ["REFLEXO_CACHE"] = old

        def check(out):
            err = expect_text(expected)(out)
            if err:
                return err
            if name == "3":
                period = json.loads(out[1])["period"]
                for m, c in enumerate(period):
                    if Fraction(c) != p3_period(m):
                        return f"P3 period c_{m} = {c} != (3j)!/(j!)^3"
            return None

        return Op(f"analyze {name}", call, check, {"polygon": name})

    def cleanup(self):
        for entry in os.listdir(self.workdir):
            if entry.startswith("cache-"):
                shutil.rmtree(os.path.join(self.workdir, entry),
                              ignore_errors=True)

    def check_pass(self, ops, outputs):
        self.cleanup()
        reports = {}
        for op, out in zip(ops, outputs):
            if out is not None and out[0] == 0:
                try:
                    reports[op.info["polygon"]] = json.loads(out[1])
                except ValueError:
                    pass
        errors = []
        for cls in self.classes:
            got = [reports[n] for n in cls if n in reports]
            for key in ("period", "picard_fuchs"):
                if len({json.dumps(r.get(key)) for r in got}) > 1:
                    errors.append(
                        f"{key} differs within mutation class {','.join(cls)}")
        return errors


class Geometry(Workload):
    name = "geometry"
    nominal_pass_s = 1.8

    def __init__(self, *a):
        super().__init__(*a)
        self.names = self.ref.json("names.json")
        self.volumes = sorted(self.ref.json("volumes.json"))
        self.catalog = self.ref.text("catalog.txt")
        self.classes = self.ref.text("classes.txt")
        self.mutations = {n: self.ref.text("mutations", f"{n}.txt")
                          for n in self.names}

    def check_enumeration(self, polys):
        if len(polys) != len(self.volumes):
            return f"{len(polys)} classes, expected {len(self.volumes)}"
        if sorted(P.volume() for P in polys) != self.volumes:
            return "volume multiset differs"
        return None

    def pass_ops(self):
        prog = self.prog
        ops = [
            Op("enumerate_reflexive(3)",
               lambda: prog.polygon.enumerate_reflexive(3),
               self.check_enumeration),
            Op("catalog", lambda: run_cli(prog.cli, ["catalog"]),
               expect_text(self.catalog)),
            Op("classes", lambda: run_cli(prog.cli, ["classes"]),
               expect_text(self.classes)),
        ]
        for n in self.names:
            ops.append(Op(f"mutations {n}",
                          lambda n=n: run_cli(prog.cli, ["mutations", n]),
                          expect_text(self.mutations[n])))
        self.rng.shuffle(ops)
        return ops


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


class Sheared(Workload):
    """Census of catalog polygons under seeded unimodular maps.

    Not one of the gated workloads: at the seed commit a large share of these
    inputs raise or run past the deadline (fibre classification depends on
    coordinates), and a gated workload must not fail.  It is run by name and
    reports every failure with its polygon and matrix.
    """

    name = "sheared"
    nominal_pass_s = 20.0
    deadline_s = 5.0
    tolerates_failures = True

    def __init__(self, *a):
        super().__init__(*a)
        self.names = self.ref.json("names.json")
        self.expected = self.ref.json("expected_table2.json")
        self.draws: list[dict] = []  # every drawn input, in draw order

    def draw(self):
        U = self.rng.choice(SHEARS)
        if self.rng.random() < 0.5:
            U = matmul(self.rng.choice(SHEARS), U)
        return U

    def pass_ops(self):
        prog = self.prog
        ops = []
        for n in self.names:
            U = self.draw()
            P = prog.polygon.apply_unimodular(U, prog.catalog.get(n))
            fibres, group = self.expected[n]
            info = {"polygon": n, "matrix": [list(r) for r in U]}
            self.draws.append(info)

            def call(P=P):
                config = prog.fibration.classify_fibres(P)
                return config, prog.mordell_weil.mw_group(P, config)

            def check(out, fibres=fibres, group=group):
                config, mw = out
                if list(config.type_multiset()) != fibres or mw.group != group:
                    return (f"got {list(config.type_multiset())} {mw.group}, "
                            f"expected {fibres} {group}")
                if config.chi_total() != 12:
                    return f"sum chi = {config.chi_total()}"
                if mw.rank + config.r_total() != 8:
                    return f"rank + sum r = {mw.rank + config.r_total()}"
                return None

            ops.append(Op(f"sheared {n}", call, check, info))
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Table2, Analyze, Geometry, Sheared)}
