"""reflexo benchmark: run one named workload, check every output, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see workloads.py): ``table2``, ``analyze``, ``geometry`` and the
ungated ``sheared`` census.  One pass runs every op of the workload once, in
an order drawn from the seed.  The number of passes depends only on
``--seconds`` and the workload (``Workload.passes``), never on how fast the
passes run, so two commits measured with the same ``--seconds`` time the
same number of ops.  Ops run serially in this process.

The time metrics are host-normalised: a fixed kernel (hostspeed.py) is
timed before the first op of a pass and after every op that ends at least
PROBE_GAP_S after the last probe, and sampled inside untraced ops every
0.1 s of CPU time.  Each op time, less its samples, is divided by the
median slowness of the probes on either side of it and its own samples;
set-ups are probed the same way.  The raw times and slownesses go to the
results file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the run makes half its passes untraced and half traced (at
least one each) and the last line carries the per-layer metrics.  A JSON results file with the
environment, every failure and the per-function trace is written to
``--out`` (default ``.perfbench/results/``).  Exit code 0 when every output
checked out, 1 when one did not, 2 when the checkout has no ``src/reflexo``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from time import perf_counter

from hostspeed import NOMINAL_S, Sampler, slowness
from program import Program, SourceMissing, source_dir
from tracer import Tracer
from workloads import REFERENCE_DIR, WORKLOADS, Reference

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 11  # set-ups per run; setup_s is their median
PROBE_GAP_S = 0.1  # ops shorter than this share host-speed probes


class Deadline(BaseException):
    """Raised by SIGALRM in the op that overran its deadline.  A BaseException
    so that the program's own `except Exception` handlers do not absorb it."""


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


class Phase:
    """Everything one measuring phase (untraced or traced) recorded.

    ``pass_s`` and ``op_s`` are host-normalised: each op time divided by
    the median slowness (hostspeed.py) of the probes just before and just
    after it and of its own samples.  The raw pass times and the median
    probed slowness of each pass are kept beside them."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.slowness: list[float] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.pass_errors: list[str] = []

    def wrong(self) -> int:
        return sum(f["kind"] == "wrong answer" for f in self.failures)


def run_op(op, deadline: float, tracer: Tracer | None,
           sampler: Sampler | None):
    """(status, output, seconds, detail, slowness samples).  status is "ok",
    "raised", "deadline" or "wrong answer"; a failed op counts at the time
    it took.  The seconds exclude the sampler's kernel runs."""
    detail = None
    out = None
    if tracer is not None:
        tracer.enabled = True
    if sampler is not None:
        sampler.arm()
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except Deadline:
        status, detail = "deadline", f"over {deadline:g} s"
    except Exception as exc:  # the op failed; record it and go on
        status, detail = "raised", f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    inside = []
    if sampler is not None:
        sampler.disarm()
        inside = [s for s in sampler.samples if t0 <= s[0] < t1]
    dt = t1 - t0 - sum(s[1] for s in inside)
    if tracer is not None:
        tracer.enabled = False
    if status == "ok":
        try:
            detail = op.check(out)
        except Exception as exc:  # output of an unexpected shape
            detail = f"check raised {type(exc).__name__}: {exc}"
        if detail is not None:
            status = "wrong answer"
    return status, out, dt, detail, [s[1] / NOMINAL_S for s in inside]


def time_setups(root: str, src: str) -> tuple[list[float], list[float]]:
    """(wall times, slowness probes) of SETUPS fresh interpreters that each
    start, import every reflexo module from ``src``, load the catalog and
    exit (program.py).  The host is probed before every set-up and after
    the last."""
    times, probes = [], [slowness()]
    for _ in range(SETUPS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "program.py"), src], cwd=root,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(perf_counter() - t0)
        probes.append(slowness())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
    return times, probes


def measure(workload, passes: int, tracer: Tracer | None = None) -> Phase:
    """Run ``passes`` passes; ops are sampled inside only when untraced,
    since a sample would count in the traced spans."""
    ph = Phase()
    sampler = Sampler() if tracer is None else None
    for _ in range(passes):
        ops = workload.pass_ops()
        outputs = []
        times = []
        inside = []
        normed = []
        probes = [slowness()]
        probed = perf_counter()
        for k, op in enumerate(ops):
            status, out, dt, detail, samples = run_op(
                op, workload.deadline_s, tracer, sampler)
            times.append(dt)
            inside.append(samples)
            if perf_counter() - probed >= PROBE_GAP_S or k == len(ops) - 1:
                probes.append(slowness())
                probed = perf_counter()
                normed += [normalise(t, [*probes[-2:], *s]) for t, s in
                           zip(times[len(normed):], inside[len(normed):])]
            ph.attempted += 1
            outputs.append(out if status == "ok" else None)
            if status != "ok":
                ph.failures.append({"op": op.label, **op.info,
                                    "kind": status, "detail": detail,
                                    "seconds": dt})
        ph.pass_errors += workload.check_pass(ops, outputs)
        ph.slowness.append(statistics.median(probes))
        ph.raw_pass_s.append(sum(times))
        ph.pass_s.append(sum(normed))
        ph.op_s += normed
    return ph


def normalise(t: float, slownesses: list[float]) -> float:
    """A raw time divided by the median slowness measured around it."""
    return t / statistics.median(slownesses)


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(xs: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile with
    at least ten samples beyond it.  When that percentile would be p50 or
    lower (fewer than 21 samples) it is no tail, and the maximum is
    reported instead."""
    s = sorted(xs)
    n = len(s)
    if 2 * (n - 10) <= n:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(ph: Phase, setups: list[float],
               setup_probes: list[float]) -> tuple[dict, list[str]]:
    q1, wall, q3 = quartiles(ph.pass_s)
    setup_slow = statistics.median(setup_probes)
    setup = statistics.median(normalise(t, setup_probes[i:i + 2])
                              for i, t in enumerate(setups))
    t, pct, beyond = tail(ph.op_s)
    n = len(ph.op_s)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(ph.failures)
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "op_ms.p50": (1000.0 * statistics.median(ph.op_s), "ms"),
        "op_ms.tail": (1000.0 * t, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                   f"{statistics.median(setups):.4f} s at slowness "
                   f"{setup_slow:.3f}",
        "wall_s": f"q1 {q1:.4f}, q3 {q3:.4f}; {len(ph.pass_s)} passes; raw "
                  f"{statistics.median(ph.raw_pass_s):.4f} s at slowness "
                  f"{statistics.median(ph.slowness):.3f}",
        "op_ms.p50": f"n={n}",
        "op_ms.tail": f"p{pct:.1f}, n={n}, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"  {k:<13}= {v:.6g} {u}  ({notes[k]})"
             for k, (v, u) in metrics.items()]
    lines.insert(4, f"  {'failed_ratio':<13}= {failed / ph.attempted:.6g}"
                    f"  ({failed}/{ph.attempted} ops failed)")
    return metrics, lines


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------

# (metric, unit, function whose span it reads, field) for span metrics
SPAN_METRICS = [
    ("period.period_coefficients.s", "s", "period.period_coefficients", 1),
    ("period.find_picard_fuchs.s", "s", "period.find_picard_fuchs", 1),
    ("fibration.classify_fibres.s", "s", "fibration.classify_fibres", 1),
    ("fibration.singular_lambda_values.s", "s",
     "fibration.singular_lambda_values", 1),
    ("fibration.member_is_nonreduced.s", "s", "fibration.member_is_nonreduced", 1),
    ("fibration.base_point_towers.s", "s", "fibration.base_point_towers", 1),
    ("fibration.elimination_polynomial.s", "s",
     "fibration.elimination_polynomial", 1),
    ("fibration.elimination_polynomial.calls", "count",
     "fibration.elimination_polynomial", 0),
    ("algebra.resultant.s", "s", "algebra.resultant", 1),
    ("algebra.resultant.calls", "count", "algebra.resultant", 0),
    ("algebra.gcd_bivariate.s", "s", "algebra.gcd_bivariate", 1),
    ("algebra.gcd_bivariate.calls", "count", "algebra.gcd_bivariate", 0),
    ("algebra.gcd_over_quotient.s", "s", "algebra.gcd_over_quotient", 1),
    ("algebra.gcd_over_quotient.calls", "count", "algebra.gcd_over_quotient", 0),
    ("algebra.squarefree_rational_roots.s", "s",
     "algebra.squarefree_rational_roots", 1),
    ("laurent.build_fP.calls", "count", "laurent.build_fP", 0),
    ("laurent.cleared_member.calls", "count", "laurent.cleared_member", 0),
    ("mordell_weil.mw_group.s", "s", "mordell_weil.mw_group", 1),
    ("polygon.enumerate_reflexive.s", "s", "polygon.enumerate_reflexive", 1),
    ("polygon.canonical_form.s", "s", "polygon.canonical_form", 1),
    ("polygon.canonical_form.calls", "count", "polygon.canonical_form", 0),
    ("mutation.all_mutations.s", "s", "mutation.all_mutations", 1),
    ("mutation.mutation_classes.s", "s", "mutation.mutation_classes", 1),
    ("mutation.mutation_classes.calls", "count", "mutation.mutation_classes", 0),
    ("cli.build_report.s", "s", "cli.build_report", 1),
]

# (metric, unit, function whose results it reads)
SIZE_METRICS = [
    ("period.coeff_bits.max", "bits", "period.period_coefficients"),
    ("period.pf_order", "count", "period.find_picard_fuchs"),
    ("period.pf_degree.max", "count", "period.find_picard_fuchs"),
    ("fibration.elim_degree.max", "count", "fibration.elimination_polynomial"),
    ("fibration.elim_bits.max", "bits", "fibration.elimination_polynomial"),
    ("fibration.certified_ratio", "ratio", "fibration.singular_lambda_values"),
]


def _bits(x) -> int:
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _poly_rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def squarefree_degree(coeffs: list) -> int:
    """deg p - deg gcd(p, p') over Q, coefficients listed from degree 0."""
    a = [Fraction(c) for c in coeffs]
    b = [i * c for i, c in enumerate(a)][1:]
    while b and b[-1] == 0:
        b.pop()
    if not b:
        return 0
    while b:
        a, b = b, _poly_rem(a, b)
    return (len(coeffs) - 1) - (len(a) - 1)


class SizeObserver:
    """Keeps the arguments and results the size counters need and reads them
    after the run: nothing is analysed inside a traced span, and a result
    whose shape changed at some commit marks its counters absent instead of
    failing the op."""

    def __init__(self, tracer: Tracer):
        self.calls: dict[str, list] = {q: [] for _, _, q in SIZE_METRICS}
        for qual, seen in self.calls.items():
            tracer.observers[qual] = (
                lambda a, k, r, seen=seen: seen.append((a[0] if a else None, r)))

    def values(self) -> tuple[dict, list[str]]:
        out, unreadable = {}, []
        for name, _, qual in SIZE_METRICS:
            try:
                out[name] = getattr(self, "_" + name.replace(".", "_"))(
                    self.calls[qual])
            except (AttributeError, TypeError, ValueError, IndexError):
                out[name], unreadable = 0, unreadable + [name]
        return out, unreadable

    @staticmethod
    def _period_coeff_bits_max(calls):
        return max((_bits(c) for _, s in calls for c in s.coefficients),
                   default=0)

    @staticmethod
    def _period_pf_order(calls):
        return max((len(L.polys) - 1 for _, L in calls), default=0)

    @staticmethod
    def _period_pf_degree_max(calls):
        return max((p.degree for _, L in calls for p in L.polys
                    if not p.is_zero()), default=0)

    @staticmethod
    def _elims(calls) -> dict:
        return {tuple(P.vertices): e for P, e in calls}

    def _fibration_elim_degree_max(self, calls):
        return max((e.degree for e in self._elims(calls).values()), default=0)

    def _fibration_elim_bits_max(self, calls):
        return max((_bits(c) for e in self._elims(calls).values()
                    for c in e.coeffs), default=0)

    def _fibration_certified_ratio(self, calls):
        elims = self._elims(self.calls["fibration.elimination_polynomial"])
        sqf = {k: squarefree_degree(e.coeffs) for k, e in elims.items()}
        cert = base = 0
        for P, values in calls:
            k = tuple(P.vertices)
            if k in sqf:
                cert += sum(v.degree for v in values)
                base += sqf[k]
        return cert / base if base else 0.0


def per_layer(tracer: Tracer, sizes: SizeObserver, traced: Phase,
              untraced: Phase) -> tuple[dict, list[str], list[str]]:
    passes = len(traced.pass_s)
    absent = []
    metrics = {}
    for name, unit, qual, field in SPAN_METRICS:
        if not tracer.has(qual):
            absent.append(name)
            metrics[name] = (0, unit)
            continue
        metrics[name] = (tracer.stats[qual][field] / passes, unit)
    size_values, unreadable = sizes.values()
    for name, unit, qual in SIZE_METRICS:
        if not tracer.has(qual) or name in unreadable:
            absent.append(name)
        metrics[name] = (size_values[name], unit)
    overhead = (statistics.median(traced.pass_s)
                / statistics.median(untraced.pass_s) - 1.0)
    metrics["trace.overhead"] = (overhead, "ratio")
    lines = [f"  {k:<40}= {v:.6g} {u}" + ("  (absent)" if k in absent else "")
             for k, (v, u) in metrics.items()]
    lines.append(
        f"  tracing overhead: traced pass {statistics.median(traced.pass_s):.4f}"
        f" s against untraced {statistics.median(untraced.pass_s):.4f} s"
        " (host-normalised; values per traced pass)")
    return metrics, lines, absent


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's git repository, read from .git without running
    git; None when the checkout is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="reflexo benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file (default: .perfbench/results/"
                                  "WORKLOAD-seedN-traceT.json)")
    ap.add_argument("--reference", default=REFERENCE_DIR,
                    help="reference directory (default: perfbench/reference)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        src = source_dir(root)
    except SourceMissing as exc:
        print(f"perfbench: {exc}; run from the root of a reflexo checkout",
              file=sys.stderr)
        return 2

    setups, setup_probes = time_setups(root, src)
    prog = Program(src)

    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=scratch)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        workload = WORKLOADS[args.workload](
            prog, Reference(args.reference), random.Random(args.seed), workdir)
        passes = workload.passes(args.seconds)
        if args.trace:
            half = max(1, passes // 2)
            untraced = measure(workload, half)
            tracer = Tracer()
            tracer.install()
            sizes = SizeObserver(tracer)
            try:
                traced = measure(workload, half, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            metrics, lines, absent = per_layer(tracer, sizes, traced, untraced)
        else:
            phases = [measure(workload, passes)]
            metrics, lines = end_to_end(phases[0], setups, setup_probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    pass_errors = [e for p in phases for e in p.pass_errors]
    wrong = sum(p.wrong() for p in phases)
    if workload.tolerates_failures:
        correct = wrong == 0 and not pass_errors
    else:
        correct = not failures and not pass_errors

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    for line in lines:
        print(line)
    kinds: dict[str, int] = {}
    for f in failures:
        key = f["kind"] if f["kind"] != "raised" else f["detail"]
        kinds[key] = kinds.get(key, 0) + 1
    for key, count in sorted(kinds.items(), key=lambda kv: -kv[1]):
        print(f"  failures: {count} x {key}")
    for e in pass_errors:
        print(f"  check failed: {e}")

    result = {
        "environment": environment(root, args),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failure_kinds": kinds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_runs_s": setups,
        "setup_slowness": setup_probes,
        "phases": [{"traced": bool(args.trace and i == 1),
                    "pass_s": p.pass_s, "op_s": p.op_s,
                    "raw_pass_s": p.raw_pass_s, "slowness": p.slowness,
                    "attempted": p.attempted} for i, p in enumerate(phases)],
        "failures": failures,
        "pass_errors": pass_errors,
    }
    if args.workload == "sheared":
        result["draws"] = workload.draws
    if args.trace:
        result["absent"] = absent
        result["functions"] = {
            q: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
            for q, s in sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])
        }
    out = args.out or os.path.join(
        scratch, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"  results: {os.path.relpath(out, root)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
