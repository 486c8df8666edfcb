"""Command-line front end: catalog listing, the full per-polygon analysis
report (JSON, cached), the summary table with regression checking, period /
Picard-Fuchs printing, mutation exploration, and SVG diagrams.

Exit codes: 0 success, 1 check failure, 2 usage error, 141 stdout closed
by its reader.  The cache directory is ~/.cache/reflexo unless
REFLEXO_CACHE overrides it; cache writes are atomic
(write-temp-then-rename) and keyed by polygon, config, version and a digest
of the package's sources and polygon data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache
from itertools import groupby

from . import __version__ as VERSION
from .algebra import UniPoly, format_unipoly, squarefree_rational_roots
from .catalog import NAMES, dual_name, get, load_catalog, name_of
from .fibration import (
    FibreConfiguration,
    Pencil,
    classify_fibres,
    elimination_polynomial,
    format_location,
)
from .laurent import build_fP
from .mordell_weil import mw_group
from .mutation import all_mutations, mutation_class, mutation_classes
from .period import DiffOperator, find_picard_fuchs, period_coefficients
from .polygon import Polygon, polar_dual

# Expected summary table: name -> (sorted fibre label multiset, MW group).
EXPECTED_TABLE2 = {
    "3": (("I1", "I1", "I1", "I9"), "Z/3"),
    "4a": (("I1", "I1", "I2", "I8"), "Z/4"),
    "4b": (("I1", "I1", "I1", "I1", "I8"), "Z"),
    "4c": (("I1", "I1", "I2", "I8"), "Z/4"),
    "5a": (("I1", "I1", "I1", "I2", "I7"), "Z"),
    "5b": (("I1", "I1", "I1", "I2", "I7"), "Z"),
    "6a": (("I1", "I2", "I3", "I6"), "Z/6"),
    "6b": (("I1", "I2", "I3", "I6"), "Z/6"),
    "6c": (("I1", "I2", "I3", "I6"), "Z/6"),
    "6d": (("I1", "I2", "I3", "I6"), "Z/6"),
    "7a": (("I1", "I1", "I5", "I5"), "Z/5"),
    "7b": (("I1", "I1", "I5", "I5"), "Z/5"),
    "8a": (("I1", "I1*", "I4"), "Z/4"),
    "8b": (("I1", "I1*", "I4"), "Z/4"),
    "8c": (("I1", "I1*", "I4"), "Z/4"),
    "9": (("I1", "I3", "IV*"), "Z/3"),
}


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _compact(loc) -> str:
    """A fibre location or a factor UniPoly as text without spaces."""
    return format_location(loc).replace(" ", "")


def _fibre_display(config: FibreConfiguration) -> str:
    """Human form: the infinity fibre first, finite fibres by descending
    Euler number, equal labels grouped as "k x I_n"."""
    fibres = config.fibres()
    labels = [t.label() for loc, t in fibres if loc == "infinity"]
    finite = sorted((-t.chi, t.label()) for loc, t in fibres
                    if loc != "infinity")
    labels.extend(l for _, l in finite)
    runs = [(l, len(list(run))) for l, run in groupby(labels)]
    return ", ".join(l if k == 1 else f"{k}x{l}" for l, k in runs)


def _group_display(group: str) -> str:
    """Z/3 -> Z/3Z for the human table."""
    return group + "Z" if group.startswith("Z/") else group


def _fibres_json(config: FibreConfiguration) -> list[dict]:
    out = []
    for loc, t, c in config.entries:
        where = _compact(loc)
        if isinstance(loc, UniPoly):
            where = {"factor": where}
        entry = {"where": where, "type": t.label()}
        if c > 1:
            entry["count"] = c
        out.append(entry)
    return out


def _operator_forms(L: DiffOperator) -> dict:
    dual = []
    for j, q in enumerate(L.dual_form()):
        if q.is_zero():
            continue
        tj = "" if j == 0 else ("t*" if j == 1 else f"t^{j}*")
        dual.append(f"{tj}({format_unipoly(q)})")
    return {"t_form": str(L), "D_form": " + ".join(dual)}


# ---------------------------------------------------------------------------
# analysis report
# ---------------------------------------------------------------------------


def _class_names() -> list[list[str]]:
    cat = load_catalog()
    order = [cat[n] for n in NAMES]
    return [
        sorted(NAMES[i] for i in cls) for cls in mutation_classes(order)
    ]


class _FitError(ValueError):
    """No Picard-Fuchs operator fits the requested period series."""


def build_report(name: str, period_n: int = 40, with_pf: bool = True) -> dict:
    P = get(name)
    pencil = Pencil(P)
    config = classify_fibres(P, pencil)
    mw = mw_group(P, config)
    roots, residual = squarefree_rational_roots(
        elimination_polynomial(P, pencil))
    factors = [
        {"factor": _compact(UniPoly([-r, 1], "l")), "multiplicity": m}
        for r, m in roots
    ] + [{"factor": _compact(q), "multiplicity": m} for q, m in residual]
    series = period_coefficients(pencil.f, period_n)
    report = {
        "polygon": name,
        "vertices": [list(v) for v in P.vertices],
        "volume": P.volume(),
        "dual": dual_name(name),
        "mutation_class": sorted(name_of(Q) for Q in mutation_class(P)),
        "fibres": _fibres_json(config),
        "mw": {
            "rank": mw.rank,
            "torsion": mw.torsion_order,
            "group": mw.group,
            "detT": mw.det_trivial,
            "positions": mw.positions,
        },
        "elimination_factors": factors,
        "period": [str(c) for c in series.coefficients],
    }
    if mw.height is not None:
        report["mw"]["height_matrix"] = [
            [str(x) for x in row] for row in mw.height
        ]
    if with_pf:
        try:
            L = find_picard_fuchs(series)
        except ValueError as e:
            raise _FitError(str(e)) from e
        report["picard_fuchs"] = _operator_forms(L)
    return report


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _cache_dir() -> str:
    return os.environ.get(
        "REFLEXO_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "reflexo"),
    )


@cache
def _source_digest() -> str:
    """sha256 over the package's modules and polygons.json, so that a change
    to the algorithm or the data never serves an old report."""
    h = hashlib.sha256()
    package = os.path.dirname(__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") or name == "polygons.json":
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0")
                h.update(fh.read())
    return h.hexdigest()


def _cache_key(name: str, config: dict) -> str:
    blob = json.dumps({"name": name, "config": config, "version": VERSION,
                       "source": _source_digest()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _cached_report(name: str, period_n: int, with_pf: bool) -> str:
    """The report as JSON text, served from the cache when its entry parses
    as a JSON object that is a report of this request: its "polygon" is
    name, its "period" has period_n + 1 entries, and it has "picard_fuchs"
    exactly when with_pf.  Otherwise it is computed and the entry
    atomically replaced; a cache that cannot be read or written is a miss,
    and the report is returned all the same."""
    config = {"period": period_n, "pf": with_pf}
    path = os.path.join(_cache_dir(), _cache_key(name, config) + ".json")
    try:
        with open(path) as fh:
            text = fh.read()
        entry = json.loads(text)
        if (
            isinstance(entry, dict)
            and entry.get("polygon") == name
            and isinstance(entry.get("period"), list)
            and len(entry["period"]) == period_n + 1
            and ("picard_fuchs" in entry) == with_pf
        ):
            return text
    except (OSError, ValueError):
        pass
    import tempfile

    text = json.dumps(build_report(name, period_n, with_pf), indent=2)
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        pass
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return text


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    cat = load_catalog()
    for name in NAMES:
        P = cat[name]
        vs = " ".join(f"({v[0]},{v[1]})" for v in P.vertices)
        print(f"{name}\tvolume={P.volume()}\tdual={dual_name(name)}\t{vs}")
    return 0


def cmd_analyze(args) -> int:
    if args.period < 0:
        return _usage_error("--period must be nonnegative")
    try:
        text = _cached_report(args.name, args.period, not args.no_pf)
    except _FitError as e:
        return _usage_error(f"--period {args.period}: {e}")
    print(text)
    return 0


def _table_row(name: str) -> tuple[str, tuple, str]:
    P = get(name)
    config = classify_fibres(P)
    mw = mw_group(P, config)
    return _fibre_display(config), config.type_multiset(), mw.group


def cmd_table2(args) -> int:
    if args.jobs < 1:
        return _usage_error("--jobs must be at least 1")
    bad = []
    for name in NAMES:
        display, multiset, group = _table_row(name)
        expect_fibres, expect_group = EXPECTED_TABLE2[name]
        ok = multiset == expect_fibres and group == expect_group
        if not ok:
            bad.append(name)
        line = f"{name:3} | {display:22} | {_group_display(group)}"
        if args.check:
            line += "  [ok]" if ok else "  [MISMATCH]"
        print(line)
    if args.check and bad:
        print(f"mismatches: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def _usage_error(message: str) -> int:
    print(f"reflexo: error: {message}", file=sys.stderr)
    return 2


def cmd_period(args) -> int:
    if args.n < 0:
        return _usage_error("-n must be nonnegative")
    series = period_coefficients(build_fP(get(args.name)), args.n)
    for c in series.coefficients:
        print(c)
    return 0


def cmd_pf(args) -> int:
    if args.n < 0:
        return _usage_error("-n must be nonnegative")
    series = period_coefficients(build_fP(get(args.name)), args.n)
    try:
        L = find_picard_fuchs(series)
    except ValueError as e:
        return _usage_error(f"-n {args.n}: {e}")
    forms = _operator_forms(L)
    print(forms["t_form"])
    print(forms["D_form"])
    return 0


def cmd_mutations(args) -> int:
    P = get(args.name)
    for data, Q in all_mutations(P):
        print(
            f"v=({data.v[0]},{data.v[1]}) w=({data.w[0]},{data.w[1]})"
            f" -> {name_of(Q)}"
        )
    return 0


def cmd_classes(args) -> int:
    for cls in _class_names():
        print(",".join(cls))
    return 0


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SCALE = 40
_PAD = 30


def _polygon_svg(P: Polygon) -> str:
    xs = [v[0] for v in P.vertices]
    ys = [v[1] for v in P.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w = (x1 - x0) * _SCALE + 2 * _PAD
    h = (y1 - y0) * _SCALE + 2 * _PAD

    def pt(x, y):
        return (_PAD + (x - x0) * _SCALE, _PAD + (y1 - y) * _SCALE)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    hull = " ".join(f"{pt(*v)[0]},{pt(*v)[1]}" for v in P.vertices)
    parts.append(
        f'<polygon points="{hull}" fill="#dce9f7" stroke="#2c5f9e" '
        'stroke-width="2"/>'
    )
    points = set(P.lattice_points())
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            cx, cy = pt(x, y)
            on = (x, y) in points
            fill = "#2c5f9e" if on else "#c0c0c0"
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{fill}"/>')
    ox, oy = pt(0, 0)
    parts.append(
        f'<circle cx="{ox}" cy="{oy}" r="5" fill="none" stroke="#c0392b" '
        'stroke-width="2"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _fibres_svg(config: FibreConfiguration) -> str:
    labels = [(t.label(), _compact(loc)) for loc, t in config.fibres()]
    w = 120 * len(labels) + 2 * _PAD
    h = 140
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]
    for i, (label, where) in enumerate(labels):
        cx = _PAD + 60 + 120 * i
        parts.append(
            f'<circle cx="{cx}" cy="55" r="32" fill="#f7e8dc" '
            'stroke="#9e5f2c" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{cx}" y="60" text-anchor="middle" '
            f'font-family="monospace" font-size="16">{label}</text>'
        )
        parts.append(
            f'<text x="{cx}" y="115" text-anchor="middle" '
            f'font-family="monospace" font-size="11">@{where}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_svg(args) -> int:
    P = get(args.name)
    if args.what == "polygon":
        print(_polygon_svg(P))
    elif args.what == "dual":
        print(_polygon_svg(polar_dual(P)))
    else:
        print(_fibres_svg(classify_fibres(P)))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_name(p: argparse.ArgumentParser):
    p.add_argument("name", choices=NAMES, metavar="name",
                   help=f"one of: {', '.join(NAMES)}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built on the first call and
    shared by every later main call in the process.  Parsing leaves it
    unchanged: each parse_args call fills a new namespace from the
    parser's defaults."""
    parser = argparse.ArgumentParser(
        prog="reflexo",
        description="Exact toolkit for the 16 reflexive plane polygons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the 16 polygons").set_defaults(
        func=cmd_catalog
    )

    p = sub.add_parser("analyze", help="full JSON report for one polygon")
    _add_name(p)
    p.add_argument("--period", type=int, default=40, metavar="N",
                   help="period truncation order (default 40)")
    p.add_argument("--no-pf", action="store_true",
                   help="skip Picard-Fuchs fitting")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table2", help="summary table of fibres and MW groups")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless every row matches the expected table")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; rows run serially")
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser("period", help="period coefficients, one per line")
    _add_name(p)
    p.add_argument("-n", type=int, default=20, help="truncation order")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("pf", help="Picard-Fuchs operator in both forms")
    _add_name(p)
    p.add_argument("-n", type=int, default=40,
                   help="period truncation used for the fit")
    p.set_defaults(func=cmd_pf)

    p = sub.add_parser("mutations", help="admissible mutations of a polygon")
    _add_name(p)
    p.set_defaults(func=cmd_mutations)

    sub.add_parser("classes", help="mutation classes, one per line").set_defaults(
        func=cmd_classes
    )

    p = sub.add_parser("svg", help="SVG diagram on stdout")
    _add_name(p)
    p.add_argument("what", choices=["polygon", "dual", "fibres"])
    p.set_defaults(func=cmd_svg)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main() -> int:
    """main on the process's arguments, for the `reflexo` script and
    `python -m reflexo.cli`.  A stdout closed by its reader, as in
    `reflexo analyze 3 | head -1`, exits 141 (128 + SIGPIPE) with no
    traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush has nowhere left to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(console_main())
