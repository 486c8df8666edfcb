"""CLI front end: commands, JSON schemas, caching, SVG, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import reflexo
from reflexo import catalog, cli, fibration, mutation, polygon
from reflexo.cli import build_report, main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalog:
    def test_sixteen_rows(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        assert lines[0].startswith("3\t")
        assert "dual=9" in lines[0]

    def test_builds_no_dual(self, capsys, monkeypatch):
        # [DERIVED] dual names are read off the fan sequence: with
        # polar_dual refusing, `reflexo catalog` still prints the stored
        # reference
        def refuse(P):
            raise AssertionError("polar_dual called")

        assert not hasattr(catalog, "polar_dual")
        monkeypatch.setattr(polygon, "polar_dual", refuse)
        monkeypatch.setattr(cli, "polar_dual", refuse)
        code, out, _ = run(capsys, "catalog")
        ref = Path(__file__).parents[1] / "perfbench" / "reference"
        assert code == 0
        assert out == (ref / "catalog.txt").read_text(encoding="utf-8")

    def test_unknown_name_lists_the_valid_ones(self):
        # [TRIVIAL] there is no polygon 10
        with pytest.raises(KeyError, match="unknown polygon '10'; valid "
                           "names: " + ", ".join(catalog.NAMES)):
            catalog.get("10")


class TestTable2:
    def test_rows(self, capsys):
        # [PAPER] spot-check three quoted rows of the summary table
        code, out, _ = run(capsys, "table2")
        assert code == 0
        lines = {l.split("|")[0].strip(): l for l in out.strip().splitlines()}
        assert "I9, 3xI1" in lines["3"] and "Z/3Z" in lines["3"]
        assert "I4, I1*, I1" in lines["8c"] and "Z/4Z" in lines["8c"]
        assert "I7, I2, 3xI1" in lines["5b"] and lines["5b"].rstrip().endswith("Z")

    def test_check_passes(self, capsys):
        # the master regression gate
        code, out, _ = run(capsys, "table2", "--check")
        assert code == 0
        assert "[MISMATCH]" not in out
        assert out.count("[ok]") == 16

    def test_check_mismatch_exits_1(self, capsys, monkeypatch):
        # [DERIVED] with a wrong expected group for 3, --check marks that
        # row alone, names it on stderr and exits 1
        monkeypatch.setitem(cli.EXPECTED_TABLE2, "3",
                            (cli.EXPECTED_TABLE2["3"][0], "Z/9"))
        code, out, err = run(capsys, "table2", "--check")
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 16
        assert [l.split("|")[0].strip() for l in lines
                if l.endswith("  [MISMATCH]")] == ["3"]
        assert sum(l.endswith("  [ok]") for l in lines) == 15
        assert err.strip().splitlines() == ["mismatches: 3"]

    def test_mismatch_without_check_exits_0(self, capsys, monkeypatch):
        # [DERIVED] without --check the same table prints unmarked rows
        # and exits 0
        monkeypatch.setitem(cli.EXPECTED_TABLE2, "3",
                            (cli.EXPECTED_TABLE2["3"][0], "Z/9"))
        code, out, err = run(capsys, "table2")
        assert code == 0 and err == ""
        assert len(out.strip().splitlines()) == 16
        assert "[ok]" not in out and "[MISMATCH]" not in out

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run(capsys, "table2", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [
            "reflexo: error: --jobs must be at least 1"
        ]


class TestVersion:
    def test_pyproject_version_is_package_version(self):
        # the cache key carries cli.VERSION, so the three must not drift
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            project = tomllib.load(f)["project"]
        assert project["name"] == "reflexo"
        assert project["version"] == reflexo.__version__ == cli.VERSION


class TestAnalyze:
    def test_6b_fibre_schema(self, capsys, tmp_path, monkeypatch):
        # [PAPER] the documented report entry for polygon 6b
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        code, out, _ = run(capsys, "analyze", "6b", "--no-pf")
        assert code == 0
        report = json.loads(out)
        assert report["polygon"] == "6b"
        assert {"where": "infinity", "type": "I6"} in report["fibres"]
        assert {"where": "2", "type": "I3"} in report["fibres"]
        assert {"where": "3", "type": "I2"} in report["fibres"]
        assert {"where": "-6", "type": "I1"} in report["fibres"]

    def test_irrational_schema(self, capsys, tmp_path, monkeypatch):
        # [PAPER] conjugate locations carry a factor object and a count
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        code, out, _ = run(capsys, "analyze", "5a", "--no-pf")
        report = json.loads(out)
        assert {
            "where": {"factor": "l^3-l^2-18*l+43"}, "type": "I1", "count": 3
        } in report["fibres"]

    def test_mw_schema(self, capsys, tmp_path, monkeypatch):
        # [PAPER] documented mw block for polygon 3
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        _, out, _ = run(capsys, "analyze", "3", "--no-pf")
        mw = json.loads(out)["mw"]
        assert mw == {
            "rank": 0, "torsion": 3, "group": "Z/3", "detT": 9,
            "positions": [0, 3, 6],
        }

    def test_height_matrix_strings(self, capsys, tmp_path, monkeypatch):
        # [PAPER] exact rationals as "p/q" strings, never floats
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        _, out, _ = run(capsys, "analyze", "4b", "--no-pf")
        mw = json.loads(out)["mw"]
        assert mw["height_matrix"] == [
            ["1/2", "1/4", "3/4"],
            ["1/4", "1/8", "3/8"],
            ["3/4", "3/8", "9/8"],
        ]

    def test_period_option(self, capsys, tmp_path, monkeypatch):
        # [PAPER] P3 coefficients 1, 0, 0, 6, 0, 0, 90, 0, 0, 1680
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        _, out, _ = run(capsys, "analyze", "3", "--period", "9", "--no-pf")
        assert json.loads(out)["period"] == [
            "1", "0", "0", "6", "0", "0", "90", "0", "0", "1680"
        ]

    def test_cache_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        _, first, _ = run(capsys, "analyze", "4a", "--no-pf")
        files = os.listdir(tmp_path)
        assert len(files) == 1 and files[0].endswith(".json")
        _, second, _ = run(capsys, "analyze", "4a", "--no-pf")
        assert first == second

    def test_corrupt_cache_entry_recomputed(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        path = tmp_path / (cli._cache_key("4a", {"period": 40, "pf": False})
                           + ".json")
        path.write_text("{broken")
        code, out, _ = run(capsys, "analyze", "4a", "--no-pf")
        assert code == 0
        assert json.loads(out)["polygon"] == "4a"
        assert path.read_text() + "\n" == out
        assert os.listdir(tmp_path) == [path.name]

    @pytest.mark.parametrize("spoil", [
        lambda report: {},
        lambda report: {**report, "polygon": "4c"},
        lambda report: {**report, "period": report["period"][:-1]},
        lambda report: {**report, "period": None},
        lambda report: {**report, "picard_fuchs": {}},
    ], ids=["empty", "other-polygon", "short-period", "no-period",
            "unasked-pf"])
    def test_foreign_cache_entry_recomputed(self, spoil, capsys, tmp_path,
                                            monkeypatch):
        # an entry that parses but is not the report asked for -- another
        # polygon, another period length, a PF field the request did not
        # ask for -- is recomputed and replaced, never printed
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        _, expected, _ = run(capsys, "analyze", "4a", "--no-pf")
        path = tmp_path / (cli._cache_key("4a", {"period": 40, "pf": False})
                           + ".json")
        path.write_text(json.dumps(spoil(json.loads(expected))))
        code, out, _ = run(capsys, "analyze", "4a", "--no-pf")
        assert (code, out) == (0, expected)
        assert path.read_text() + "\n" == out
        assert os.listdir(tmp_path) == [path.name]

    def test_cache_path_a_file_is_a_miss(self, capsys, tmp_path,
                                         monkeypatch):
        # a cache that cannot be created loses nothing but the cache: the
        # report is printed as with a working one
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path / "cache"))
        _, expected, _ = run(capsys, "analyze", "3", "--period", "10",
                             "--no-pf")
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REFLEXO_CACHE", str(blocker))
        code, out, err = run(capsys, "analyze", "3", "--period", "10",
                             "--no-pf")
        assert (code, out, err) == (0, expected, "")
        assert blocker.read_text() == "not a directory"
        assert sorted(os.listdir(tmp_path)) == ["cache", "file"]

    def test_failed_cache_write_is_a_miss(self, capsys, tmp_path,
                                          monkeypatch):
        # a write that fails after the temporary file exists removes it
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))

        def replace(src, dst):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(cli.os, "replace", replace)
        code, out, _ = run(capsys, "analyze", "4a", "--no-pf")
        assert code == 0
        assert json.loads(out)["polygon"] == "4a"
        assert os.listdir(tmp_path) == []

    def test_cache_key_follows_source_digest(self, monkeypatch):
        # a change to the program's sources or data must not serve an old
        # report: the key changes with their digest
        config = {"period": 40, "pf": False}
        key = cli._cache_key("4a", config)
        assert cli._cache_key("4a", config) == key
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        assert cli._cache_key("4a", config) != key

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "zz")
        assert code == 2

    def test_period_without_operator_exits_2(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        code, out, err = run(capsys, "analyze", "3", "--period", "3")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("reflexo: error: --period 3: no operator found")
        assert os.listdir(tmp_path) == []

    def test_other_value_error_not_a_usage_error(self, capsys, tmp_path,
                                                 monkeypatch):
        # only the Picard-Fuchs fit maps to exit 2; a ValueError from any
        # other stage is a program fault and propagates unchanged
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))

        def broken(P, config):
            raise ValueError("torsion bounds inconsistent")

        monkeypatch.setattr(cli, "mw_group", broken)
        with pytest.raises(ValueError, match="torsion bounds inconsistent"):
            main(["analyze", "3"])
        assert "--period" not in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_negative_period_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        code, out, err = run(capsys, "analyze", "3", "--period", "-1")
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [
            "reflexo: error: --period must be nonnegative"
        ]


def _count_calls(monkeypatch, module, name) -> list:
    """Replace module.name, in every reflexo namespace that binds it, by a
    wrapper recording each call's arguments; returns the record."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if (modname == "reflexo" or modname.startswith("reflexo.")) and \
                getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


class TestComputeOnce:
    def test_report_derives_each_pencil_quantity_once(self, monkeypatch):
        elimination = _count_calls(monkeypatch, fibration,
                                   "elimination_polynomial")
        fP = _count_calls(monkeypatch, fibration, "build_fP")
        classes = _count_calls(monkeypatch, cli, "mutation_classes")
        report = build_report("5a")
        assert report["mutation_class"] == ["5a", "5b"]
        assert len(elimination) == 1
        assert len(fP) <= 2
        assert classes == []

    def test_class_member_reuses_search(self, monkeypatch, fresh_class):
        # [DERIVED] 6a and 6b share a mutation class: the report of 6b
        # after that of 6a expands no polygon, and names the class a fresh
        # search from 6b finds
        build_report("6a", 10, False)
        expansions = _count_calls(monkeypatch, mutation, "all_mutations")
        report = build_report("6b", 10, False)
        assert expansions == []
        assert report["mutation_class"] == sorted(
            catalog.name_of(Q) for Q in fresh_class(catalog.get("6b")))

    def test_classification_builds_no_elimination(self, capsys,
                                                  monkeypatch):
        # [DERIVED] the singular lambda come from the pencil's critical and
        # curve values; E is built only for the report
        elimination = _count_calls(monkeypatch, fibration,
                                   "elimination_polynomial")
        code, _, _ = run(capsys, "table2", "--check", "--jobs", "1")
        assert code == 0
        for name in catalog.NAMES:
            fibration.classify_fibres(catalog.get(name))
        assert elimination == []


class TestPeriodCommands:
    def test_period_lines(self, capsys):
        code, out, _ = run(capsys, "period", "3", "-n", "6")
        assert code == 0
        assert out.strip().splitlines() == ["1", "0", "0", "6", "0", "0", "90"]

    def test_pf_both_forms(self, capsys):
        code, out, _ = run(capsys, "pf", "3")
        assert code == 0
        t_form, d_form = out.strip().splitlines()
        assert "D^2" in t_form and "t^3" in t_form
        assert d_form.startswith("(") and "D^2" in d_form

    def test_period_negative_n_exits_2(self, capsys):
        code, out, err = run(capsys, "period", "3", "-n", "-1")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "-n" in err

    def test_pf_negative_n_exits_2(self, capsys):
        code, out, err = run(capsys, "pf", "3", "-n", "-1")
        assert code == 2 and out == ""
        assert err.strip().splitlines() == [
            "reflexo: error: -n must be nonnegative"
        ]

    def test_pf_too_few_terms_exits_2(self, capsys):
        code, out, err = run(capsys, "pf", "3", "-n", "5")
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert "no operator found" in err

    # The least -n at which `pf` finds each operator; every -n from there
    # to 60 finds the same one.
    PF_N_MIN = {"3": 20, "4a": 16, "4c": 16, "4b": 25, "5a": 25, "5b": 25}

    @pytest.mark.parametrize("name", catalog.NAMES)
    def test_pf_data_threshold(self, capsys, name):
        # [DERIVED] one coefficient short of the threshold the fit finds
        # nothing within its bounds; from it on, the operator of `pf NAME`
        n = self.PF_N_MIN.get(name, 19)
        code, out, err = run(capsys, "pf", name, "-n", str(n - 1))
        assert code == 2 and out == ""
        assert err == (f"reflexo: error: -n {n - 1}: "
                       f"no operator found (raise bounds)\n")
        code, expected, _ = run(capsys, "pf", name)
        assert code == 0
        for m in (n, 60):
            assert run(capsys, "pf", name, "-n", str(m)) == (0, expected, "")


class TestMutationsCommand:
    def test_4c(self, capsys):
        code, out, _ = run(capsys, "mutations", "4c")
        assert code == 0
        assert any(line.endswith("-> 4a") for line in out.strip().splitlines())

    def test_mutants_canonicalised_once(self, capsys, monkeypatch):
        # [DERIVED] name_of looks a mutant up by its fan key, so naming the
        # 76 mutants of the 16 polygons takes no canonical form at all
        catalog.name_of(catalog.get("3"))  # build the name table
        forms = _count_calls(monkeypatch, polygon, "canonical_form")
        mutants = 0
        for name in catalog.NAMES:
            code, out, _ = run(capsys, "mutations", name)
            assert code == 0
            mutants += len(out.strip().splitlines())
        assert mutants == 76
        assert forms == []

    def test_classes(self, capsys):
        code, out, _ = run(capsys, "classes")
        assert code == 0
        assert out.strip().splitlines() == [
            "3", "4a,4c", "4b", "5a,5b", "6a,6b,6c,6d", "7a,7b",
            "8a,8b,8c", "9",
        ]


class TestSvg:
    def test_polygon_3(self, capsys):
        # [TRIVIAL] triangle with 4 lattice dots (3 on hull, origin inside)
        code, out, _ = run(capsys, "svg", "3", "polygon")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        dots = [c for c in root if c.tag.endswith("circle")]
        assert len(dots) >= 4

    def test_dual_3(self, capsys):
        # [PAPER] (P3) polar = P9: 9 boundary lattice points on the hull
        code, out, _ = run(capsys, "svg", "3", "dual")
        assert code == 0
        ET.fromstring(out)  # well-formed
        assert "polygon" in out

    def test_fibres_6b(self, capsys):
        # [PAPER] diagram labeled I6, I3, I2, I1
        code, out, _ = run(capsys, "svg", "6b", "fibres")
        assert code == 0
        ET.fromstring(out)
        for label in ("I6", "I3", "I2", "I1"):
            assert label in out

    def test_bad_mode_exits_2(self, capsys):
        code, _, _ = run(capsys, "svg", "3", "everything")
        assert code == 2


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        # the first main call of the process builds the parser and its
        # eight subcommand parsers; later calls build none
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        for argv in (["catalog"], ["classes"], ["period", "3", "-n", "2"]):
            assert run(capsys, *argv)[0] == 0
        assert len(built) == 9

    def test_reused_parser_keeps_no_values(self, capsys, tmp_path,
                                           monkeypatch):
        # options given to one call, or a call that fails to parse, leave
        # the next call with the defaults
        monkeypatch.setenv("REFLEXO_CACHE", str(tmp_path))
        _, out, _ = run(capsys, "analyze", "3", "--period", "5", "--no-pf")
        assert len(json.loads(out)["period"]) == 6
        assert run(capsys, "analyze", "3", "--period", "x")[0] == 2
        code, out, _ = run(capsys, "analyze", "3")
        report = json.loads(out)
        assert code == 0
        assert len(report["period"]) == 41 and "picard_fuchs" in report


class TestClosedStdout:
    def test_script_entry_point(self):
        # the installed `reflexo` script runs the entry that handles a
        # closed stdout, not main
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"reflexo": "reflexo.cli:console_main"}

    def test_package_ships_catalog(self):
        # an installed reflexo reads its catalog from polygons.json, which
        # only package-data puts in the wheel
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            data = tomllib.load(f)["tool"]["setuptools"]["package-data"]
        assert "polygons.json" in data["reflexo"]
        assert (Path(reflexo.__file__).parent / "polygons.json").is_file()

    @pytest.mark.parametrize("launch", [
        ["-m", "reflexo.cli"],
        ["-c", "import sys; from reflexo.cli import console_main; "
               "sys.exit(console_main())"],
    ], ids=["module", "script"])
    @pytest.mark.parametrize("argv", [
        ["catalog"],
        ["analyze", "3", "--period", "10", "--no-pf"],
    ], ids=["catalog", "analyze"])
    def test_exits_141_without_traceback(self, launch, argv, tmp_path):
        # stdout is a pipe whose read end is closed before the process
        # starts, so its first write fails, with no race
        src = str(Path(reflexo.__file__).parents[1])
        env = dict(os.environ, REFLEXO_CACHE=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run([sys.executable, *launch, *argv],
                                  stdout=w, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr.decode()) == (141, "")
