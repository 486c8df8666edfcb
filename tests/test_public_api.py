"""Every public top-level function of the package is used by the program,
and so is every private top-level name.

A public function of ``src/reflexo`` is used when some code of the package
outside its own ``def`` names it, or when the benchmark under
``perfbench/`` mentions it (read as text, since the benchmark's tracer
names layer functions in strings).  A function kept for planned work names
the ROADMAP item that keeps it.  Anything else is test-only API, which
belongs in ``tests/oracles.py``.  A private top-level function, class or
constant (one leading underscore) is used when the package names it
outside the statement that defines it; a helper that only tests call
belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = sorted((ROOT / "src" / "reflexo").glob("*.py"))
PERFBENCH = "\n".join(
    p.read_text(encoding="utf-8")
    for p in sorted((ROOT / "perfbench").glob("*.py")))
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in SRC}
# name -> the ROADMAP open item that keeps it
KEPT = {
    "algebraic_mutation": "item 8: certify each mutation class",
    "newton_polygon": "item 8: certify each mutation class",
    "lattice_point_count": "the README's Ehrhart counts",
    "mutate": "the README's mutation by one datum, with all_mutations' slice rule",
}
PUBLIC = [
    (module, node.name)
    for module, tree in TREES.items()
    for node in tree.body
    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
]


def _defines(top: ast.stmt) -> set:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return {n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


PRIVATE = sorted(
    (module, name)
    for module, tree in TREES.items()
    for top in tree.body
    for name in _defines(top)
    if name.startswith("_") and not name.startswith("__"))


def _named_in_src(module: str, name: str) -> bool:
    """Some top-level statement of the package, other than the one that
    defines `name` in `module`, names `name` as a variable or an
    attribute."""
    for mod, tree in TREES.items():
        for top in tree.body:
            if mod == module and name in _defines(top):
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute)
                        and node.attr == name):
                    return True
    return False


@pytest.mark.parametrize("module, name", PUBLIC,
                         ids=[f"{m[:-3]}.{n}" for m, n in PUBLIC])
def test_public_function_is_used(module, name):
    # [TRIVIAL] used by the package or the benchmark, or kept by name
    used = (_named_in_src(module, name)
            or re.search(rf"\b{name}\b", PERFBENCH) is not None)
    assert used or name in KEPT, (
        f"{module}: {name} is used by neither src/ nor perfbench/")


def test_kept_names_still_exist():
    # [TRIVIAL] the allowlist names only functions that are defined
    assert set(KEPT) <= {name for _, name in PUBLIC}


def test_functions_found():
    # [TRIVIAL] the parametrisation above is not vacuous
    assert len(PUBLIC) >= 40


def test_private_names_are_used():
    # [TRIVIAL] no private helper or constant is left behind with no caller
    # in the package
    unused = [f"{module}: {name}" for module, name in PRIVATE
              if not _named_in_src(module, name)]
    assert unused == []
    assert len(PRIVATE) >= 60
