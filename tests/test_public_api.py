"""Every public top-level function of the package is used by the program.

A public function of ``src/reflexo`` is used when some code of the package
outside its own ``def`` names it, or when the benchmark under
``perfbench/`` mentions it (read as text, since the benchmark's tracer
names layer functions in strings).  A function kept for planned work names
the ROADMAP item that keeps it.  Anything else is test-only API, which
belongs in ``tests/oracles.py``.
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


def _named_in_src(module: str, name: str) -> bool:
    """Some top-level statement of the package, other than the def of
    `name` in `module`, names `name` as a variable or an attribute."""
    for mod, tree in TREES.items():
        for top in tree.body:
            if (mod == module and isinstance(top, ast.FunctionDef)
                    and top.name == name):
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
