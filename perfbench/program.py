"""Load the reflexo package from the checkout's own ``src`` directory.

The benchmark never uses an installed copy: it puts ``<root>/src`` first on
``sys.path`` and checks that every imported module came from there.

    python3 perfbench/program.py SRC

is one set-up in a fresh interpreter (import every module, load the
catalog, exit); run.py times it for ``setup_s``.
"""

from __future__ import annotations

import importlib
import os
import sys

MODULES = ("polygon", "mutation", "laurent", "algebra", "fibration",
           "mordell_weil", "period", "catalog", "cli")


class SourceMissing(RuntimeError):
    pass


def source_dir(root: str) -> str:
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "reflexo", "__init__.py")):
        raise SourceMissing(f"no reflexo package under {src}")
    return src


class Program:
    """The freshly imported reflexo modules, one attribute per module (None
    for a module that does not exist at this commit)."""

    def __init__(self, src: str):
        if sys.path[:1] != [src]:
            sys.path.insert(0, src)
        for name in [m for m in sys.modules
                     if m == "reflexo" or m.startswith("reflexo.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        for name in MODULES:
            try:
                mod = importlib.import_module(f"reflexo.{name}")
            except ModuleNotFoundError as exc:
                if name in ("cli", "catalog") or exc.name != f"reflexo.{name}":
                    raise
                mod = None
            if mod is not None and not os.path.abspath(mod.__file__).startswith(
                    src + os.sep):
                raise SourceMissing(f"reflexo.{name} imported from "
                                    f"{mod.__file__}, not from {src}")
            setattr(self, name, mod)
        self.catalog.load_catalog()


if __name__ == "__main__":
    Program(sys.argv[1])
