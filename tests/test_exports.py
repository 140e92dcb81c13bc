"""Every name the package exports resolves, and the scalar reference
formulas, which live in the tests' oracle ``scalar_bounds``, are not part of
the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import grusslab

#: the scalar (L, f, g) bound formulas of ``scalar_bounds``; the program
#: reads each bound from ``bounds.BOUNDS`` only
SCALAR_ONLY = ("gruss_quarter", "mercer_bound", "classical_ws_bound",
               "classical_ws_uniform", "new_bound_positive", "new_bound_signed",
               "specialized_rhs", "node_ranges", "lagrange_new_bound",
               "lagrange_classical_bound", "measure_example_T")

MODULES = [importlib.import_module(f"grusslab.{m.name}")
           for m in pkgutil.iter_modules(grusslab.__path__)]


def _init_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from .module import name`` in __init__.py."""
    tree = ast.parse(Path(grusslab.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_every_exported_name_resolves():
    assert {m.__name__ for m in MODULES} >= {"grusslab.bounds", "grusslab.verify"}
    missing = [f"{mod.__name__}.{name}" for mod in MODULES
               for name in mod.__all__ if not hasattr(mod, name)]
    imports = _init_imports()
    assert imports
    missing += [f"grusslab.{mod}.{name}" for mod, name in imports
                if not hasattr(importlib.import_module(f"grusslab.{mod}"), name)
                or not hasattr(grusslab, name)]
    assert missing == []


def test_scalar_formulas_are_not_in_the_package():
    found = [f"{mod.__name__}.{name}" for mod in [grusslab, *MODULES]
             for name in SCALAR_ONLY if hasattr(mod, name)]
    found += [f"{mod.__name__}.__all__: {name}" for mod in MODULES
              for name in mod.__all__ if name in SCALAR_ONLY]
    assert found == []
