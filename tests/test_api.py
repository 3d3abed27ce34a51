"""The public surface of the `layext` package, pinned name by name.

Adding or removing an export changes this list, so the change shows in review.
So does library code that no program reads: every function, class and method
of `src/layext` needs a caller in the library, in `scripts/` or in
`perfbench/`, or a pinned reason to exist without one.  And no module keeps
state in a `global`: what a value derives lives in a slot of that value.
"""

import ast
import importlib
from types import ModuleType

import layext
from conftest import ROOT

PUBLIC = [
    "AlgebraicGenerator",
    "AlgebraicSort",
    "BaseSort",
    "BipotentPresentation",
    "DependenceWitness",
    "ExtDecomposition",
    "ExtElem",
    "ExtScalar",
    "FreeLayer",
    "FreeSort",
    "INFINITE",
    "LayeredElem",
    "LayeredPoly",
    "Numeric",
    "ONE",
    "PosPoly",
    "Relation",
    "SignedPoly",
    "Symbolic",
    "UniformDescriptor",
    "ValueLattice",
    "ZERO",
    "base_descriptor",
    "canonical_coset_value",
    "decompose_extension",
    "divisible_dependence_witness",
    "essential_indices",
    "eval_layered_poly",
    "extension_rank",
    "is_bipotent_semifield",
    "is_divisibly_dependent",
    "is_layerset_semiring",
    "is_uniform_semifield",
    "kernel_contains",
    "linearly_dependent_pair",
    "parse_layered",
    "positive_at_root",
    "pure_layer_ext",
    "pure_value_ext",
    "sort_is_semifield",
    "torsion_degree",
    "torsion_subdomain_contains",
    "uniform_closure",
    "validate_generator",
]


# the defining module of each public constant; classes and functions name theirs in `__module__`
CONSTANTS = {"INFINITE": "layext.bipotent", "ONE": "layext.tropical", "ZERO": "layext.tropical"}


def test_public_names_are_pinned():
    # the package resolves its names on first use, so they are read through its API,
    # not from `vars(layext)`; submodules become package attributes when imported,
    # so they are left out
    assert sorted(layext.__all__) == PUBLIC
    listed = [n for n in dir(layext) if not n.startswith("_") and not isinstance(getattr(layext, n), ModuleType)]
    assert sorted(listed) == PUBLIC
    star = {}
    exec("from layext import *", star)
    assert sorted(n for n in star if n != "__builtins__") == PUBLIC
    for name in PUBLIC:
        obj = getattr(layext, name)
        assert obj is getattr(importlib.import_module(CONSTANTS.get(name) or obj.__module__), name)
    names = [n for n, v in vars(layext).items() if not n.startswith("_") and not isinstance(v, ModuleType)]
    assert set(names) <= set(PUBLIC)


# Names defined in src/layext that no program reads, each kept for library users.
WITHOUT_PROGRAM_CALLER = {
    "parse_layered": "reads back the text `str` writes for a layered element",
    "pure_layer_ext": "the paper's pure-layer extension, one half of a uniform closure",
    "pure_value_ext": "the paper's pure-value extension, the other half",
    "xbar": "the adjoined root itself, used by the README quick start",
}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8")) for p in paths]


def test_names_without_a_program_caller_are_pinned():
    package = ROOT / "src" / "layext"
    defined = {
        node.name
        for tree in _trees(package.glob("*.py"))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    # __init__.py only re-exports; perfbench also calls queries by name, through getattr on strings
    programs = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    programs += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used = set()
    for tree in _trees(programs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name.rpartition(".")[2], node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert sorted(defined - used) == sorted(WITHOUT_PROGRAM_CALLER)


def test_library_has_no_global_statement():
    # a module-global cache is shared by every value, so a query on one evicts another's entry;
    # derived data lives in a slot of its value, as `ValueLattice._single` and
    # `BipotentPresentation._derived` do
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted((ROOT / "src" / "layext").glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []
