"""layext: exact arithmetic for layered (max-plus) semifield extensions.

The library implements three interlocking pieces and a CLI on top of them:

* `tropical` — layered max-plus pairs over the rationals and finitely
  generated value lattices;
* `bipotent` — finitely generated bipotent extensions, their exponent
  lattices, torsion degrees, ranks and the free-by-torsion decomposition;
* `cancellative` — simple algebraic extensions of the positive rationals
  with validated minimal polynomials and kernel machinery;
* `uniform` — uniform layered extensions gluing a sort (layer) part to a
  value part: polynomial evaluation, pure extensions and uniform closures.

Importing the package loads none of them.  Each public name resolves on
first use (PEP 562), which imports its defining module, so a process loads
only the layers it reads; `dir(layext)` and `from layext import *` list
every public name.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bipotent": (
        "INFINITE",
        "BipotentPresentation",
        "DependenceWitness",
        "ExtDecomposition",
        "Numeric",
        "Relation",
        "Symbolic",
        "canonical_coset_value",
        "decompose_extension",
        "divisible_dependence_witness",
        "extension_rank",
        "is_bipotent_semifield",
        "is_divisibly_dependent",
        "linearly_dependent_pair",
        "torsion_degree",
        "torsion_subdomain_contains",
    ),
    "cancellative": (
        "AlgebraicGenerator",
        "ExtElem",
        "PosPoly",
        "SignedPoly",
        "kernel_contains",
        "positive_at_root",
        "validate_generator",
    ),
    "tropical": (
        "ONE",
        "ZERO",
        "LayeredElem",
        "ValueLattice",
        "parse_layered",
    ),
    "uniform": (
        "AlgebraicSort",
        "BaseSort",
        "ExtScalar",
        "FreeLayer",
        "FreeSort",
        "LayeredPoly",
        "UniformDescriptor",
        "base_descriptor",
        "essential_indices",
        "eval_layered_poly",
        "is_layerset_semiring",
        "is_uniform_semifield",
        "pure_layer_ext",
        "pure_value_ext",
        "sort_is_semifield",
        "uniform_closure",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads find the name without calling this
    return value


def __dir__():
    return sorted({*globals(), *__all__})
