"""The public surface of the `layext` package, pinned name by name.

Adding or removing an export changes this list, so the change shows in review.
"""

from types import ModuleType

import layext

PUBLIC = [
    "AlgebraicGenerator",
    "AlgebraicSort",
    "BaseSort",
    "BipotentPresentation",
    "DependenceWitness",
    "ExponentLattice",
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
    "exponent_lattice",
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


def test_public_names_are_pinned():
    # submodules become package attributes when imported, so they are left out
    names = [n for n, v in vars(layext).items() if not n.startswith("_") and not isinstance(v, ModuleType)]
    assert sorted(names) == PUBLIC
