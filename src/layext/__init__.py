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
"""

from .bipotent import (
    INFINITE,
    BipotentPresentation,
    DependenceWitness,
    ExponentLattice,
    ExtDecomposition,
    Numeric,
    Relation,
    Symbolic,
    canonical_coset_value,
    decompose_extension,
    divisible_dependence_witness,
    exponent_lattice,
    extension_rank,
    is_bipotent_semifield,
    is_divisibly_dependent,
    linearly_dependent_pair,
    torsion_degree,
    torsion_subdomain_contains,
)
from .cancellative import (
    AlgebraicGenerator,
    ExtElem,
    PosPoly,
    SignedPoly,
    kernel_contains,
    positive_at_root,
    validate_generator,
)
from .tropical import (
    ONE,
    ZERO,
    LayeredElem,
    ValueLattice,
    parse_layered,
)
from .uniform import (
    AlgebraicSort,
    BaseSort,
    ExtScalar,
    FreeLayer,
    FreeSort,
    LayeredPoly,
    UniformDescriptor,
    base_descriptor,
    essential_indices,
    eval_layered_poly,
    is_layerset_semiring,
    is_uniform_semifield,
    pure_layer_ext,
    pure_value_ext,
    sort_is_semifield,
    uniform_closure,
)

__version__ = "0.1.0"
