#!/usr/bin/env python3
"""Walk through the free/torsion decomposition machinery on worked examples.

Run: python scripts/decompose_demo.py
"""

import random
from fractions import Fraction as F

from layext import (
    BipotentPresentation,
    Numeric,
    Relation,
    Symbolic,
    ValueLattice,
    canonical_coset_value,
    decompose_extension,
    divisible_dependence_witness,
    extension_rank,
    torsion_degree,
)

Z = ValueLattice.of(1)


def show(title, P):
    print(f"== {title}")
    dec = decompose_extension(P)
    print(f"  free rank t = {dec.free_rank}")
    for mono, order in zip(dec.torsion_monomials, dec.torsion_orders):
        value = canonical_coset_value(P, mono)
        extra = f", class value {value}" if value is not None else ""
        print(f"  torsion monomial {list(mono)} of order {order}{extra}")
    for mono in dec.free_monomials:
        print(f"  free monomial {list(mono)}")
    print(f"  rank over the base: {extension_rank(P)}")
    print()


def main():
    show("integers extended by 1/2 and 1/3", BipotentPresentation.from_values(Z, "1/2", "1/3"))
    show("one free generator", BipotentPresentation(Z, (Symbolic("g"),)))
    show(
        "mixed: 1/2 plus a free generator",
        BipotentPresentation(Z, (Numeric(F(1, 2)), Symbolic("g"))),
    )
    show(
        "declared square root: g with 2g = 1",
        BipotentPresentation(Z, (Symbolic("g"),), (Relation.of((2,), 1),)),
    )

    print("== towers and witnesses")
    P = BipotentPresentation.from_values(Z, "1/2", "1/6")
    print(f"  [Z[1/2,1/6] : Z]        = {extension_rank(P)}")
    print(f"  [Z[1/2,1/6] : Z[1/2]]   = {extension_rank(P, over=(0,))}")
    print(f"  [Z[1/2] : Z]            = {extension_rank(BipotentPresentation.from_values(Z, '1/2'))}")
    w = divisible_dependence_witness(P, (0, 1), subset=(0,))
    print(f"  witness for 1/6 over {{1/2}}: power {w.power}, exponents {list(w.exponents)}, beta {w.beta}")
    print(f"  torsion degree of 5/6 in Z[1/2,1/3]: "
          f"{torsion_degree(BipotentPresentation.from_values(Z, '1/2', '1/3'), (1, 1))}")
    print()

    # numeric generators only: the quotient is cyclic, and its one monomial and the
    # generator coordinates have no entry longer than its order
    print("== 64 numeric generators with 6-digit numerators (either sign) and denominators")
    rng = random.Random(1)
    values = [F(rng.choice((-1, 1)) * rng.randint(100000, 999999), rng.randint(100000, 999999)) for _ in range(64)]
    dec = decompose_extension(BipotentPresentation.from_values(Z, *values))
    (order,) = dec.torsion_orders
    entries = [*dec.torsion_monomials[0], *(c for _, tc in dec.generator_coords for c in tc)]
    print(f"  one torsion monomial, of order D with {order.bit_length()} bits ({len(str(order))} digits)")
    print(f"  largest monomial or coordinate entry: {max(abs(x) for x in entries).bit_length()} bits")


if __name__ == "__main__":
    main()
