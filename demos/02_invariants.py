#!/usr/bin/env python3
"""Invariants of a Demushkin presentation at the class-2 window.

The standard rank n+2 presentation has relator
x0^q [x0,g] [x1,x2] ... [x_(n-1),x_n].  Collecting it gives the cup-product
gram matrix (antisymmetrized commutator coordinates) and the Bockstein
vector (generator exponents divided by q).  The dual line of the cyclotomic
quotient is the orthogonal complement of the Bockstein kernel.
"""

from demuskin import (
    DemushkinPresentation,
    Modulus,
    bockstein_kernel,
    format_word,
    gamma_line,
    invariants,
    orthogonal_complement,
)

for n, mod in [(2, Modulus(3, 1)), (0, Modulus(5, 1)), (4, Modulus(3, 2))]:
    pres = DemushkinPresentation.standard(n, mod)
    coh = invariants(pres)
    print(f"n = {n}, q = {mod.q}")
    print("  relator      :", format_word(pres.relator))
    print("  gram         :", coh.cup.gram.tolist())
    print("  nondegenerate:", coh.cup_nondegenerate)
    print("  bockstein    :", list(map(int, coh.bockstein)), "(surjective:", coh.bockstein_surjective, ")")
    line = gamma_line(pres)
    perp = orthogonal_complement(coh.cup, bockstein_kernel(pres))
    print("  cyclotomic line:", line.basis.tolist())
    print("  (ker B)^perp   :", perp.basis.tolist(), " equal:", line == perp)
    print()
