#!/usr/bin/env python3
"""Exhaustive search over isotropic submodules at desk scale.

For the rank-4 standard form over Z/3, one search of the whole module, with
the nodes inside a kernel K = {v : v @ columns = 0} flagged as it goes,
gives both maximal ranks, the number of maximal V in K, and whether every
one of them contains a given vector, read off their normal bases with no
Howell form.  With a zero column K is the whole module, which confirms the
rank bound n/2 + 1; with the Bockstein vector K is ker B, and every maximal
V there contains the cyclotomic line.
"""

import numpy as np

from demuskin import DemushkinPresentation, Modulus, delta_map, invariants, isotropic_oracle

pres = DemushkinPresentation.standard(2, Modulus(3, 1))
coh = invariants(pres)
gamma = delta_map(pres, 1)

print("ambient rank 4 over Z/3, standard antisymmetric form")
whole = isotropic_oracle(coh.cup, np.zeros(4, dtype=np.int64), gamma)
print("maximum rank:", whole.max_rank, "(= n/2 + 1)")
print("maximal free isotropic submodules:", whole.maximal_count_in_kernel, "(= (3 + 1)(3^2 + 1))")
print()

found = isotropic_oracle(coh.cup, coh.bockstein, gamma)
print("one search, ker B flagged:", found.max_rank, "overall,", found.max_rank_in_kernel, "in ker B")
print("maximal free isotropic submodules inside ker B:", found.maximal_count_in_kernel)
print("all of them contain the cyclotomic line:", found.all_contain_vec)

# a vector outside ker B, the dual of x0, is missed: the report names the
# normal basis of the first maximal V without it
missed = isotropic_oracle(coh.cup, coh.bockstein, [0, 1, 0, 0])
print("all of them contain the dual of x0:", missed.all_contain_vec, "- first without it:", missed.first_missing.tolist())
