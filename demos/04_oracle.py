#!/usr/bin/env python3
"""Exhaustive search over isotropic submodules at desk scale.

For the rank-4 standard form over Z/3 the search enumerates every free
totally isotropic submodule and confirms the rank bound n/2 + 1.  Then one
search of the whole module, with the nodes inside the Bockstein kernel
flagged as it goes, gives both maximal ranks, the number of maximal V in
ker B, and whether every one of them contains the cyclotomic line, read off
their normal bases with no Howell form.
"""

from demuskin import (
    DemushkinPresentation,
    Modulus,
    Submodule,
    bockstein_kernel,
    delta_map,
    invariants,
    isotropic_free_submodules,
    isotropic_oracle,
    max_isotropic_oracle,
)

pres = DemushkinPresentation.standard(2, Modulus(3, 1))
coh = invariants(pres)
full = Submodule.full(4, 3)

print("ambient rank 4 over Z/3, standard antisymmetric form")
subs = isotropic_free_submodules(coh.cup, full)
by_rank = {}
for s in subs:
    by_rank.setdefault(s.rank, 0)
    by_rank[s.rank] += 1
print("free isotropic submodules by rank:", dict(sorted(by_rank.items())))
print("maximum rank:", max_isotropic_oracle(coh.cup, full), "(= n/2 + 1)")
print()

found = isotropic_oracle(coh.cup, coh.bockstein, delta_map(pres, 1))
print("one search, ker B flagged:", found.max_rank, "overall,", found.max_rank_in_kernel, "in ker B")
print("maximal free isotropic submodules inside ker B:", found.maximal_count_in_kernel)
print("all of them contain the cyclotomic line:", found.all_contain_vec)
for s in isotropic_free_submodules(coh.cup, bockstein_kernel(pres), rank=found.max_rank_in_kernel)[:4]:
    print("  basis:", s.basis.tolist())

# a vector outside ker B, the dual of x0, is missed: the report names the
# normal basis of the first maximal V without it
missed = isotropic_oracle(coh.cup, coh.bockstein, [0, 1, 0, 0])
print("all of them contain the dual of x0:", missed.all_contain_vec, "- first without it:", missed.first_missing.tolist())
