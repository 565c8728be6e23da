"""References for the coinvariant machine's clean frame: the conjugation of
a presentation and its action by a basis change, and the coinvariant
machine that diagonalized an action by its eigen-split, conjugated by it
and substituted central square roots for the eliminated generators.  Also
the validation of a target V by Howell forms alone, for every V, the map
g_i -> g_i z_i as the identity's images times z, the index set of a
coordinate span found by scanning its basis, the word of an exponent
row built one row at a time, the kill of the action's images of the
killed generators behind a certificate's `delta_invariant_kill`, the
free totally isotropic submodules of a constraint as Howell Submodules,
read off the masked levels of the one isotropy search, and the death of
elements modulo several central relators, tested one element at a time."""

from __future__ import annotations

import numpy as np

from demuskin.class2_words import (
    ClassTwoEndo,
    central_sqrt,
    compose,
    invert_auto,
    quotient_kill,
)
from demuskin.demushkin_core import (
    CharacterData,
    DemushkinPresentation,
    InvolutionAction,
    _linear_signs,
    delta_map,
    gamma_line,
    invariants,
)
from demuskin.quotient_builder import IsotropicSubmodule
from demuskin.zq_linalg import Submodule, _isotropic_normal_bases, is_totally_isotropic, kernel, matmul_mod


def transform_presentation(pres, action, basis):
    """Rewrite everything in the basis h_i = basis(g_i): the relator by the
    inverse, the character through the linear part, and the action
    conjugated by two compositions and built again."""
    basis_inv = invert_auto(basis)
    new_relator = basis_inv(pres.relator)
    # chi is multiplicative and kills F^2, so it transforms through the
    # linear part T of the basis change: with chi(g_k) = 1 + q c_k mod q^2,
    # chi(h_i) = prod_k (1 + q c_k)^(T_ik) = 1 + q (T c)_i mod q^2
    q = pres.mod.q
    new_vals = 1 + q * matmul_mod(basis.linear_matrix, delta_map(pres, 1), q)
    new_pres = DemushkinPresentation(
        pres.n,
        pres.mod,
        relator=new_relator,
        chi=CharacterData(new_vals, pres.mod),
        gens=pres.gens,
    )
    new_endo = compose(basis_inv, compose(action.endo, basis))
    return new_pres, InvolutionAction.build(new_pres, new_endo)


class ReferenceMachine:
    """The coinvariant machine before the clean frame: an action that is not
    of product shape is conjugated by the stacked Howell rows of its F/F^2
    eigenspaces (so a free eigenspace with more Howell rows than its rank is
    an AssertionError), and an eliminated generator g is substituted by the
    central square root of g sigma(g).  `central_relators` holds the kept
    difference relators that survive the substitution."""

    def __init__(self, pres, action):
        signs = _linear_signs(action.endo)
        if signs is None:
            plus, minus = action.f2_eigenspaces()
            rows = np.vstack([plus.basis, minus.basis])
            if rows.shape[0] != pres.d:
                raise AssertionError("eigenspace ranks do not fill the module")
            basis = ClassTwoEndo.linear(pres.gens, pres.mod, rows)
            pres, action = transform_presentation(pres, action, basis)
            signs = _linear_signs(action.endo)
            assert signs is not None, "diagonalized action is not of product shape"
        self.pres = pres
        gens, mod = pres.gens, pres.mod
        self.kept = [i for i, s in enumerate(signs) if s == 1]
        self.elim_labels = tuple(gens.labels[i] for i, s in enumerate(signs) if s == -1)
        keep = (signs == 1).astype(np.int64)
        roots = central_sqrt(action.endo.defects(signs))
        self.subst = ClassTwoEndo(ClassTwoEndo.identity(gens, mod).images ** keep * roots ** (1 - keep))
        images = self.project(action.endo.defects())
        self.small_gens = images.gens
        self.central_relators = [images[i] for i in self.kept if not images.is_identity[i]]
        self.relator_image = self.project(pres.relator)

    def project(self, u):
        return quotient_kill(self.elim_labels, self.subst(u))


def die_modulo_central(relators, elements, gens, mod) -> list[bool]:
    """Per element, whether it dies in (F/F^3) / <relators> for central
    relators, one element at a time: each element lifts to the row
    (a, q c) mod q^2 of (Z/q^2)^(d+P), and dies iff it is central and its
    lift lies in the one Submodule spanned by the relator lifts."""
    assert all(r.is_central for r in relators)
    ambient = gens.d + gens.d * (gens.d - 1) // 2

    def lift(u):
        return np.concatenate([u.gen_exp, mod.q * u.comm]) % mod.q2

    span = Submodule(np.reshape([lift(r) for r in relators], (-1, ambient)), ambient, mod.q2)
    return [bool(u.is_central and span.contains(lift(u))) for u in elements]


def reference_coinvariants(pres, action) -> dict:
    """The fields of `coinvariants` as the reference machine gives them,
    with the induced cohomology as plain lists."""
    machine = ReferenceMachine(pres, action)
    rank = len(machine.kept)
    wbar = machine.relator_image
    (free,) = die_modulo_central(machine.central_relators, [wbar], machine.small_gens, pres.mod)
    out = {
        "rank": rank,
        "kind": "free" if free else "demushkin",
        "m": None if free else rank - 2,
        "kept_labels": tuple(machine.pres.gens.labels[i] for i in machine.kept),
        "eliminated_labels": machine.elim_labels,
        "induced_relator": None if free else wbar,
        "induced": None,
        "kept_chi": [int(machine.pres.chi.values[i]) for i in machine.kept],
        "central_relators": machine.central_relators,
    }
    m = out["m"]
    if not free and m >= 0 and m % 2 == 0:
        induced_pres = DemushkinPresentation(
            m, pres.mod, relator=wbar, chi=CharacterData(out["kept_chi"], pres.mod), gens=machine.small_gens
        )
        out["induced"] = cohomology_fields(invariants(induced_pres))
    return out


def cohomology_fields(coh) -> tuple | None:
    """CohomologyData as comparable plain values."""
    if coh is None:
        return None
    return (
        coh.cup.gram.tolist(),
        coh.bockstein.tolist(),
        coh.cup_nondegenerate,
        coh.bockstein_surjective,
    )


def validate_V_reference(pres, action, V) -> IsotropicSubmodule:
    """`validate_V` with Howell forms for every V, coordinate spans
    included: freeness of V and of V + <gamma>, V's image under the
    transposed H^1 matrix, the cup form on V's basis, the Bockstein values
    of the basis, and the containment of gamma at the maximal rank."""
    if V.ambient != pres.d or V.modulus != pres.mod.q:
        raise ValueError("V does not live in H^1 of the presentation")
    coh = invariants(pres)
    gamma = gamma_line(pres)
    v_free = V.is_free
    free = v_free and Submodule(np.vstack([V.basis, gamma.basis]), pres.d, pres.mod.q).is_free
    image = V.image_under(action.h1_matrix.T)
    invariant = image == V
    isotropic = is_totally_isotropic(coh.cup, V)
    q = pres.mod.q
    in_ker = not matmul_mod(V.basis, coh.bockstein, q).any() if V.ngens else True
    gamma_contained = None
    if v_free and V.rank == pres.n // 2 + 1:
        gamma_contained = V.contains_submodule(gamma)
    return IsotropicSubmodule(V, free, invariant, isotropic, in_ker, gamma_contained)


def times_central_reference(z) -> ClassTwoEndo:
    """g_i -> g_i z_i, built as the identity's image stack multiplied by z
    row by row."""
    return ClassTwoEndo(ClassTwoEndo.identity(z.gens, z.mod).images * z)


def coordinate_indices_reference(V) -> list[int] | None:
    """Indices J when V is exactly the span of coordinate duals e_J, by a
    scan of the whole basis: each row has one nonzero entry, and it is 1."""
    nz = V.basis != 0
    if (nz.sum(axis=1) != 1).any() or (V.basis[nz] != 1).any():
        return None
    return nz.argmax(axis=1).tolist()


def format_exponents_reference(labels, gen_exp, comm) -> str:
    """The word of one row of exponents: each generator entry read in turn,
    then the nonzero commutator slots in slot order."""
    parts = [labels[i] if a == 1 else f"{labels[i]}^{int(a)}" for i, a in enumerate(gen_exp) if a]
    rows, cols = np.triu_indices(len(labels), 1)
    for s in np.flatnonzero(comm):
        i, j, c = int(rows[s]), int(cols[s]), int(comm[s])
        base = f"[{labels[j]},{labels[i]}]"
        parts.append(base if c == 1 else f"{base}^{c}")
    return " ".join(parts) if parts else "1"


def delta_invariant_kill_reference(action, killed) -> bool:
    """Whether the action's images of the killed generators die in the
    quotient, by copying those rows of its image stack and killing them;
    True when nothing is kept."""
    gens = action.endo.gens
    if len(killed) == gens.d:
        return True
    dropped = action.endo.images[[gens.index(lab) for lab in killed]]
    return bool(quotient_kill(killed, dropped).is_identity.all())


def search_levels(form, constraint) -> list[np.ndarray]:
    """Per rank 0, 1, ..., the (N, r, d) normal bases of the free totally
    isotropic submodules of `constraint`: the masked nodes of the one search
    with the columns of its annihilator, as S = ann(ann(S)) over Z/p^k."""
    columns = kernel(constraint.basis, form.modulus).basis.T
    levels, inside = _isotropic_normal_bases(form, columns)
    return [level[mask] for level, mask in zip(levels, inside) if mask.any()]


def isotropic_submodules(form, constraint) -> list[list[Submodule]]:
    """Per rank 0, 1, ..., every free totally isotropic submodule of
    `constraint` as a Submodule, in the search's order within a rank."""
    return [[Submodule(basis, form.dim, form.modulus) for basis in level] for level in search_levels(form, constraint)]
