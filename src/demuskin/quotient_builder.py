"""Construction of equivariant free quotients with prescribed signature.

Pipeline: pick a target submodule V of H^1 (free, invariant under the
involution, totally isotropic, inside the Bockstein kernel), move to a basis
of the truncated free group in which V is spanned by duals of generators,
kill the complementary generators, and certify that the relator dies in the
quotient.  Every certificate records which of the conditions held, so a
failing input produces a red certificate rather than an exception.

The change of basis is one symplectic completion over Z/q that keeps the
eigenspaces H+ and H- of the involution and the Bockstein kernel ker B.
The dual basis falls into n/2 + 1 slots, each a pair (a, b) with a in H+,
b in H- and <a, b> = 1: slot 0 holds the duals of g and x0, slot k >= 1
those of x_(2k) and x_(2k-1), and every vector but the dual of x0 lies in
ker B.  V's basis is placed first, each vector in a fresh slot; then slot
0 is filled from a vector of B-value 1; then each remaining slot is seeded
with the first unimodular vector of H- in ker B that is left.  Every
partner comes from one rule: in the working space (the opposite
eigenspace, inside ker B, orthogonal to everything placed and to the V
vectors still pending), take the first Howell row r with r . w a unit and
scale it so that r . w = 1.  Only the cyclotomic direction pairs with
nothing in ker B; it takes slot 0, with a partner of unit B-value found
outside ker B.

Each working space is a restriction, not an intersection of ambient
submodules: with S the Howell basis of the eigenspace (or of its part in
ker B) and W the rows placed and pending, it is the part of S's span that
gram . W^T annihilates, read off one Howell form of the small matrix
[S . gram . W^T | I] (`Submodule.annihilated_by`).  The part in ker B and
the eigenparts of V are restrictions of the same kind, by the column B and
by the coordinates of the other sign.

The change tau this gives is linear with rows in the eigenspaces, so it
commutes with the clean involution sigma = diag(s) up to central terms,
and one correction absorbs them: with y = tau's images, the defects
D = y^(-s) sigma(y) are central, and the certificate's basis change sends
g_i to y_i sqrt(D_i)^(s_i) (`symmetrized_change`).  It is the change that
conjugating sigma by tau, symmetrizing the conjugate and composing would
give, as square roots in F^2/F^3 are unique, and it is checked without
building the conjugate: sigma(total(g_i)) = total(g_i)^(s_i) holds iff
sigma is clean in the new frame, and total(w) = w iff the relator keeps
its standard shape there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from demuskin.class2_words import (
    ClassTwoEndo,
    KillQuotient,
    invert_auto,
    quotient_kill,
)
from demuskin.demushkin_core import (
    DemushkinPresentation,
    InvolutionAction,
    delta_map,
    gamma_line,
    invariants,
    standard_relator,
    standard_sign_pattern,
    symmetrized_change,
)
from demuskin.zq_linalg import (
    Submodule,
    inv_mod,
    is_totally_isotropic,
    matmul_mod,
)

LIFTING_NOTE = (
    "the class-2 data certify a surjection onto the class-2 truncation of "
    "the free quotient; the full pro-p surjection follows by the standard "
    "embedding-problem induction and is not re-derived here"
)


class Signature(NamedTuple):
    u_plus: int
    u_minus: int


@dataclass(frozen=True)
class IsotropicSubmodule:
    """A candidate V with its validated condition flags."""

    V: Submodule
    free: bool
    delta_invariant: bool
    totally_isotropic: bool
    in_bockstein_kernel: bool
    gamma_contained: bool | None  # None unless V has maximal rank

    @property
    def ok(self) -> bool:
        return all(self.flag_dict().values())

    @property
    def rank(self) -> int:
        return self.V.rank

    def flag_dict(self) -> dict:
        return {
            "free": self.free,
            "delta_invariant": self.delta_invariant,
            "totally_isotropic": self.totally_isotropic,
            "in_bockstein_kernel": self.in_bockstein_kernel,
        }

    def __repr__(self):
        return f"IsotropicSubmodule(ok={self.ok}, flags={self.flag_dict()}, V={self.V!r})"


def validate_V(
    pres: DemushkinPresentation, action: InvolutionAction, V: Submodule
) -> IsotropicSubmodule:
    """Evaluate the four quotient conditions, plus the cyclotomic-line
    containment whenever V is free of the maximal rank n/2 + 1.

    `free` means V and V + <gamma> are free: inside ker B = gamma^perp the
    sum is isotropic, and an adapted frame extends a free basis of it.

    A span of coordinate duals e_J is read off arrays, with J its index set
    (`Submodule.coordinate_indices`, read once per V), J^c the other
    indices, gamma = delta_map(pres, 1), M the H^1 matrix, G the gram
    matrix and B the Bockstein vector.  V + <gamma> is e_J plus the line of
    gamma on J^c, so `free` iff gamma on J^c is zero or has a unit entry;
    `delta_invariant` iff the rows J of M^T vanish on J^c and their J x J
    block is invertible mod p (unit diagonal entries when it is diagonal,
    one mod-p rank otherwise); `totally_isotropic` iff G[J, J] = 0;
    `in_bockstein_kernel` iff B[J] = 0; `gamma_contained` iff gamma on J^c
    is zero.  Each is a slice of rows J, then of columns, with no
    elimination.  Any other V takes Howell forms.
    """
    if V.ambient != pres.d or V.modulus != pres.mod.q:
        raise ValueError("V does not live in H^1 of the presentation")
    action.require_acts_on(pres)
    coh = invariants(pres)
    p, q, maximal = pres.mod.p, pres.mod.q, pres.n // 2 + 1
    J = V.coordinate_indices
    if J is not None:
        J = list(J)
        rest = np.ones(pres.d, dtype=bool)
        rest[J] = False
        gamma_rest, rows = delta_map(pres, 1)[rest], action.h1_matrix.T[J]
        block = rows[:, J]
        diagonal = np.count_nonzero(block) == np.count_nonzero(block.diagonal())
        unimodular = bool((block.diagonal() % p).all()) if diagonal else Submodule(block % p, len(J), p).ngens == len(J)
        free = not gamma_rest.any() or bool((gamma_rest % p).any())
        invariant = unimodular and not rows[:, rest].any()
        isotropic = not coh.cup.gram[J][:, J].any()
        in_ker = not coh.bockstein[J].any()
        gamma_contained = not gamma_rest.any() if len(J) == maximal else None
    else:
        gamma = gamma_line(pres)
        v_free = V.is_free
        free = v_free and Submodule(np.vstack([V.basis, gamma.basis]), pres.d, q).is_free
        invariant = V.image_under(action.h1_matrix.T) == V
        isotropic = is_totally_isotropic(coh.cup, V)
        in_ker = not matmul_mod(V.basis, coh.bockstein, q).any() if V.ngens else True
        gamma_contained = V.contains_submodule(gamma) if v_free and V.rank == maximal else None
    return IsotropicSubmodule(V, free, invariant, isotropic, in_ker, gamma_contained)


def build_V(
    pres: DemushkinPresentation, action: InvolutionAction, sig: Signature
) -> IsotropicSubmodule:
    """The explicit maximal V with signature (u+, u-), one dual per slot
    of the module docstring: the dual of g from slot 0, and from slot
    k >= 1 the dual of the fixed x_(2k) (index 2k + 1) for k <= u+ and of
    the negated x_(2k-1) (index 2k) for k > u+.
    """
    action.require_acts_on(pres)
    sig = Signature(*sig)
    n = pres.n
    if sig.u_plus < 0 or sig.u_minus < 0 or sig.u_plus + sig.u_minus != n // 2:
        raise ValueError(
            f"signature {sig} does not satisfy u+ + u- = n/2 = {n // 2}"
        )
    _require_clean_standard(pres, action)
    if action.h2_scalar != -1:
        raise ValueError("signature targets need an action with h2_scalar = -1")
    idx = [0] + [2 * k + (k <= sig.u_plus) for k in range(1, n // 2 + 1)]
    iso = validate_V(pres, action, Submodule.coordinate(idx, pres.d, pres.mod.q))
    if not iso.ok or iso.rank != n // 2 + 1 or iso.gamma_contained is not True:
        raise AssertionError(
            "explicitly constructed V failed validation; engine inconsistency"
        )
    return iso


def _require_clean_standard(pres: DemushkinPresentation, action: InvolutionAction):
    """The builder entry points work in the symmetrized standard frame."""
    # the standard relator is parsed once per (n, modulus), so it is mostly the same object
    standard = standard_relator(pres.n, pres.mod)
    if pres.relator is not standard and pres.relator != standard:
        raise ValueError("expected the standard relator; symmetrize the basis first")
    if not (action.is_trivial or np.array_equal(action.signs, standard_sign_pattern(pres.n))):
        raise ValueError(
            "expected the clean diagonal involution; symmetrize the action first"
        )


def _unit_partner(rows: np.ndarray, w: np.ndarray, mod) -> np.ndarray | None:
    """The first row r with r . w a unit, scaled so that r . w = 1."""
    vals = matmul_mod(rows, w, mod.q)
    hits = np.flatnonzero(vals % mod.p)
    if not hits.size:
        return None
    return (rows[hits[0]] * pow(int(vals[hits[0]]), -1, mod.q)) % mod.q


def _cyclotomic_partner(rows: np.ndarray, w: np.ndarray, bvec: np.ndarray, mod) -> np.ndarray | None:
    """An element u of the span of `rows` with u . w a unit and B(u) = 1.

    With r_i the first row of unit B-value and r_j the first row with
    r_j . w a unit, the first of r_i, r_j, r_i + r_j that has both is the
    first hit of a scan over coefficient vectors in counting order (row 0
    the fastest digit): combinations of earlier rows have neither unit.
    """
    units = matmul_mod(rows, np.stack([bvec, w], axis=1), mod.q) % mod.p != 0
    if not units.any(axis=0).all():
        return None
    r_i, r_j = rows[units.argmax(axis=0)]
    cands = np.array([r_i, r_j, r_i + r_j]) % mod.q
    return _unit_partner(cands[matmul_mod(cands, w, mod.q) % mod.p != 0], bvec, mod)


def _symplectic_frame(pres: DemushkinPresentation, hplus: Submodule, hminus: Submodule, queue) -> np.ndarray:
    """Rows of the adapted dual basis, in generator order, by the
    symplectic completion of the module docstring, checked to reproduce the
    pairing; `queue` lists V's basis vectors with the eigenspace ("plus" or
    "minus") of each."""
    mod, q = pres.mod, pres.mod.q
    coh = invariants(pres)
    gram, bvec = coh.cup.gram, coh.bockstein
    plus_k, minus_k = (h.annihilated_by(bvec.reshape(-1, 1)) for h in (hplus, hminus))
    slots = [None] * (pres.n // 2 + 1)  # (a, b) per hyperbolic pair
    placed: list[np.ndarray] = []

    def working_rows(space: Submodule, pending=()) -> np.ndarray:
        others = placed + list(pending)
        if others:
            space = space.annihilated_by(matmul_mod(gram, np.array(others).T, q))
        return space.basis

    def fill(a, b, slot=None):
        if slot is None:
            if None not in slots[1:]:
                raise AssertionError("ran out of hyperbolic slots; engine inconsistency")
            slot = slots.index(None, 1)
        slots[slot] = (a, b)
        placed.extend((a, b))

    def pair_minus(b, pending=(), slot=None):
        a = _unit_partner(working_rows(plus_k, pending), matmul_mod(gram, b, q), mod)
        if a is None:
            raise AssertionError("no partner in H+ for a vector of H-")
        fill(a, b, slot)

    for k, (vec, side) in enumerate(queue):
        pending = [v for v, _ in queue[k + 1 :]]
        if side == "minus":
            pair_minus(vec, pending)
            continue
        b = _unit_partner(working_rows(minus_k, pending), matmul_mod(vec, gram, q), mod)
        if b is not None:
            fill(vec, b)
            continue
        if slots[0] is not None:
            raise AssertionError("distinguished slot already used")
        b = _cyclotomic_partner(working_rows(hminus, pending), matmul_mod(vec, gram, q), bvec, mod)
        if b is None:
            raise AssertionError("no partner for a validated V vector")
        fill((vec * pow(int(matmul_mod(matmul_mod(vec, gram, q), b, q)), -1, q)) % q, b, slot=0)
    if slots[0] is None:
        b0 = _unit_partner(working_rows(hminus), bvec, mod)
        if b0 is None:
            raise AssertionError("no unit Bockstein value available")
        pair_minus(b0, slot=0)
    while None in slots:
        rows = working_rows(minus_k)
        free = rows[(rows % mod.p).any(axis=1)]
        if not len(free):
            raise AssertionError("no free direction left for a generic slot")
        pair_minus(free[0])
    t_star = np.array([slots[0][0], slots[0][1]] + [x for a, b in slots[1:] for x in (b, a)])
    if not np.array_equal(matmul_mod(matmul_mod(t_star, gram, q), t_star.T, q), gram):
        raise AssertionError("adapted dual basis does not reproduce the standard pairing")
    return t_star


def _build_adapted_change(
    pres: DemushkinPresentation, action: InvolutionAction, iso: IsotropicSubmodule
) -> ClassTwoEndo | None:
    """The change of basis adapted to V, or None when V is already a
    coordinate span and the standard frame is adapted."""
    q = pres.mod.q
    d = pres.d
    V = iso.V
    if V.coordinate_indices is not None:
        return None

    if action.is_trivial:
        hplus = hminus = Submodule.full(d, q)
        vplus, vminus = V, Submodule.zero(d, q)
    else:
        plus, minus = (np.flatnonzero(action.signs == s) for s in (1, -1))
        hplus, hminus = Submodule.coordinate(plus, d, q), Submodule.coordinate(minus, d, q)
        # an eigenpart is the part of V with no coordinate of the other sign
        eye = np.eye(d, dtype=np.int64)
        vplus, vminus = V.annihilated_by(eye[:, minus]), V.annihilated_by(eye[:, plus])
        if not (vplus.is_free and vminus.is_free):
            raise AssertionError("eigenparts of a validated V must be free")
        if vplus.rank + vminus.rank != V.rank:
            raise AssertionError("V does not split along the eigenspaces")
    # the plus list starts with the cyclotomic direction when V holds it
    gvec = delta_map(pres, 1)
    plus_rows = vplus.free_basis([gvec % q] if V.contains(gvec) else [])
    minus_rows = vminus.free_basis()
    if len(plus_rows) != vplus.rank or len(minus_rows) != vminus.rank:
        raise AssertionError("failed to pick free bases of the eigenparts of V")

    queue = [(row, "plus") for row in plus_rows] + [(row, "minus") for row in minus_rows]
    t_star = _symplectic_frame(pres, hplus, hminus, queue)
    t_gen = inv_mod(t_star, q).T % q
    return ClassTwoEndo.linear(pres.gens, pres.mod, t_gen)


@dataclass(frozen=True, slots=True)
class FreeQuotientCertificate:
    """Outcome of the kill construction, green or red."""

    basis_change: ClassTwoEndo
    killed: tuple[str, ...]
    kept: tuple[str, ...]
    signature: Signature | None
    flags: dict[str, bool]
    V_realized: Submodule
    note: str

    @property
    def all_green(self) -> bool:
        return all(self.flags.values())

    def to_json(self) -> dict:
        return {
            "basis_change": self.basis_change.to_json()["images"],
            "killed": list(self.killed),
            "kept": list(self.kept),
            "signature": list(self.signature) if self.signature is not None else None,
            "flags": {k: bool(v) for k, v in self.flags.items()},
            "V": self.V_realized.to_json(),
            "lifting_note": self.note,
        }

    def __repr__(self):
        state = "green" if self.all_green else "red"
        return (
            f"FreeQuotientCertificate({state}, kept={self.kept}, "
            f"signature={self.signature})"
        )


_PIPELINE_FLAGS = ("relator_contained", "delta_invariant_kill", "surjective_mod_F2")


def free_quotient(
    pres: DemushkinPresentation, action: InvolutionAction, V
) -> FreeQuotientCertificate:
    """Run the full construction; failures surface as red flags, not errors.

    A coordinate span V = span(e_J) needs no change of basis in the standard
    frame: J, read once per V (`Submodule.coordinate_indices`), is the set
    of kept generators.  Any other V takes the adapted change of the module
    docstring, and the kept generators are V's index set in the new
    coordinates.  The relator dies iff its exponents on the kept generators
    and their pairs vanish; the clean action is diagonal in either frame."""
    action.require_acts_on(pres)
    iso = V if isinstance(V, IsotropicSubmodule) else validate_V(pres, action, V)
    flags = iso.flag_dict()
    if not iso.ok:
        flags.update({name: False for name in _PIPELINE_FLAGS})
        return FreeQuotientCertificate(
            basis_change=ClassTwoEndo.identity(pres.gens, pres.mod),
            killed=(),
            kept=(),
            signature=None,
            flags=flags,
            V_realized=iso.V,
            note="validation failed; no quotient constructed",
        )
    _require_clean_standard(pres, action)
    change = _build_adapted_change(pres, action, iso)
    total = ClassTwoEndo.identity(pres.gens, pres.mod)
    if change is not None:
        # the rows of the change lie in the eigenspaces, so it commutes with
        # the involution up to central terms, and one correction absorbs them
        try:
            total = symmetrized_change(action.endo, action.signs, change)
        except ValueError as exc:
            raise AssertionError(f"adapted change mixes the eigenspaces of the involution: {exc}") from None
        # w is standard, so total^-1(w) is the standard relator iff total fixes w
        if total(pres.relator) != pres.relator:
            raise AssertionError("final frame lost the standard relator shape")

    # an adapted standard frame is its own new coordinates
    new_coords = iso.V if change is None else iso.V.image_under(total.linear_matrix.T)
    kept_idx = new_coords.coordinate_indices
    if kept_idx is None:
        raise AssertionError("final frame does not realize V on generator duals")
    killed_idx = sorted(set(range(pres.d)).difference(kept_idx))
    labels = pres.gens.labels
    kept, killed = tuple(labels[i] for i in kept_idx), tuple(labels[i] for i in killed_idx)
    flags["relator_contained"] = bool(quotient_kill(killed, pres.relator).is_identity) if kept else True
    # a diagonal sigma sends each killed g_k to g_k^(e_k), which dies with g_k
    flags["delta_invariant_kill"] = action.endo.diagonal is not None
    # kept generators project onto the quotient mod squares by construction
    flags["surjective_mod_F2"] = True

    # the clean action is diagonal, +1 or -1 on each generator
    kept_signs = action.signs[list(kept_idx)]
    sig = Signature(int((kept_signs == 1).sum()) - 1, int((kept_signs == -1).sum()))
    return FreeQuotientCertificate(
        basis_change=total,
        killed=killed,
        kept=kept,
        signature=sig,
        flags=flags,
        V_realized=iso.V,
        note=LIFTING_NOTE,
    )


def signature_of(cert: FreeQuotientCertificate, action: InvolutionAction) -> Signature:
    """Eigen-rank data of the induced action on the quotient mod squares,
    as `free_quotient` measured it: (rank of the +1 part minus the
    cyclotomic line, rank of the -1 part)."""
    if not cert.all_green:
        raise ValueError("signature is only defined for green certificates")
    return cert.signature


def uniqueness_check(
    pres: DemushkinPresentation,
    action: InvolutionAction,
    cert: FreeQuotientCertificate,
) -> bool:
    """Compare the kill kernel with the coinvariants kernel inside the
    class-2 quotient; equality certifies the trivial-signature quotient is
    the maximal one with trivial action.

    Each kernel is the normal closure of the relator and a few bases: the
    difference relators g_i^-1 sigma(g_i) for the coinvariants, the killed
    tau(g_k) for the certificate.  Each side's bases are tested in the
    other side's `KillQuotient`: the killed tau(g_k) in the coinvariants,
    which are the kill of the negated generators in the identity frame as
    the action is clean, and the difference relators in the certificate's
    quotient, the kill of `cert.killed` in the frame tau."""
    action.require_acts_on(pres)
    if not cert.all_green:
        raise ValueError("uniqueness check needs a green certificate")
    if cert.signature != Signature(pres.n // 2, 0):
        raise ValueError(
            f"uniqueness check applies to signature ({pres.n // 2}, 0); "
            f"certificate has {cert.signature}"
        )
    if action.h2_scalar != -1:
        raise ValueError("uniqueness check needs an action with h2_scalar = -1")
    # the coinvariants are read in the identity frame, which is clean
    _require_clean_standard(pres, action)
    tau = cert.basis_change
    # a certificate in the standard frame (its change is diagonal, all ones) needs no change of coordinates
    tau_inv = None if np.array_equal(tau.diagonal, np.ones(pres.d)) else invert_auto(tau)
    negated = [lab for lab, s in zip(pres.gens.labels, action.signs) if s == -1]
    # tau(g_k) is the k-th image of tau
    kills = tau.images[[pres.gens.index(lab) for lab in cert.killed]]
    coinv = KillQuotient(pres.relator, None, negated, kills)
    kill = KillQuotient(pres.relator, tau_inv, cert.killed, action.endo.defects())
    return coinv.bases_die() and kill.bases_die()
