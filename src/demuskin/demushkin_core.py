"""Demushkin presentations at the class-2 window and their involutions.

A presentation of rank n+2 carries the basis g, x0, ..., xn, the relator

    w = x0^q [x0, g] [x1, x2] ... [x_(n-1), x_n]

(any class-3 tail is invisible in F/F^3) and a character giving the action
on the dualizing data mod q^2.  From the collected relator one reads off the
cup-product gram matrix (the antisymmetrized commutator coordinates) and the
Bockstein vector (the generator exponents divided by q).

An involution of the truncated group carries the matrix it induces on H^1
and the scalar by which it acts on H^2, i.e. the power t with w -> w^t.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from demuskin.class2_words import (
    ClassTwoElement,
    ClassTwoEndo,
    GeneratorSet,
    KillQuotient,
    central_sqrt,
    compose,
    demushkin_generators,
    format_word,
    invert_auto,
    parse_word,
)
from demuskin.zq_linalg import (
    BilinearForm,
    Modulus,
    Submodule,
    as_integer,
    eigen_split,
    exact_dtype,
    integers_mod,
    kernel,
    matmul_mod,
)


class CharacterData:
    """One unit of Z/q^2 per generator; the values are 1 mod q.

    The congruence is forced by q being the size of the fixed part of the
    dualizing module, and it is what makes the connecting map below integral.
    """

    __slots__ = ("values",)

    def __init__(self, values, mod: Modulus):
        vals = integers_mod(values, mod.q2, "character values")
        if vals.ndim != 1:
            raise ValueError(f"character values must be a flat list, got an array of shape {vals.shape}")
        if ((vals % mod.p) == 0).any():
            raise ValueError("character values must be units")
        if ((vals - 1) % mod.q).any():
            raise ValueError("character values must be congruent to 1 mod q")
        vals.setflags(write=False)
        self.values = vals

    @classmethod
    def default(cls, gens: GeneratorSet, mod: Modulus) -> "CharacterData":
        """chi(g) = 1 + q on the first generator, 1 elsewhere."""
        vals = np.ones(gens.d, dtype=np.int64)
        vals[0] = 1 + mod.q
        return cls(vals, mod)

    def __eq__(self, other):
        return isinstance(other, CharacterData) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        return f"CharacterData({self.values.tolist()})"


@lru_cache(maxsize=None)
def standard_relator(n: int, mod: Modulus) -> ClassTwoElement:
    """x0^q [x0, g] [x1, x2] ... [x_(n-1), x_n] in normal form, parsed once
    per (n, modulus)."""
    word = [f"x0^{mod.q}", "[x0,g]"] + [f"[x{k},x{k + 1}]" for k in range(1, n, 2)]
    return parse_word(" ".join(word), demushkin_generators(n), mod)


MAX_N = 960


def check_rank(n: int) -> int:
    """n, or a ValueError naming MAX_N, the largest rank parameter taken
    from input: the largest at which `quotient` has been timed (a few
    seconds and about 100 MB)."""
    if n > MAX_N:
        raise ValueError(f"rank parameter n = {n} is past the bound n <= {MAX_N}")
    return n


class DemushkinPresentation:
    """Rank n+2 one-relator data at the class-2 truncation."""

    __slots__ = ("n", "mod", "gens", "relator", "chi", "_cohomology")

    def __init__(
        self,
        n: int,
        mod: Modulus,
        relator: ClassTwoElement | None = None,
        chi: CharacterData | None = None,
        gens: GeneratorSet | None = None,
    ):
        if n < 0 or n % 2:
            raise ValueError(f"rank parameter n must be even and >= 0, got {n}")
        self.n = n
        self.mod = mod
        self.gens = gens if gens is not None else demushkin_generators(n)
        if self.gens.d != n + 2:
            raise ValueError("generator count must be n + 2")
        self.relator = relator if relator is not None else standard_relator(n, mod)
        if self.relator.gens != self.gens or self.relator.mod != mod:
            raise ValueError("relator lives in a different truncated group")
        if not self.relator.is_central:
            raise ValueError("relator must lie in F^2 (gen_exp divisible by q)")
        self.chi = chi if chi is not None else CharacterData.default(self.gens, mod)
        if len(self.chi.values) != self.gens.d:
            raise ValueError("character needs one value per generator")
        self._cohomology = None  # filled by invariants() on first use

    @classmethod
    def standard(cls, n: int, mod: Modulus) -> "DemushkinPresentation":
        return cls(n, mod)

    @property
    def d(self) -> int:
        return self.gens.d

    def to_json(self) -> dict:
        return {
            "p": self.mod.p,
            "f": self.mod.f,
            "n": self.n,
            "labels": list(self.gens.labels),
            "relator": format_word(self.relator),
            "chi": [int(v) for v in self.chi.values],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DemushkinPresentation":
        """The inverse of to_json.  A value that is not a JSON object, labels
        or chi that are not a list, and n past MAX_N are each a ValueError
        naming what they are, raised before anything is allocated.  Labels
        other than g, x0, ..., xn need a relator of their own."""
        if not isinstance(data, dict):
            raise ValueError(f"a presentation must be a JSON object, got {type(data).__name__}")
        for key in ("labels", "chi"):
            if key in data and not isinstance(data[key], list):
                raise ValueError(f"{key} must be a JSON list, got {type(data[key]).__name__}")
        mod = Modulus(as_integer(data["p"], "p"), as_integer(data["f"], "f"))
        n = check_rank(as_integer(data["n"], "n"))
        gens = (
            GeneratorSet(data["labels"]) if "labels" in data else demushkin_generators(n)
        )
        relator = None
        if "relator" in data:
            raw = data["relator"]
            if isinstance(raw, str):
                relator = parse_word(raw, gens, mod)
            else:
                relator = ClassTwoElement.from_json(raw, gens, mod)
        elif gens.d == n + 2 and gens != demushkin_generators(n):
            raise ValueError(f"labels {list(gens.labels)} need a relator: the standard relator is written in g, x0, ..., x{n}")
        chi = CharacterData(data["chi"], mod) if "chi" in data else None
        return cls(n, mod, relator=relator, chi=chi, gens=gens)

    def __repr__(self):
        return (
            f"DemushkinPresentation(n={self.n}, q={self.mod.q}, "
            f"relator={format_word(self.relator)})"
        )


@dataclass(frozen=True)
class CohomologyData:
    """Cup form and Bockstein vector read off the collected relator."""

    cup: BilinearForm
    bockstein: np.ndarray
    cup_nondegenerate: bool
    bockstein_surjective: bool

    @property
    def is_demushkin(self) -> bool:
        return self.cup_nondegenerate and self.bockstein_surjective


def invariants(pres: DemushkinPresentation) -> CohomologyData:
    """Gram matrix G = the relator's commutator_form, B[i] = a_i / q, as read-only
    arrays, computed once per presentation (its attributes are never reassigned)."""
    if pres._cohomology is not None:
        return pres._cohomology
    q = pres.mod.q
    w = pres.relator
    cup = BilinearForm(w.commutator_form, q)
    bockstein = (w.gen_exp // q) % q
    bockstein.setflags(write=False)
    surjective = bool(((bockstein % pres.mod.p) != 0).any())
    pres._cohomology = CohomologyData(
        cup=cup,
        bockstein=bockstein,
        cup_nondegenerate=cup.is_nondegenerate(),
        bockstein_surjective=surjective,
    )
    return pres._cohomology


def delta_map(pres: DemushkinPresentation, i: int) -> np.ndarray:
    """Dual vector of the connecting homomorphism on the i-th root of unity.

    Coordinate k is i * (chi(g_k) - 1)/q mod q; with the default character
    this is i on the first generator and 0 elsewhere.
    """
    q = pres.mod.q
    return (i * ((pres.chi.values - 1) // q)) % q


def gamma_line(pres: DemushkinPresentation) -> Submodule:
    """Span of the dual vector cutting out the cyclotomic quotient."""
    return Submodule(delta_map(pres, 1).reshape(1, -1), pres.d, pres.mod.q)


def bockstein_kernel(pres: DemushkinPresentation) -> Submodule:
    coh = invariants(pres)
    return kernel(coh.bockstein, pres.mod.q)


class NotAnInvolutionError(ValueError):
    """The endomorphism does not square to the identity on F/F^3."""


class RelatorNotPreservedError(ValueError):
    """The endomorphism carries the relator to neither w nor w^-1."""


class InvolutionAction:
    """An order <= 2 automorphism of F/F^3 compatible with the relator.

    Carries the induced matrix on H^1, the read-only matrix of generator
    images mod q (`endo.linear_matrix`), and the H^2 scalar, i.e. the sign
    t with w -> w^t.  The identity (h1_matrix)^T . gram . h1_matrix =
    t . gram is verified on construction; at this truncation it is a
    consequence of the relator condition, so a failure is reported loudly.
    `signs` is the read-only vector s with endo(g_i) = g_i^(s_i) exactly,
    s_i = +-1, or None when some image is not of that form.
    """

    __slots__ = ("endo", "h1_matrix", "h2_scalar", "coherence_ok", "_signs")

    def __init__(self, endo, h2_scalar, coherence_ok=True):
        self.endo = endo
        self.h1_matrix = endo.linear_matrix
        self.h1_matrix.setflags(write=False)
        self.h2_scalar = h2_scalar
        self.coherence_ok = coherence_ok
        # clean: a diagonal map g_i -> g_i^(e_i) with every e_i = +-1 mod q^2
        e = endo.diagonal
        self._signs = None
        if e is not None and ((e == 1) | (e == endo.mod.q2 - 1)).all():
            self._signs = np.where(e == 1, 1, -1)
            self._signs.setflags(write=False)

    @property
    def signs(self) -> np.ndarray | None:
        return self._signs

    def require_acts_on(self, pres: DemushkinPresentation):
        """A ValueError unless the endomorphism is one of the presentation's group."""
        if self.endo.gens != pres.gens or self.endo.mod != pres.mod:
            raise ValueError("endomorphism does not act on the presentation's group")

    @classmethod
    def build(cls, pres: DemushkinPresentation, endo: ClassTwoEndo) -> "InvolutionAction":
        """The action of an involution `endo` of the presentation's group,
        with t read off the image of the relator and the coherence
        L^T G L = t G checked mod q.  A diagonal endo g_i -> g_i^(e_i) has
        L = diag(e) mod q, so L^T G L is e_i e_j G_ij elementwise; any other
        takes two products."""
        action = cls(endo, None)
        L = action.h1_matrix
        action.require_acts_on(pres)
        # g -> g^(+-1) squares to 1 by the power formula: no d^4 composition;
        # any other square is the identity iff it is diagonal with all ones
        if action.signs is None and not np.array_equal(compose(endo, endo).diagonal, np.ones(pres.d)):
            raise NotAnInvolutionError("endomorphism does not square to the identity on F/F^3")
        # an involution carrying w to a power w^t has t^2 = 1 modulo the
        # order of w, a power of the odd p, so w^t is w or w^-1
        w = pres.relator
        image = endo(w)
        if image == w:
            t = 1
        elif image == w.inverse():
            t = -1
        else:
            raise RelatorNotPreservedError(
                "relator is not carried to a power of itself; "
                "the action does not descend to the one-relator quotient"
            )
        q, gram = pres.mod.q, invariants(pres).cup.gram
        if endo.diagonal is None:
            twisted = matmul_mod(matmul_mod(L.T, gram, q), L, q)
        else:
            # reduced after each product, so every intermediate stays below q^2
            e1 = L.diagonal().astype(exact_dtype(q * q))
            twisted = e1[:, None] * gram % q * e1 % q
        coherent = not ((twisted - t * gram) % q).any()
        if not coherent:
            warnings.warn(
                "cup-form coherence (M^T G M = t G) failed; this should be "
                "impossible at the class-2 truncation",
                stacklevel=2,
            )
        action.h2_scalar, action.coherence_ok = t, coherent
        return action

    @property
    def is_trivial(self) -> bool:
        return self._signs is not None and bool((self._signs == 1).all())

    def h1_eigenspaces(self) -> tuple[Submodule, Submodule]:
        """(plus, minus) eigenspaces of the action on H^1 coordinate rows.

        Dual vectors transform by phi -> phi . L^T, so split with the
        transpose.
        """
        return eigen_split(self.h1_matrix.T, self.endo.mod.q)

    def f2_eigenspaces(self) -> tuple[Submodule, Submodule]:
        """(plus, minus) eigenspaces on F/F^2, where rows map by a -> a . L."""
        return eigen_split(self.h1_matrix, self.endo.mod.q)

    def __repr__(self):
        return f"InvolutionAction(h2_scalar={self.h2_scalar}, endo={self.endo!r})"


def standard_sign_pattern(n: int) -> np.ndarray:
    """+1 on g and even x, -1 on x0 and odd x (generator index order)."""
    signs = np.ones(n + 2, dtype=np.int64)
    signs[1] = -1  # x0
    signs[2::2] = -1  # x_j at index j + 1, j odd
    return signs


def standard_involution(pres: DemushkinPresentation) -> InvolutionAction:
    """g -> g, x0 -> x0^-1, odd x -> inverse, even x -> fixed."""
    if pres.relator != standard_relator(pres.n, pres.mod):
        raise ValueError("the standard involution needs the standard relator")
    endo = ClassTwoEndo.linear(pres.gens, pres.mod, np.diag(standard_sign_pattern(pres.n)))
    return InvolutionAction.build(pres, endo)


def lift_involution(
    pres: DemushkinPresentation, linear, perturbation: ClassTwoEndo
) -> InvolutionAction:
    """Correct a lift of an order-2 linear action to an exact involution.

    The square of the perturbation sigma reduces to the identity mod F^2, so
    it lies in the kernel of Aut(F/F^3) -> Aut(F/F^2).  That kernel is
    abelian of exponent q: it sends g_i -> g_i z_i with z_i central and fixes
    F^2/F^3, so its m-th power sends g_i -> g_i z_i^m.  Hence sigma^q =
    sigma . (sigma^2)^((q-1)/2) is one closed form in the defects z_i of
    sigma^2; it squares to the identity, which InvolutionAction.build checks,
    and as q is odd it has sigma's linear part.
    """
    mod = pres.mod
    lin = np.mod(np.asarray(linear, dtype=np.int64), mod.q)
    d = pres.d
    if lin.shape != (d, d):
        raise ValueError("linear part has the wrong shape")
    if not np.array_equal(matmul_mod(lin, lin, mod.q), np.eye(d, dtype=np.int64)):
        raise ValueError("prescribed linear part is not an involution mod q")
    if not np.array_equal(perturbation.linear_matrix, lin):
        raise ValueError("perturbation does not reduce to the prescribed linear part")
    z = compose(perturbation, perturbation).defects()
    corrected = compose(perturbation, ClassTwoEndo.times_central(z ** ((mod.q - 1) // 2)))
    if not np.array_equal(corrected.linear_matrix, lin):
        raise AssertionError("order correction changed the linear part")
    return InvolutionAction.build(pres, corrected)


def _linear_signs(endo: ClassTwoEndo) -> np.ndarray | None:
    """The read-only s, s_i = +-1, with linear part diag(s) mod q: every
    image is g_i^(s_i) times a central element.  None when there is none."""
    lin = endo.linear_matrix
    signs = np.where(lin.diagonal() == 1, 1, -1)
    signs.setflags(write=False)
    return signs if np.array_equal(lin, np.diag(signs) % endo.mod.q) else None


def symmetrized_change(endo: ClassTwoEndo, signs, change: ClassTwoEndo | None = None) -> ClassTwoEndo:
    """The change tau . rho after which `endo` acts as diag(signs), where
    tau = `change` (the identity when None) has its rows in the eigenspaces.

    With y_i = tau(g_i), the defects D_i = y_i^(-s_i) endo(y_i) are tau of
    those of the conjugate tau^-1 . endo . tau, which its symmetrizing
    change rho takes central square roots of; such roots are unique (q is
    odd), so the total sends g_i to y_i sqrt(D_i)^(s_i), with no conjugate,
    inverse or composite built.  One application checks it: endo(total(g_i))
    = total(g_i)^(s_i) for all i iff total^-1 . endo . total = diag(signs).
    A non-central D_i is a ValueError, a failed check an AssertionError.
    """
    s = np.asarray(signs, dtype=np.int64)
    # row i: y^-1 endo(y) = a for a fixed generator, y endo(y) = b for a
    # negated one
    defects = endo.defects(s) if change is None else change.images**-s * endo(change.images)
    off = ~defects.is_central
    if off.any():
        kind = "fixed" if s[off.argmax()] == 1 else "negated"
        raise ValueError(f"perturbation of a {kind} generator is not central")
    roots = central_sqrt(defects) ** s
    total = ClassTwoEndo.times_central(roots) if change is None else ClassTwoEndo(change.images * roots)
    if ClassTwoEndo(endo(total.images)) != ClassTwoEndo(total.images**s):
        raise AssertionError("symmetrization did not produce a clean action")
    return total


def clean_frame(action: InvolutionAction) -> tuple[ClassTwoEndo | None, ClassTwoEndo | None, np.ndarray]:
    """(tau, tau^-1, s) with tau^-1 . sigma . tau = diag(s), sigma the action.

    A clean action is its own frame: (None, None, its signs).  A product-shape
    one is symmetrized by central square roots (`symmetrized_change` with no
    change to start from); that tau is the identity mod F^2, so it fixes its
    central defects, and dividing them back out inverts it.  Any other
    action starts from free bases of its eigenspaces on F/F^2, the plus part
    first: their rows are a linear change that commutes with sigma up to
    central terms, `symmetrized_change` absorbs them, and `invert_auto`
    inverts the total.
    """
    if action.signs is not None:
        return None, None, action.signs
    endo = action.endo
    signs = _linear_signs(endo)
    if signs is not None:
        tau = symmetrized_change(endo, signs)
        return tau, ClassTwoEndo.times_central(tau.defects() ** -1), signs
    plus, minus = (space.free_basis() for space in action.f2_eigenspaces())
    if len(plus) + len(minus) != endo.gens.d:
        raise AssertionError("eigenspace ranks do not fill the module")
    signs = np.repeat([1, -1], [len(plus), len(minus)])
    tau = symmetrized_change(endo, signs, ClassTwoEndo.linear(endo.gens, endo.mod, np.array(plus + minus)))
    return tau, invert_auto(tau), signs


def symmetrize_basis(
    pres: DemushkinPresentation, action: InvolutionAction
) -> tuple[ClassTwoEndo, ClassTwoEndo]:
    """Absorb central perturbations into the basis via central square roots.

    For sigma(g) = g . a the new generator is g . a^(1/2); for
    sigma(g) = g^-1 . b it is b^(-1/2) . g.  Returns (basis, clean_endo):
    the basis change, which is unipotent (`clean_frame` of a product-shape
    action), and the clean action diag(+-1), which the basis change is
    checked to conjugate the action to.  The relator in the new basis is the
    relator itself, as g_i -> g_i z_i with z_i central fixes F^2/F^3
    pointwise and the relator lies there.  An action that is already clean
    keeps the identity basis.
    """
    if action.signs is None and _linear_signs(action.endo) is None:
        raise ValueError(
            "action is not of product shape: each generator must map to "
            "itself or its inverse times a central element"
        )
    gens, mod = pres.gens, pres.mod
    basis, _, signs = clean_frame(action)
    if basis is None:
        return ClassTwoEndo.identity(gens, mod), action.endo
    return basis, ClassTwoEndo.linear(gens, mod, np.diag(signs))


class CoinvariantMachine(KillQuotient):
    """The coinvariant truncation: the kill quotient of the action's clean
    frame, with the difference relators as bases, and the outcome read off it.

    `clean_frame` gives tau with tau^-1 . sigma . tau = diag(s).  In the
    basis h_i = tau(g_i) an h_i with s_i = -1 satisfies h_i = h_i^-1 in the
    coinvariants, so with 2 invertible it dies: `project(u)` kills those
    generators in tau^-1(u) and lands in the truncated free group on the
    kept ones, where `kept_chi` is the character moved through tau's linear
    part.  A clean action is its own frame, and `project` is the kill.

    The relator image is the only relation left.  For a kept g of a
    product-shape action, sigma(g) = g D with D central and, as sigma^2 = 1,
    sigma(D) = D^-1.  sigma acts on F^2/F^3 by s_j on the q-power slot of
    g_j and by s_i s_j on the commutator slot of (g_i, g_j), so it fixes
    every coordinate that touches only kept generators; D has none, and it
    projects to 1.  In general the kill k satisfies k . diag(s) = k, so
    u^-1 sigma(u) projects to k(v)^-1 k(v) = 1 with v = tau^-1(u).  The
    difference relators g_i^-1 sigma(g_i), the bases, are checked to
    project to 1.

    The outcome: `rank` counts the kept generators; `kind` is "free" when
    the relator image is the identity and "demushkin" otherwise, with
    m = rank - 2, the image as `induced_relator` and, for even m >= 0, the
    `induced` invariants of the presentation it gives with `kept_chi`;
    `warnings` names an odd or negative m and a degenerate induced pairing.
    """

    def __init__(self, pres: DemushkinPresentation, action: InvolutionAction):
        tau, tau_inv, signs = clean_frame(action)
        mod = pres.mod
        kept = np.flatnonzero(signs == 1)
        if not len(kept):
            raise ValueError("no generator survives; the coinvariants are trivial")
        eliminated = [lab for lab, s in zip(pres.gens.labels, signs) if s == -1]
        super().__init__(pres.relator, tau_inv, eliminated, action.endo.defects())
        if not self.base_images.is_identity.all():
            raise AssertionError("a difference relator did not project to the identity")
        # chi is multiplicative and kills F^2, so it transforms through the
        # linear part T of tau: with chi(g_k) = 1 + q c_k mod q^2,
        # chi(h_i) = prod_k (1 + q c_k)^(T_ik) = 1 + q (T c)_i mod q^2
        chi = pres.chi.values
        if tau is not None:
            chi = 1 + mod.q * matmul_mod(tau.linear_matrix, delta_map(pres, 1), mod.q)
        self.kept_chi = [int(chi[i]) for i in kept]
        self.rank, wbar = len(kept), self.relator_image
        free = bool(wbar.is_identity)
        self.kind, self.m, self.induced_relator = ("free", None, None) if free else ("demushkin", self.rank - 2, wbar)
        self.induced, warns = None, []
        if not free and (self.m < 0 or self.m % 2):
            warns.append(
                f"coinvariant rank {self.rank} is not of the form m + 2 with m even "
                ">= 0; reporting raw truncation data"
            )
        elif not free:
            chi = CharacterData(self.kept_chi, mod)
            self.induced = invariants(DemushkinPresentation(self.m, mod, relator=wbar, chi=chi, gens=wbar.gens))
            if not self.induced.cup_nondegenerate:
                warns.append("induced pairing on the coinvariants is degenerate")
        self.warnings = tuple(warns)


def coinvariants(pres: DemushkinPresentation, action: InvolutionAction) -> CoinvariantMachine:
    """Rank and free/Demushkin dichotomy of the coinvariant truncation: the
    action's `CoinvariantMachine`, which carries them."""
    return CoinvariantMachine(pres, action)
