import dataclasses
import random
import warnings
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from demuskin import demushkin_core
from demuskin.class2_words import (
    ClassTwoElement,
    ClassTwoEndo,
    ClassTwoStack,
    central_sqrt,
    commutator,
    compose,
    demushkin_generators,
    invert_auto,
    parse_word,
)
from demuskin.demushkin_core import (
    CharacterData,
    CoinvariantMachine,
    DemushkinPresentation,
    InvolutionAction,
    NotAnInvolutionError,
    RelatorNotPreservedError,
    _linear_signs,
    bockstein_kernel,
    clean_frame,
    coinvariants,
    delta_map,
    gamma_line,
    invariants,
    lift_involution,
    standard_involution,
    standard_relator,
    standard_sign_pattern,
    symmetrize_basis,
    symmetrized_change,
)
from demuskin.zq_linalg import (
    BilinearForm,
    Modulus,
    Submodule,
    matmul_mod,
    orthogonal_complement,
)
from frame_reference import cohomology_fields, reference_coinvariants, transform_presentation

rng = random.Random(99173)

GRID = [(n, mod) for n in (0, 2, 4, 6) for mod in (Modulus(3, 1), Modulus(3, 2), Modulus(5, 1))]


def trivial_action(pres):
    """The identity as an action, for running the pipeline with no group acting."""
    return InvolutionAction.build(pres, ClassTwoEndo.identity(pres.gens, pres.mod))


def compose_power(e, k):
    """e^k for k >= 0, by square-and-multiply with compose."""
    result, base = ClassTwoEndo.identity(e.gens, e.mod), e
    while k:
        if k & 1:
            result = compose(result, base)
        base, k = compose(base, base), k >> 1
    return result


def random_central(pres, source=rng):
    d = pres.d
    mod = pres.mod
    ge = np.array([mod.q * source.randrange(mod.q) for _ in range(d)], dtype=np.int64)
    # one commutator exponent per pair i < j, in row-major order
    cm = [source.randrange(mod.q) for _ in range(d * (d - 1) // 2)]
    return ClassTwoElement(pres.gens, mod, ge, cm)


class TestStandardPresentation:
    def test_collected_coordinates_n2_q3(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        w = pres.relator
        assert list(w.gen_exp) == [0, 3, 0, 0]
        # [x0, g] at (0, 1), and [x1, x2] at (2, 3), inverted by the
        # convention; no other commutator
        assert w.to_json()["comm_exp"] == [[0, 1, 1], [2, 3, 2]]

    def test_small_rank_and_prime_power_cases(self):
        w0 = DemushkinPresentation.standard(0, Modulus(5, 1)).relator
        gens0 = demushkin_generators(0)
        assert w0 == parse_word("x0^5 [x0,g]", gens0, Modulus(5, 1))
        w4 = DemushkinPresentation.standard(4, Modulus(3, 2)).relator
        gens4 = demushkin_generators(4)
        assert w4 == parse_word("x0^9 [x0,g] [x1,x2] [x3,x4]", gens4, Modulus(3, 2))

    def test_relator_matches_letter_oracle(self):
        # rebuild the word one letter at a time
        mod = Modulus(3, 1)
        gens = demushkin_generators(2)
        g = ClassTwoElement.generator(gens, mod, "g")
        x0 = ClassTwoElement.generator(gens, mod, "x0")
        x1 = ClassTwoElement.generator(gens, mod, "x1")
        x2 = ClassTwoElement.generator(gens, mod, "x2")
        word = (
            x0 * x0 * x0
            * x0.inverse() * g.inverse() * x0 * g
            * x1.inverse() * x2.inverse() * x1 * x2
        )
        assert word == standard_relator(2, mod)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 3**12, 3**19])
    def test_closed_form_matches_the_product(self, q):
        mod = Modulus.from_q(q)
        for n in range(13):
            gens = demushkin_generators(n)
            x = [ClassTwoElement.generator(gens, mod, f"x{i}") for i in range(n + 1)]
            g = ClassTwoElement.generator(gens, mod, "g")
            w = x[0] ** mod.q * commutator(x[0], g)
            for k in range(1, n, 2):
                w = w * commutator(x[k], x[k + 1])
            assert standard_relator(n, mod) == w

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            DemushkinPresentation.standard(3, Modulus(3, 1))

    def test_json_round_trip(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 2))
        again = DemushkinPresentation.from_json(pres.to_json())
        assert again.relator == pres.relator
        assert again.chi == pres.chi

    @pytest.mark.parametrize("field,value", [("p", 3.9), ("f", 1.5), ("n", 2.2), ("p", True), ("n", "2")])
    def test_json_rejects_non_integral_parameters(self, field, value):
        data = {"p": 3, "f": 1, "n": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DemushkinPresentation.from_json(data)

    def test_json_accepts_coordinate_relator(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        data = pres.to_json()
        data["relator"] = pres.relator.to_json()
        again = DemushkinPresentation.from_json(data)
        assert again.relator == pres.relator


class TestInvariants:
    def test_gram_and_bockstein_n2_q3(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        coh = invariants(pres)
        gram = coh.cup.gram
        assert gram[0, 1] == 1 and gram[1, 0] == 2
        assert gram[2, 3] == 2 and gram[3, 2] == 1
        assert coh.cup_nondegenerate
        assert list(coh.bockstein) == [0, 1, 0, 0]
        assert coh.bockstein_surjective
        assert coh.is_demushkin

    def test_commutator_free_relator_is_degenerate(self):
        mod = Modulus(3, 1)
        gens = demushkin_generators(2)
        pres = DemushkinPresentation(
            2, mod, relator=parse_word("x0^3", gens, mod)
        )
        coh = invariants(pres)
        assert not coh.cup_nondegenerate
        assert not coh.is_demushkin

    def test_rank_two_case(self):
        pres = DemushkinPresentation.standard(0, Modulus(5, 1))
        coh = invariants(pres)
        assert coh.cup.gram[0, 1] == 1
        kerb = bockstein_kernel(pres)
        assert kerb == Submodule([[1, 0]], 2, 5)
        assert orthogonal_complement(coh.cup, kerb) == gamma_line(pres)

    @pytest.mark.parametrize("n,mod", GRID, ids=lambda v: str(v))
    def test_grid_nondegenerate_and_surjective(self, n, mod):
        coh = invariants(DemushkinPresentation.standard(n, mod))
        assert coh.cup_nondegenerate
        assert coh.bockstein_surjective

    def test_grid_q25(self):
        coh = invariants(DemushkinPresentation.standard(4, Modulus(5, 2)))
        assert coh.is_demushkin

    def test_computed_once_and_read_only(self):
        pres = DemushkinPresentation.standard(4, Modulus(3, 1))
        coh = invariants(pres)
        assert invariants(pres) is coh
        with pytest.raises(ValueError):
            coh.bockstein[0] = 1
        with pytest.raises(ValueError):
            coh.cup.gram[0, 1] = 0
        # a new presentation with the same data computes its own
        assert invariants(DemushkinPresentation.standard(4, Modulus(3, 1))) is not coh


class TestGammaLine:
    def test_delta_map_values(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        assert list(delta_map(pres, 0)) == [0, 0, 0, 0]
        assert list(delta_map(pres, 1)) == [1, 0, 0, 0]
        assert list(delta_map(pres, 2)) == [2, 0, 0, 0]

    @pytest.mark.parametrize("n,mod", GRID, ids=lambda v: str(v))
    def test_gamma_line_is_orthocomplement_of_bockstein_kernel(self, n, mod):
        pres = DemushkinPresentation.standard(n, mod)
        coh = invariants(pres)
        assert orthogonal_complement(coh.cup, bockstein_kernel(pres)) == gamma_line(pres)

    def test_exhaustive_cross_check_n2_q3(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        coh = invariants(pres)
        gram = coh.cup.gram
        kerb_vectors = [
            np.array(v)
            for v in cartesian(range(3), repeat=4)
            if (np.array(v) @ coh.bockstein) % 3 == 0
        ]
        perp = [
            v
            for v in (np.array(u) for u in cartesian(range(3), repeat=4))
            if all(v @ gram @ w % 3 == 0 for w in kerb_vectors)
        ]
        line = gamma_line(pres).basis
        expected = {tuple(int(x) for x in np.array(c) @ line % 3) for c in cartesian(range(3), repeat=len(line))}
        assert {tuple(int(x) for x in v) for v in perp} == expected

    def test_character_validation(self):
        mod = Modulus(3, 1)
        with pytest.raises(ValueError):
            CharacterData([3, 1, 1, 1], mod)  # not a unit
        with pytest.raises(ValueError):
            CharacterData([2, 1, 1, 1], mod)  # not 1 mod q


class TestStandardInvolution:
    def test_n2_q3_matrices(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        act = standard_involution(pres)
        assert np.array_equal(act.h1_matrix, np.diag([1, 2, 2, 1]))
        assert act.h2_scalar == -1
        assert act.coherence_ok
        plus, minus = act.h1_eigenspaces()
        assert (plus.rank, minus.rank) == (2, 2)

    def test_n0_q5(self):
        pres = DemushkinPresentation.standard(0, Modulus(5, 1))
        act = standard_involution(pres)
        assert np.array_equal(act.h1_matrix, np.diag([1, 4]))
        assert act.h2_scalar == -1

    @pytest.mark.parametrize("n,mod", GRID, ids=lambda v: str(v))
    def test_h1_matrix_is_the_read_only_linear_matrix(self, n, mod):
        act = standard_involution(DemushkinPresentation.standard(n, mod))
        assert np.array_equal(act.h1_matrix, act.endo.linear_matrix)
        with pytest.raises(ValueError):
            act.h1_matrix[0, 0] = 0

    @pytest.mark.parametrize("n,mod", GRID, ids=lambda v: str(v))
    def test_eigen_ranks_across_grid(self, n, mod):
        pres = DemushkinPresentation.standard(n, mod)
        act = standard_involution(pres)
        assert act.h2_scalar == -1
        plus, minus = act.h1_eigenspaces()
        assert plus.rank == n // 2 + 1
        assert minus.rank == n // 2 + 1

    def test_relator_maps_to_inverse(self):
        pres = DemushkinPresentation.standard(4, Modulus(3, 1))
        act = standard_involution(pres)
        assert act.endo(pres.relator) == pres.relator.inverse()

    def test_plus_scalar_action(self):
        # fix g and x0, negate x1 and x2: both commutators survive
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        images = [
            parse_word("g", pres.gens, pres.mod),
            parse_word("x0", pres.gens, pres.mod),
            parse_word("x1^-1", pres.gens, pres.mod),
            parse_word("x2^-1", pres.gens, pres.mod),
        ]
        act = InvolutionAction.build(pres, ClassTwoEndo(images))
        assert act.h2_scalar == 1

    def test_incompatible_involution_rejected(self):
        # swapping the two members of a commutator pair flips only part of
        # the relator, so no single power matches
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        images = [
            parse_word("g", pres.gens, pres.mod),
            parse_word("x0", pres.gens, pres.mod),
            parse_word("x2", pres.gens, pres.mod),
            parse_word("x1", pres.gens, pres.mod),
        ]
        with pytest.raises(ValueError, match="power"):
            InvolutionAction.build(pres, ClassTwoEndo(images))

    def test_non_involution_rejected(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        images = [
            parse_word("g x0", pres.gens, pres.mod),
            parse_word("x0", pres.gens, pres.mod),
            parse_word("x1", pres.gens, pres.mod),
            parse_word("x2", pres.gens, pres.mod),
        ]
        with pytest.raises(ValueError, match="square"):
            InvolutionAction.build(pres, ClassTwoEndo(images))

    def test_failures_are_typed(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        swap = [parse_word(w, pres.gens, pres.mod) for w in ("g", "x0", "x2", "x1")]
        with pytest.raises(RelatorNotPreservedError):
            InvolutionAction.build(pres, ClassTwoEndo(swap))
        shear = [parse_word(w, pres.gens, pres.mod) for w in ("g x0", "x0", "x1", "x2")]
        with pytest.raises(NotAnInvolutionError):
            InvolutionAction.build(pres, ClassTwoEndo(shear))

    def test_relator_of_order_below_q(self):
        # over q = 9 this relator has order 3, so w^-1 = w^2 and the sign
        # must be read as -1, not as the exponent 2
        pres = DemushkinPresentation.from_json(
            {"p": 3, "f": 2, "n": 0, "relator": "x0^27 [x0,g]^3"}
        )
        endo = ClassTwoEndo([parse_word("g", pres.gens, pres.mod), parse_word("x0^-1", pres.gens, pres.mod)])
        assert endo(pres.relator) == pres.relator.inverse()
        assert pres.relator ** 3 == ClassTwoElement.identity(pres.gens, pres.mod)
        act = InvolutionAction.build(pres, endo)
        assert act.h2_scalar == -1
        assert act.coherence_ok


class TestInvolutionSigns:
    def test_standard_involution_needs_no_composition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(demushkin_core, "compose", lambda e1, e2: calls.append(e1) or compose(e1, e2))
        pres = DemushkinPresentation.standard(40, Modulus(3, 1))
        act = standard_involution(pres)
        assert calls == []
        assert np.array_equal(act.signs, standard_sign_pattern(40))
        assert trivial_action(pres).is_trivial and not act.is_trivial
        assert calls == []

    def test_signs_are_read_only(self):
        act = standard_involution(DemushkinPresentation.standard(2, Modulus(3, 1)))
        with pytest.raises(ValueError):
            act.signs[0] = 1
        with pytest.raises(AttributeError):
            act.signs = None

    def test_perturbed_action_has_no_signs(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        base = standard_involution(pres)
        images = list(base.endo.images)
        images[0] = images[0] * parse_word("[x2,x1]", pres.gens, pres.mod)
        act = lift_involution(pres, base.endo.linear_matrix, ClassTwoEndo(images))
        assert act.signs is None and not act.is_trivial
        assert np.array_equal(_linear_signs(act.endo), standard_sign_pattern(2))


@st.composite
def candidate_endos(draw):
    """A presentation and an endomorphism of its group: signed diagonals with
    and without central or commutator perturbations, diagonals with entries
    other than +-1 mod q^2, off-diagonal linear parts, and the q-th powers of
    all of these, which turn perturbed lifts into exact involutions."""
    mod = draw(st.sampled_from([Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)]))
    n = draw(st.sampled_from([0, 2, 4]))
    pres = DemushkinPresentation.standard(n, mod)
    d, q, q2 = pres.d, mod.q, mod.q2
    signs = draw(st.one_of(
        st.just(standard_sign_pattern(n)),
        st.just(np.ones(d, dtype=np.int64)),
        st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d).map(np.array),
    ))
    linear = np.diag(signs) % q2
    kind = draw(st.sampled_from(["clean", "central", "commutator", "unit", "off_diagonal"]))
    exps = st.integers(0, q2 - 1)
    gen_exp = np.zeros((d, d), dtype=np.int64)
    comm = np.zeros((d, d * (d - 1) // 2), dtype=np.int64)
    if kind == "central":
        gen_exp = q * np.array(draw(st.lists(st.integers(0, q - 1), min_size=d * d, max_size=d * d))).reshape(d, d)
    if kind in ("central", "commutator"):
        comm = np.array(draw(st.lists(st.integers(0, q - 1), min_size=comm.size, max_size=comm.size)))
        comm = comm.reshape(d, -1)
    if kind == "unit":
        i = draw(st.integers(0, d - 1))
        linear[i, i] = draw(st.sampled_from([1 + q, q2 - 1 - q, 2, q2 - 2]))
    if kind == "off_diagonal":
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        linear[i, j] = draw(exps.filter(lambda x: i != j or x % q2 not in (1, q2 - 1)))
    endo = ClassTwoEndo(ClassTwoStack(pres.gens, mod, linear + gen_exp, comm))
    if draw(st.booleans()):
        endo = compose_power(endo, q)
    return pres, endo


class TestInvolutionBuildProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(candidate_endos())
    def test_accepts_exactly_the_involutions(self, case):
        pres, endo = case
        gens, mod = pres.gens, pres.mod
        involution = compose(endo, endo) == ClassTwoEndo.identity(gens, mod)
        try:
            act = InvolutionAction.build(pres, endo)
        except NotAnInvolutionError:
            assert not involution
            return
        except RelatorNotPreservedError:
            assert involution
            act = InvolutionAction(endo, 1)
        assert involution
        # clean: endo is diag(s) exactly; product shape: diag(s) mod q
        signs = np.where(endo.linear_matrix.diagonal() == 1, 1, -1)
        diagonal = ClassTwoEndo.linear(gens, mod, np.diag(signs))
        assert (act.signs is not None) == (endo == diagonal)
        product = np.array_equal(endo.linear_matrix, diagonal.linear_matrix)
        assert (_linear_signs(endo) is not None) == product
        if product:
            assert np.array_equal(_linear_signs(endo), signs)
        if act.signs is not None:
            assert np.array_equal(act.signs, signs)
            assert act.is_trivial == bool((act.signs == 1).all())


class TestLiftInvolution:
    def setup_method(self):
        self.mod = Modulus(3, 1)
        self.pres = DemushkinPresentation.standard(2, self.mod)
        self.standard = standard_involution(self.pres)
        self.linear = self.standard.endo.linear_matrix

    def test_exact_involution_is_returned_unchanged(self):
        act = lift_involution(self.pres, self.linear, self.standard.endo)
        assert act.endo == self.standard.endo

    def test_central_defect_is_corrected(self):
        images = list(self.standard.endo.images)
        images[1] = parse_word("x0^-1 [x2,x1]", self.pres.gens, self.pres.mod)
        pert = ClassTwoEndo(images)
        assert compose(pert, pert) != ClassTwoEndo.identity(self.pres.gens, self.mod)
        act = lift_involution(self.pres, self.linear, pert)
        ident = ClassTwoEndo.identity(self.pres.gens, self.mod)
        assert compose(act.endo, act.endo) == ident
        assert np.array_equal(act.endo.linear_matrix, self.linear)
        assert act.h2_scalar == -1

    def test_wrong_linear_part_rejected(self):
        images = list(self.standard.endo.images)
        images[0] = parse_word("g x2", self.pres.gens, self.pres.mod)
        with pytest.raises(ValueError, match="linear"):
            lift_involution(self.pres, self.linear, ClassTwoEndo(images))

    def test_non_involution_linear_rejected(self):
        bad = np.eye(4, dtype=np.int64)
        bad[0, 1] = 1
        with pytest.raises(ValueError, match="involution"):
            lift_involution(self.pres, bad, self.standard.endo)

    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)], ids=lambda m: f"q{m.q}")
    def test_random_central_perturbations(self, mod):
        pres = DemushkinPresentation.standard(2, mod)
        base = standard_involution(pres)
        linear = base.endo.linear_matrix
        ident = ClassTwoEndo.identity(pres.gens, mod)
        for _ in range(25):
            images = [im * random_central(pres) for im in base.endo.images]
            act = lift_involution(pres, linear, ClassTwoEndo(images))
            assert compose(act.endo, act.endo) == ident
            assert np.array_equal(act.endo.linear_matrix, linear)
            assert act.h2_scalar == -1


class TestIdentityBuilds:
    def test_product_shape_lift_builds_no_identity(self, monkeypatch):
        # g_i -> g_i z_i is one closed form (`ClassTwoEndo.times_central`),
        # and `InvolutionAction.build` reads the square's diagonal, so no
        # step on a product-shape lift builds the identity
        mod = Modulus(3, 1)
        pres = DemushkinPresentation.standard(12, mod)
        base = standard_involution(pres)
        source = random.Random(4021)
        pert = ClassTwoEndo([im * random_central(pres, source) for im in base.endo.images])
        calls = []
        real = ClassTwoEndo.identity.__func__
        monkeypatch.setattr(ClassTwoEndo, "identity", classmethod(lambda cls, *a: calls.append(a) or real(cls, *a)))
        counts = {}
        act = lift_involution(pres, base.endo.linear_matrix, pert)
        counts["lift_involution"], calls[:] = len(calls), []
        res = coinvariants(pres, act)
        counts["coinvariants"], calls[:] = len(calls), []
        basis, clean = symmetrize_basis(pres, act)
        counts["symmetrize_basis"] = len(calls)
        assert counts == {"lift_involution": 0, "coinvariants": 0, "symmetrize_basis": 0}
        # the lift is of product shape and not clean, so every path above ran
        assert act.signs is None and np.array_equal(_linear_signs(act.endo), standard_sign_pattern(12))
        assert (res.kind, res.rank) == ("free", 7)
        assert clean == base.endo and basis.diagonal is None


class TestClosedFormsAtLargeModuli:
    """At q = 3^12 and 3^19 the closed-form lift is sigma^q computed by
    repeated squaring, and symmetrize_basis's inverse of its basis change is
    the general automorphism inverse."""

    @pytest.mark.parametrize("f", [12, 19])
    def test_lift_and_basis_inverse(self, f):
        mod = Modulus(3, f)
        pres = DemushkinPresentation.standard(2, mod)
        base = standard_involution(pres)
        linear = base.endo.linear_matrix
        ident = ClassTwoEndo.identity(pres.gens, mod)
        for _ in range(3):
            pert = ClassTwoEndo([im * random_central(pres) for im in base.endo.images])
            act = lift_involution(pres, linear, pert)
            assert act.endo == compose_power(pert, mod.q)
            basis, clean = symmetrize_basis(pres, act)
            inverse = invert_auto(basis)
            # a basis change that is the identity mod F^2 fixes F^2/F^3, so
            # dividing its defects back out inverts it
            assert ClassTwoEndo(ident.images * basis.defects() ** -1) == inverse
            assert inverse(pres.relator) == pres.relator
            assert clean == compose(inverse, compose(act.endo, basis)) == base.endo


class TestSymmetrizeBasis:
    def setup_method(self):
        self.mod = Modulus(3, 1)
        self.pres = DemushkinPresentation.standard(2, self.mod)
        self.standard = standard_involution(self.pres)

    def test_clean_action_gives_identity_change(self, monkeypatch):
        calls = []
        monkeypatch.setattr(demushkin_core, "invert_auto", lambda e: calls.append(e) or invert_auto(e))
        for n in (0, 2, 4, 6):
            pres = DemushkinPresentation.standard(n, self.mod)
            act = standard_involution(pres)
            basis, clean = symmetrize_basis(pres, act)
            assert basis == ClassTwoEndo.identity(pres.gens, self.mod)
            assert clean == act.endo
        assert calls == []

    def test_perturbed_action_takes_the_full_path(self, monkeypatch):
        # one correction and one application check: no inverse, no composite
        calls = []
        monkeypatch.setattr(demushkin_core, "invert_auto", lambda e: calls.append(e) or invert_auto(e))
        monkeypatch.setattr(demushkin_core, "compose", lambda *e: calls.append(e) or compose(*e))
        images = list(self.standard.endo.images)
        images[0] = images[0] * parse_word("[x2,x1]", self.pres.gens, self.pres.mod)
        act = lift_involution(self.pres, self.standard.endo.linear_matrix, ClassTwoEndo(images))
        calls.clear()
        basis, clean = symmetrize_basis(self.pres, act)
        assert calls == []
        assert basis.images[0] == parse_word("g [x2,x1]^2", self.pres.gens, self.pres.mod)
        assert clean == self.standard.endo

    def test_fixed_generator_perturbation(self):
        a = parse_word("[x2,x1]", self.pres.gens, self.pres.mod)
        images = list(self.standard.endo.images)
        images[0] = images[0] * a
        act = lift_involution(
            self.pres, self.standard.endo.linear_matrix, ClassTwoEndo(images)
        )
        basis, clean = symmetrize_basis(self.pres, act)
        # gamma' = g . a^((q+1)/2)
        expected = parse_word("g", self.pres.gens, self.pres.mod) * a ** 2
        assert basis.images[0] == expected
        assert invert_auto(basis)(self.pres.relator) == self.pres.relator
        new_endo = compose(invert_auto(basis), compose(act.endo, basis))
        assert new_endo == self.standard.endo
        assert clean == new_endo

    def test_negated_generator_perturbation(self):
        # the central factor must be fixed by the action for sigma to keep
        # order 2, so perturb x0 by a power of the fixed generator
        b = parse_word("g^3", self.pres.gens, self.pres.mod)
        images = list(self.standard.endo.images)
        images[1] = images[1] * b
        pert = ClassTwoEndo(images)
        ident = ClassTwoEndo.identity(self.pres.gens, self.mod)
        assert compose(pert, pert) == ident  # already exact
        act = lift_involution(self.pres, self.standard.endo.linear_matrix, pert)
        assert act.endo == pert
        basis, clean = symmetrize_basis(self.pres, act)
        # x0' = b^(-(q+1)/2) . x0
        expected = b ** (-2) * parse_word("x0", self.pres.gens, self.pres.mod)
        assert basis.images[1] == expected
        assert invert_auto(basis)(self.pres.relator) == self.pres.relator
        new_endo = compose(invert_auto(basis), compose(act.endo, basis))
        assert new_endo == self.standard.endo
        assert clean == new_endo

    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)], ids=lambda m: f"q{m.q}")
    def test_random_perturbations_are_cleaned(self, mod):
        pres = DemushkinPresentation.standard(4, mod)
        base = standard_involution(pres)
        linear = base.endo.linear_matrix
        for _ in range(15):
            images = [im * random_central(pres) for im in base.endo.images]
            act = lift_involution(pres, linear, ClassTwoEndo(images))
            basis, clean = symmetrize_basis(pres, act)
            assert invert_auto(basis)(pres.relator) == pres.relator
            new_endo = compose(invert_auto(basis), compose(act.endo, basis))
            assert new_endo == base.endo
            assert clean == new_endo

    def test_non_product_shape_rejected(self):
        # an action mixing generators linearly is outside this routine
        pres = self.pres
        basis = ClassTwoEndo(
            [
                parse_word("g", pres.gens, pres.mod),
                parse_word("x0", pres.gens, pres.mod),
                parse_word("x1 x2", pres.gens, pres.mod),
                parse_word("x2", pres.gens, pres.mod),
            ]
        )
        pres2, act2 = transform_presentation(pres, self.standard, basis)
        with pytest.raises(ValueError, match="product shape"):
            symmetrize_basis(pres2, act2)


UNIPOTENT_MODULI = [Modulus(3, 1), Modulus(5, 1), Modulus(3, 2), Modulus(7, 1)]


class TestUnipotentChangeFixesTheRelator:
    """The relator is the same in symmetrize_basis's basis: its basis change
    g_i -> g_i z_i, z_i central, fixes F^2/F^3 pointwise, and the relator
    lies there, so rewriting it through the inverse change gives it back."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mod=st.sampled_from(UNIPOTENT_MODULI), n=st.sampled_from([0, 2, 4, 6]), seed=st.integers(0, 2**32 - 1))
    def test_relator_is_the_rewritten_relator(self, mod, n, seed):
        source = random.Random(seed)
        pres = DemushkinPresentation.standard(n, mod)
        base = standard_involution(pres)
        pert = ClassTwoEndo([im * random_central(pres, source) for im in base.endo.images])
        act = lift_involution(pres, base.endo.linear_matrix, pert)
        basis, _ = symmetrize_basis(pres, act)
        _, basis_inv, _ = clean_frame(act)
        if basis_inv is not None:
            assert basis_inv(pres.relator) == pres.relator == invert_auto(basis)(pres.relator)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(mod=st.sampled_from(UNIPOTENT_MODULI), n=st.sampled_from([0, 2, 4, 6]), seed=st.integers(0, 2**32 - 1))
    def test_times_central_fixes_central_elements(self, mod, n, seed):
        source = random.Random(seed)
        pres = DemushkinPresentation.standard(n, mod)
        z = ClassTwoStack.of(pres.gens, mod, [random_central(pres, source) for _ in range(pres.d)])
        change = ClassTwoEndo.times_central(z)
        centrals = ClassTwoStack.of(pres.gens, mod, [random_central(pres, source) for _ in range(5)])
        assert list(change(centrals)) == list(centrals)
        assert all(change(c) == c for c in centrals)


class TestSymmetrizedChange:
    """The closed-form correction and its one-application check."""

    def setup_method(self):
        self.mod = Modulus(3, 2)
        self.pres = DemushkinPresentation.standard(4, self.mod)
        self.standard = standard_involution(self.pres)
        self.signs = standard_sign_pattern(4)

    def perturbed(self, label, word):
        images = list(self.standard.endo.images)
        i = self.pres.gens.index(label)
        images[i] = images[i] * parse_word(word, self.pres.gens, self.pres.mod)
        return ClassTwoEndo(images)

    @pytest.mark.parametrize("label, kind", [("g", "fixed"), ("x0", "negated")])
    def test_non_central_defect_is_named(self, label, kind):
        # x1 is negated and x2 fixed, so x1 mixes into g and x2 into x0
        endo = self.perturbed(label, "x1" if kind == "fixed" else "x2")
        with pytest.raises(ValueError, match=f"perturbation of a {kind} generator is not central"):
            symmetrized_change(endo, self.signs)

    def test_check_rejects_an_endo_that_is_not_an_involution(self):
        # g -> g [g, x2] fixes [g, x2], so it squares to g [g, x2]^2; the
        # defect is central, and only the application check sees the fault,
        # with or without a change to start from
        endo = self.perturbed("g", "[g,x2]")
        assert compose(endo, endo) != ClassTwoEndo.identity(self.pres.gens, self.mod)
        lin = np.eye(6, dtype=np.int64)
        lin[3, 5] = 1  # x2 -> x2 x4, both fixed
        shear = ClassTwoEndo.linear(self.pres.gens, self.mod, lin)
        for change in (None, shear):
            with pytest.raises(AssertionError, match="did not produce a clean action"):
                symmetrized_change(endo, self.signs, change)
        act = InvolutionAction(endo, -1)
        with pytest.raises(AssertionError, match="did not produce a clean action"):
            symmetrize_basis(self.pres, act)

    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(5, 1), Modulus(3, 2)], ids=lambda m: f"q{m.q}")
    def test_matches_conjugating_then_symmetrizing(self, mod):
        # tau . rho, rho the symmetrizing change of tau^-1 . sigma . tau,
        # for a lifted perturbed sigma and an equivariant linear tau
        pres = DemushkinPresentation.standard(4, mod)
        base = standard_involution(pres)
        signs = standard_sign_pattern(4)
        lin = np.eye(6, dtype=np.int64)
        lin[3, 5] = lin[2, 4] = 1  # x2 -> x2 x4 and x1 -> x1 x3 keep the eigenspaces
        tau = ClassTwoEndo.linear(pres.gens, mod, lin)
        for _ in range(5):
            pert = ClassTwoEndo([im * random_central(pres) for im in base.endo.images])
            sigma = lift_involution(pres, base.endo.linear_matrix, pert).endo
            total = symmetrized_change(sigma, signs, tau)
            conj = compose(invert_auto(tau), compose(sigma, tau))
            roots = central_sqrt(conj.defects(signs))
            rho = ClassTwoEndo(ClassTwoEndo.identity(pres.gens, mod).images * roots**signs)
            assert total == compose(tau, rho)
            assert compose(invert_auto(total), compose(sigma, total)) == base.endo


class TestCleanSigns:
    def setup_method(self):
        self.mod = Modulus(3, 2)
        self.pres = DemushkinPresentation.standard(4, self.mod)
        self.signs = standard_sign_pattern(4)

    def test_standard_and_trivial_actions(self):
        gens = self.pres.gens
        act = standard_involution(self.pres)
        assert act.endo == ClassTwoEndo.linear(gens, self.mod, np.diag(self.signs))
        assert act.endo != ClassTwoEndo.identity(gens, self.mod)
        assert np.array_equal(act.signs, self.signs) and not act.is_trivial
        trivial = trivial_action(self.pres)
        assert trivial.endo == ClassTwoEndo.identity(gens, self.mod)
        assert np.array_equal(trivial.signs, np.ones(self.pres.d)) and trivial.is_trivial

    def test_central_perturbations_are_not_clean(self):
        images = list(standard_involution(self.pres).endo.images)
        clean = ClassTwoEndo.linear(self.pres.gens, self.mod, np.diag(self.signs))
        # over q = 9, only [x2,x1] is central: it keeps the product shape
        for extra in ("x0^3", "g^3", "[x2,x1]"):
            u = parse_word(extra, self.pres.gens, self.pres.mod)
            endo = ClassTwoEndo(images[:1] + [images[1] * u] + images[2:])
            assert endo != clean
            act = InvolutionAction(endo, -1)
            assert act.signs is None
            signs = _linear_signs(endo)
            assert np.array_equal(signs, self.signs) if u.is_central else signs is None


class TestCoinvariants:
    def test_standard_involution_gives_free_quotient(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        res = coinvariants(pres, standard_involution(pres))
        assert res.kind == "free"
        assert res.rank == 2
        assert res.kept_labels == ("g", "x2")
        assert res.eliminated_labels == ("x0", "x1")

    def test_trivial_action_returns_same_presentation(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        res = coinvariants(pres, trivial_action(pres))
        assert res.kind == "demushkin"
        assert res.rank == 4
        assert res.m == 2
        assert res.induced is not None and res.induced.is_demushkin

    def test_plus_action_drops_to_rank_two(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        images = [
            parse_word("g", pres.gens, pres.mod),
            parse_word("x0", pres.gens, pres.mod),
            parse_word("x1^-1", pres.gens, pres.mod),
            parse_word("x2^-1", pres.gens, pres.mod),
        ]
        act = InvolutionAction.build(pres, ClassTwoEndo(images))
        assert act.h2_scalar == 1
        res = coinvariants(pres, act)
        assert res.kind == "demushkin"
        assert res.m == 0
        assert res.kept_labels == ("g", "x0")
        gens0 = demushkin_generators(0)
        assert res.induced_relator == parse_word(
            "x0^3 [x0,g]", res.induced_relator.gens, pres.mod
        ) or res.induced_relator == parse_word("x0^3 [x0,g]", gens0, pres.mod)
        assert res.induced is not None and res.induced.cup_nondegenerate

    @pytest.mark.parametrize("n,mod", GRID, ids=lambda v: str(v))
    def test_rank_matches_plus_eigenspace(self, n, mod):
        pres = DemushkinPresentation.standard(n, mod)
        act = standard_involution(pres)
        res = coinvariants(pres, act)
        plus, _ = act.h1_eigenspaces()
        assert res.rank == plus.rank == n // 2 + 1
        assert res.kind == "free"

    def test_diagonalization_path_agrees(self):
        # conjugate everything by a mixing basis change; the coinvariants
        # are invariants of the pair, so rank and kind must not move
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        act = standard_involution(pres)
        basis = ClassTwoEndo(
            [
                parse_word("g", pres.gens, pres.mod),
                parse_word("x0 x1^3", pres.gens, pres.mod),
                parse_word("x1 [x2,g]", pres.gens, pres.mod),
                parse_word("x2", pres.gens, pres.mod),
            ]
        )
        pres2, act2 = transform_presentation(pres, act, basis)
        res = coinvariants(pres2, act2)
        assert res.kind == "free"
        assert res.rank == 2

    def test_perturbed_lift_still_free(self):
        mod = Modulus(3, 2)
        pres = DemushkinPresentation.standard(2, mod)
        base = standard_involution(pres)
        for _ in range(10):
            images = [im * random_central(pres) for im in base.endo.images]
            act = lift_involution(pres, base.endo.linear_matrix, ClassTwoEndo(images))
            res = coinvariants(pres, act)
            assert res.kind == "free"
            assert res.rank == 2


def random_automorphism(pres, rng):
    """An automorphism of F/F^3 with a random linear part mod q^2 (a
    permutation times unit lower and upper triangular factors, so it is
    invertible mod p) and random commutator parts."""
    mod, d = pres.mod, pres.d
    lower = np.tril(rng.integers(0, mod.q2, (d, d)), -1) + np.eye(d, dtype=np.int64)
    upper = np.triu(rng.integers(0, mod.q2, (d, d)), 1)
    upper += np.diag(rng.integers(1, mod.p, d) + mod.p * rng.integers(0, mod.q2 // mod.p, d))
    lin = (np.eye(d, dtype=np.int64)[rng.permutation(d)] @ lower @ upper) % mod.q2
    comm = rng.integers(0, mod.q, (d, d * (d - 1) // 2))
    return ClassTwoEndo(ClassTwoElement(pres.gens, mod, lin[i], comm[i]) for i in range(d))


@st.composite
def exact_involutions(draw):
    """(pres, action, h2): a clean involution with h2 = +-1 on the standard
    presentation, lifted from a random central perturbation of every image,
    and half the time conjugated by a random automorphism of F/F^3.

    g is fixed, x0 has the sign h2, and a pair (x_(2k-1), x_(2k)) has the
    signs (s, h2 s), so the relator goes to w^h2."""
    p, f = draw(st.sampled_from([(3, 1), (5, 1), (3, 2), (7, 1)]))
    mod = Modulus(p, f)
    n = draw(st.sampled_from([0, 2, 4, 6]))
    h2 = draw(st.sampled_from([1, -1]))
    signs = [1, h2]
    for s in draw(st.lists(st.sampled_from([1, -1]), min_size=n // 2, max_size=n // 2)):
        signs += [s, h2 * s]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pres = DemushkinPresentation.standard(n, mod)
    d = pres.d
    central = [
        ClassTwoElement(pres.gens, mod, mod.q * rng.integers(0, mod.q, d), rng.integers(0, mod.q, d * (d - 1) // 2))
        for _ in range(d)
    ]
    pert = ClassTwoEndo(ClassTwoElement.generator(pres.gens, mod, i) ** s * c for i, (s, c) in enumerate(zip(signs, central)))
    act = lift_involution(pres, np.diag(signs) % mod.q, pert)
    if draw(st.booleans()):
        pres, act = transform_presentation(pres, act, random_automorphism(pres, rng))
    return pres, act, h2


class TestCleanFrame:
    def test_the_three_cases(self):
        mod = Modulus(3, 2)
        pres = DemushkinPresentation.standard(4, mod)
        standard = standard_involution(pres)
        tau, tau_inv, signs = clean_frame(standard)
        assert tau is None and tau_inv is None and signs is standard.signs
        images = [im * random_central(pres) for im in standard.endo.images]
        lifted = lift_involution(pres, standard.endo.linear_matrix, ClassTwoEndo(images))
        # x1 -> x1 x2 mixes the eigenspaces, so the conjugate is not of
        # product shape
        shear = ClassTwoEndo(parse_word(w, pres.gens, pres.mod) for w in ("g", "x0", "x1 x2", "x2", "x3", "x4"))
        _, mixed = transform_presentation(pres, standard, shear)
        assert _linear_signs(lifted.endo) is not None and _linear_signs(mixed.endo) is None
        ident = ClassTwoEndo.identity(pres.gens, mod)
        for act in (lifted, mixed):
            tau, tau_inv, signs = clean_frame(act)
            assert compose(tau_inv, tau) == ident
            clean = ClassTwoEndo.linear(pres.gens, mod, np.diag(signs))
            assert compose(tau_inv, compose(act.endo, tau)) == clean
        # the eigen-split puts the plus part first
        assert signs.tolist() == [1, 1, 1, -1, -1, -1]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(exact_involutions())
    def test_coinvariants_match_the_reference(self, case):
        pres, act, h2 = case
        res = coinvariants(pres, act)
        assert res.kind == ("free" if h2 == -1 else "demushkin")
        machine = CoinvariantMachine(pres, act)
        assert machine.project(act.endo.defects()).is_identity.all()
        try:
            ref = reference_coinvariants(pres, act)
        except AssertionError as exc:
            # a free eigenspace with more Howell rows than its rank
            assert "eigenspace ranks do not fill the module" in str(exc)
            event("the reference does not finish")
            return
        assert ref.pop("central_relators") == []
        event(f"kind {res.kind}")
        got = {
            "rank": res.rank,
            "kind": res.kind,
            "m": res.m,
            "kept_labels": res.kept_labels,
            "eliminated_labels": res.eliminated_labels,
            "induced_relator": res.induced_relator,
            "induced": cohomology_fields(res.induced),
            "kept_chi": machine.kept_chi,
        }
        assert got == ref


class TestSignPattern:
    def test_pattern_layout(self):
        assert list(standard_sign_pattern(2)) == [1, -1, -1, 1]
        assert list(standard_sign_pattern(4)) == [1, -1, -1, 1, -1, 1]


COHERENCE_MODULI = [Modulus(3, 1), Modulus(5, 1), Modulus(3, 2), Modulus(7, 1)]


@st.composite
def diagonal_coherence_cases(draw):
    """(presentation, signs s, t, gram G): the relator x0^(q b), b in {0, 1},
    which the diagonal map g_i -> g_i^(s_i) carries to its t-th power, and
    an antisymmetric G to check that map against.  Half of the time G keeps
    only the entries with s_i s_j = t, so it is coherent; otherwise every
    entry is drawn."""
    mod = draw(st.sampled_from(COHERENCE_MODULI))
    q, n = mod.q, draw(st.sampled_from([0, 2, 4, 6]))
    d = n + 2
    s = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=d, max_size=d)), dtype=np.int64)
    b = draw(st.integers(0, 1))
    t = int(s[1]) if b else 1
    gens = demushkin_generators(n)
    relator = ClassTwoElement(gens, mod, np.eye(d, dtype=np.int64)[1] * q * b, np.zeros(d * (d - 1) // 2, dtype=np.int64))
    upper = np.triu(np.array([[draw(st.integers(0, q - 1)) for _ in range(d)] for _ in range(d)]), 1)
    if draw(st.booleans()):
        upper = upper * (np.outer(s, s) == t)
    gram = (upper - upper.T) % q
    return DemushkinPresentation(n, mod, relator=relator), s, t, gram


class TestElementwiseCoherence:
    """`InvolutionAction.build` checks L^T G L = t G for a diagonal map
    elementwise, as e_i e_j G_ij; it agrees with the two products mod q, and
    warns exactly when they find the check failed.  A gram that the relator
    does not give is put in place of `invariants`, so both outcomes occur."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(diagonal_coherence_cases())
    def test_matches_the_matmul_reference(self, case):
        pres, s, t, gram = case
        q = pres.mod.q
        coh = invariants(pres)
        fake = dataclasses.replace(coh, cup=BilinearForm(gram, q))
        L = np.diag(s) % q
        want = not ((matmul_mod(matmul_mod(L.T, gram, q), L, q) - t * gram) % q).any()
        endo = ClassTwoEndo.linear(pres.gens, pres.mod, np.diag(s))
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mp.setattr(demushkin_core, "invariants", lambda _: fake)
            action = InvolutionAction.build(pres, endo)
        assert action.h2_scalar == t and action.coherence_ok == want
        assert [str(w.message).startswith("cup-form coherence") for w in caught] == ([] if want else [True])
        event(f"coherent={want}")

    def test_each_path_and_its_products(self, monkeypatch):
        calls = []
        real = demushkin_core.matmul_mod
        monkeypatch.setattr(demushkin_core, "matmul_mod", lambda *args: calls.append(args[2]) or real(*args))
        pres = DemushkinPresentation.standard(12, Modulus(3, 2))
        action = standard_involution(pres)
        assert action.coherence_ok and action.h2_scalar == -1 and calls == []
        # x1 -> x2^-1, x2 -> x1^-1 is not diagonal: two products mod q
        pres = DemushkinPresentation.standard(2, Modulus(3, 2))
        swap = {"g": "g", "x0": "x0^-1", "x1": "x2^-1", "x2": "x1^-1"}
        endo = ClassTwoEndo.from_json({"images": swap}, pres.gens, pres.mod)
        action = InvolutionAction.build(pres, endo)
        assert endo.diagonal is None and action.coherence_ok and action.h2_scalar == -1 and calls == [9, 9]
