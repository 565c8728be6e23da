import hashlib
import json
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuskin import class2_words, cli, demushkin_core, quotient_builder, zq_linalg
from demuskin.class2_words import (
    ClassTwoElement,
    ClassTwoEndo,
    GeneratorSet,
    KillQuotient,
    central_sqrt,
    commutator,
    compose,
    demushkin_generators,
    invert_auto,
    parse_word,
    quotient_kill,
)
from demuskin.demushkin_core import (
    CharacterData,
    CoinvariantMachine,
    DemushkinPresentation,
    InvolutionAction,
    bockstein_kernel,
    coinvariants,
    gamma_line,
    invariants,
    standard_involution,
    standard_relator,
)
from demuskin.quotient_builder import (
    FreeQuotientCertificate,
    IsotropicSubmodule,
    Signature,
    _cyclotomic_partner,
    build_V,
    free_quotient,
    signature_of,
    uniqueness_check,
    validate_V,
)
from demuskin.zq_linalg import (
    Modulus,
    Submodule,
    inv_mod,
)
from frame_reference import (
    ReferenceMachine,
    coordinate_indices_reference,
    delta_invariant_kill_reference,
    die_modulo_central,
    isotropic_submodules,
    transform_presentation,
    validate_V_reference,
)

rng = random.Random(420817)

ROOT = Path(__file__).resolve().parent.parent

SWEEP_MODULI = [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)]


def coordinate_span(indices, d, q):
    rows = np.zeros((len(indices), d), dtype=np.int64)
    for r, i in enumerate(indices):
        rows[r, i] = 1
    return Submodule(rows, d, q)


def standard_setup(n, mod):
    pres = DemushkinPresentation.standard(n, mod)
    return pres, standard_involution(pres)


def trivial_action(pres):
    """The identity as an action, for running the pipeline with no group acting."""
    return InvolutionAction.build(pres, ClassTwoEndo.identity(pres.gens, pres.mod))


def assert_adapted(pres, V, change):
    """After the change of basis V is spanned by generator duals, and the
    relator keeps its standard shape."""
    rows = V.image_under(change.linear_matrix.T).basis
    assert all(np.count_nonzero(r) == 1 and r.max() == 1 for r in rows)
    assert invert_auto(change)(pres.relator) == standard_relator(pres.n, pres.mod)


class TestValidateV:
    def setup_method(self):
        self.pres, self.act = standard_setup(2, Modulus(3, 1))

    def test_gamma_line_is_fully_valid(self):
        iso = validate_V(self.pres, self.act, gamma_line(self.pres))
        assert iso.ok
        assert iso.free and iso.delta_invariant
        assert iso.totally_isotropic and iso.in_bockstein_kernel
        assert iso.gamma_contained is None  # rank 1 < maximal

    def test_bockstein_failure_on_x0_dual(self):
        V = coordinate_span([1], 4, 3)
        iso = validate_V(self.pres, self.act, V)
        assert not iso.in_bockstein_kernel
        assert not iso.ok

    def test_isotropy_failure_on_pairing_line(self):
        V = coordinate_span([0, 1], 4, 3)
        iso = validate_V(self.pres, self.act, V)
        assert not iso.totally_isotropic

    def test_invariance_failure_on_mixed_vector(self):
        V = Submodule([[0, 0, 1, 1]], 4, 3)  # x1* + x2* mixes eigenspaces
        iso = validate_V(self.pres, self.act, V)
        assert not iso.delta_invariant

    def test_V_plus_gamma_must_be_free(self):
        # over Z/9, g* + 3 x2* lies in ker B and is free, but adding gamma = g*
        # leaves 3 x2*: no adapted frame holds both, so V is not a target
        pres, act = standard_setup(2, Modulus(3, 2))
        V = Submodule([[1, 0, 0, 3]], 4, 9)
        iso = validate_V(pres, act, V)
        assert V.is_free and iso.delta_invariant and iso.totally_isotropic
        assert iso.in_bockstein_kernel and not iso.free
        cert = free_quotient(pres, act, iso)
        assert not cert.all_green and cert.kept == ()

    def test_maximal_rank_records_gamma_containment(self):
        V = coordinate_span([0, 3], 4, 3)
        iso = validate_V(self.pres, self.act, V)
        assert iso.ok and iso.gamma_contained is True


class TestBuildV:
    def test_examples(self):
        pres, act = standard_setup(4, Modulus(3, 1))
        iso = build_V(pres, act, Signature(1, 1))
        assert iso.V == coordinate_span([0, 3, 4], 6, 3)  # g, x2, x3
        pres2, act2 = standard_setup(2, Modulus(3, 1))
        assert build_V(pres2, act2, Signature(1, 0)).V == coordinate_span([0, 3], 4, 3)
        assert build_V(pres2, act2, Signature(0, 1)).V == coordinate_span([0, 2], 4, 3)

    def test_extreme_signatures(self):
        pres, act = standard_setup(4, Modulus(3, 1))
        assert build_V(pres, act, Signature(2, 0)).V == coordinate_span([0, 3, 5], 6, 3)
        assert build_V(pres, act, Signature(0, 2)).V == coordinate_span([0, 2, 4], 6, 3)

    def test_rank_zero_case(self):
        pres, act = standard_setup(0, Modulus(5, 1))
        iso = build_V(pres, act, Signature(0, 0))
        assert iso.V == gamma_line(pres)

    def test_signature_sum_mismatch(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        with pytest.raises(ValueError):
            build_V(pres, act, Signature(1, 1))

    def test_requires_symmetrized_action(self):
        pres, _ = standard_setup(2, Modulus(3, 1))
        images = [
            parse_word("g", pres.gens, pres.mod),
            parse_word("x0", pres.gens, pres.mod),
            parse_word("x1^-1", pres.gens, pres.mod),
            parse_word("x2^-1", pres.gens, pres.mod),
        ]
        from demuskin.demushkin_core import InvolutionAction

        plus_act = InvolutionAction.build(pres, ClassTwoEndo(images))
        with pytest.raises(ValueError):
            build_V(pres, plus_act, Signature(1, 0))


FLAG_MODULI = [Modulus(3, 1), Modulus(5, 1), Modulus(3, 2), Modulus(7, 1)]
FLAGS = ("free", "delta_invariant", "totally_isotropic", "in_bockstein_kernel", "gamma_contained")


def block_change(draw, mod, J, d):
    """A unimodular linear change that keeps span(e_J) and span(e_J^c),
    with a unit off-block entry in a row of J^c half of the time, which
    in general breaks the invariance of e_J."""
    rest = [j for j in range(d) if j not in J]
    T = np.zeros((d, d), dtype=np.int64)
    for part in (J, rest):
        if part:
            T[np.ix_(part, part)] = draw(unimodular_matrices(len(part), mod))
    if J and rest and draw(st.booleans()):
        T[draw(st.sampled_from(rest)), draw(st.sampled_from(J))] = 1
    return T


@st.composite
def coordinate_cases(draw, mod, kind):
    """(pres, action, J) with J any subset of the generator indices, the
    empty one included; by `kind` the standard involution or the trivial
    action on the standard presentation, the standard involution with a
    random character (so gamma is in general not e_0, nor unimodular over
    Z/p^2), or the standard involution conjugated by a change that keeps
    e_J and mixes inside it, so the J x J block of the action is not
    diagonal (and, with the off-block entry, e_J is not invariant)."""
    q = mod.q
    n = draw(st.sampled_from(range(0, 13, 2)))
    d = n + 2
    J = sorted(draw(st.permutations(range(d)))[: draw(st.integers(0, d))])
    pres = DemushkinPresentation.standard(n, mod)
    if kind == "character":
        # a sparse gamma, all of it in pZ/q half of the time
        scale = draw(st.sampled_from([1, mod.p]))
        c = draw(st.lists(st.one_of(st.just(0), st.integers(1, q - 1)), min_size=d, max_size=d))
        pres = DemushkinPresentation(n, mod, chi=CharacterData([1 + q * (scale * x % q) for x in c], mod))
    act = trivial_action(pres) if kind == "trivial" else standard_involution(pres)
    if kind == "block":
        change = ClassTwoEndo.linear(pres.gens, mod, block_change(draw, mod, J, d))
        pres, act = transform_presentation(pres, act, change)
    return pres, act, J


class TestCoordinateSpanFlags:
    """validate_V reads a coordinate span's flags off the presentation's
    arrays; they are the flags of the all-Howell reference."""

    @pytest.mark.parametrize("kind", ["standard", "trivial", "character", "block"])
    @pytest.mark.parametrize("mod", FLAG_MODULI, ids=lambda m: f"q{m.q}")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_flags_match_the_howell_reference(self, mod, kind, data):
        pres, act, J = data.draw(coordinate_cases(mod, kind))
        V = Submodule.coordinate(J, pres.d, mod.q)
        iso, ref = validate_V(pres, act, V), validate_V_reference(pres, act, V)
        assert [getattr(iso, f) for f in FLAGS] == [getattr(ref, f) for f in FLAGS]
        assert all(type(getattr(iso, f)) is bool for f in FLAGS[:4])

    def test_every_branch_is_met(self):
        # a non-diagonal invariant block, a gamma that is not free on J^c,
        # and one of each flag false, against the reference
        mod = Modulus(3, 2)
        pres = DemushkinPresentation(2, mod, chi=CharacterData([1, 1, 1 + 9 * 3, 1], mod))
        act = standard_involution(pres)
        # gamma = 3 x1*: zero on J^c when x1* is in J, else not free there
        cases = [([0, 1], {"free", "totally_isotropic", "in_bockstein_kernel"}, False), ([0, 3], {"free"}, False),
                 ([0, 2], set(), True), ([3], {"free"}, None)]
        for J, false, contained in cases:
            V = Submodule.coordinate(J, 4, 9)
            iso, ref = validate_V(pres, act, V), validate_V_reference(pres, act, V)
            assert [getattr(iso, f) for f in FLAGS] == [getattr(ref, f) for f in FLAGS]
            assert {f for f in FLAGS[:4] if not getattr(iso, f)} == false
            assert iso.gamma_contained is contained
        T = np.eye(4, dtype=np.int64)
        T[2, 3] = 1  # x1 -> x1 x2 mixes a negated and a fixed generator
        pres2, act2 = transform_presentation(*standard_setup(2, mod), ClassTwoEndo.linear(pres.gens, mod, T))
        assert np.count_nonzero(act2.h1_matrix[np.ix_([2, 3], [2, 3])]) == 3
        for J in ([2, 3], [2], [3], [0, 1, 2, 3]):
            V = Submodule.coordinate(J, 4, 9)
            iso, ref = validate_V(pres2, act2, V), validate_V_reference(pres2, act2, V)
            assert [getattr(iso, f) for f in FLAGS] == [getattr(ref, f) for f in FLAGS]
            assert iso.delta_invariant == (J != [3])


def count_howell(monkeypatch):
    """Calls of the one elimination, zq_linalg._howell_rows."""
    calls = []
    real = zq_linalg._howell_rows
    monkeypatch.setattr(zq_linalg, "_howell_rows", lambda *args: calls.append(args) or real(*args))
    return calls


class TestCoordinateSpanCost:
    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_build_V_eliminates_nothing(self, monkeypatch, n):
        pres, act = standard_setup(n, Modulus(3, 1))
        invariants(pres)
        calls = count_howell(monkeypatch)
        for u_plus in range(n // 2 + 1):
            iso = build_V(pres, act, Signature(u_plus, n // 2 - u_plus))
            assert iso.ok and iso.gamma_contained is True
        assert calls == []

    def test_other_V_take_the_howell_path(self, monkeypatch):
        pres, act = standard_setup(4, Modulus(3, 1))
        invariants(pres)
        V = Submodule([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 2, 0]], 6, 3)
        calls = count_howell(monkeypatch)
        iso = validate_V(pres, act, V)
        assert iso.ok and len(calls) >= 3


def count_coordinate_scans(monkeypatch):
    """The submodules whose index set is read off their basis: the first
    `coordinate_indices` of a span that came through a Howell form."""
    scans = []
    read = Submodule.coordinate_indices.fget

    def counted(sub):
        if sub._coords is False:
            scans.append(sub)
        return read(sub)

    monkeypatch.setattr(Submodule, "coordinate_indices", property(counted))
    return scans


class TestStandardFrameCertifyCost:
    """The standard frame certifies with no elimination, and a coordinate V
    has its index set read at most once per certificate."""

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_certify_eliminates_nothing(self, monkeypatch, n):
        pres = DemushkinPresentation.standard(n, Modulus(3, 1))
        calls, scans = count_howell(monkeypatch), count_coordinate_scans(monkeypatch)
        action = standard_involution(pres)
        for u_plus in range(n // 2 + 1):
            sig = Signature(u_plus, n // 2 - u_plus)
            cert, measured = cli._certify(pres, action, sig)
            assert cert.all_green and measured == sig
        # build_V writes its V down with its index set, so nothing is scanned
        assert calls == [] and scans == []

    def test_a_coordinate_V_from_rows_is_scanned_once(self, monkeypatch):
        # build_V's V at signature (1, 1), given as scaled rows out of order
        pres, act = standard_setup(4, Modulus(3, 1))
        V = Submodule([[0, 0, 0, 0, 1, 0], [2, 0, 0, 0, 0, 0], [0, 0, 0, 2, 0, 0]], 6, 3)
        scans = count_coordinate_scans(monkeypatch)
        cert = free_quotient(pres, act, V)
        assert cert.all_green and cert.killed == ("x0", "x1", "x4") and cert.signature == Signature(1, 1)
        assert [sub is V for sub in scans] == [True]

    def test_certify_pass_eliminations(self, monkeypatch):
        # one seed-7 pass of the benchmark's certify workload: 98 Howell
        # forms while each new presentation's cup form took one (38 of them)
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        monkeypatch.chdir(ROOT)
        ops, expected = workloads.build_plan("certify", 7).ops, workloads.load_expected()
        calls = count_howell(monkeypatch)
        for op in ops:
            assert workloads.check_output(op, op.run(), expected) is None
        assert len(calls) <= 60


SWEEP_GRID_Q = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25]


class TestDeltaInvariantKill:
    """`delta_invariant_kill` is read off the action's diagonal; it agrees
    with killing the images of the killed generators, and free_quotient
    realizes a non-coordinate V once and reads no image of the action."""

    def test_agrees_with_the_kill_on_the_sweep_grid(self):
        # every certificate of the whole allowed sweep: even n <= 12, odd
        # prime powers q <= 25
        count = 0
        for n in range(0, cli.SWEEP_MAX_N + 1, 2):
            for q in SWEEP_GRID_Q:
                pres, act = standard_setup(n, Modulus.from_q(q))
                for u_plus in range(n // 2 + 1):
                    cert, _ = cli._certify(pres, act, Signature(u_plus, n // 2 - u_plus))
                    assert cert.flags["delta_invariant_kill"] is True
                    assert delta_invariant_kill_reference(act, cert.killed) is True
                    count += 1
        assert count == 280

    @pytest.mark.parametrize("coordinate", [True, False], ids=["coordinate-V", "mixed-V"])
    def test_one_realization_and_no_image_read(self, monkeypatch, coordinate):
        pres, act = standard_setup(4, Modulus(3, 2))
        if coordinate:
            V = build_V(pres, act, Signature(1, 1)).V
        else:
            V = Submodule([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 8, 0]], 6, 9)
        iso = validate_V(pres, act, V)
        realizations, reads = [], []
        image_under, getitem = Submodule.image_under, class2_words.ClassTwoStack.__getitem__
        monkeypatch.setattr(Submodule, "image_under", lambda sub, m: realizations.append(sub) or image_under(sub, m))

        def counted(stack, idx):
            if stack is act.endo.images:
                reads.append(idx)
            return getitem(stack, idx)

        monkeypatch.setattr(class2_words.ClassTwoStack, "__getitem__", counted)
        cert = free_quotient(pres, act, iso)
        assert cert.all_green and cert.signature == Signature(1, 1)
        assert [sub is V for sub in realizations] == ([] if coordinate else [True])
        assert reads == []


class TestActionOnTheGroup:
    """An action on another group is a ValueError at every entry point."""

    @pytest.mark.parametrize("other", [(2, Modulus(3, 2)), (4, Modulus(3, 1))], ids=["modulus", "rank"])
    def test_rejected(self, other):
        pres, act = standard_setup(2, Modulus(3, 1))
        foreign = standard_setup(*other)[1]
        iso = build_V(pres, act, Signature(1, 0))
        cert = free_quotient(pres, act, iso)
        assert cert.all_green
        calls = [
            lambda: InvolutionAction.build(pres, foreign.endo),
            lambda: validate_V(pres, foreign, iso.V),
            lambda: build_V(pres, foreign, Signature(1, 0)),
            lambda: free_quotient(pres, foreign, iso.V),
            lambda: free_quotient(pres, foreign, iso),
            lambda: uniqueness_check(pres, foreign, cert),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="does not act on the presentation's group"):
                call()


class TestAdaptedFrame:
    """The certificate's basis change realises V on generator duals and
    keeps the standard relator."""

    def test_identity_for_built_V(self):
        pres, act = standard_setup(4, Modulus(3, 1))
        iso = build_V(pres, act, Signature(1, 1))
        basis = free_quotient(pres, act, iso).basis_change
        assert basis == ClassTwoEndo.identity(pres.gens, pres.mod)

    def test_gamma_line_alone_is_identity(self):
        pres = DemushkinPresentation.standard(0, Modulus(3, 1))
        act = trivial_action(pres)
        basis = free_quotient(pres, act, gamma_line(pres)).basis_change
        assert basis == ClassTwoEndo.identity(pres.gens, pres.mod)

    def test_mixing_example_with_trivial_action(self):
        # V = span{g*, x1* + x2*} needs a generator mix; afterwards V is a
        # coordinate-dual span and the relator keeps its shape
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        act = trivial_action(pres)
        V = Submodule([[1, 0, 0, 0], [0, 0, 1, 1]], 4, 3)
        iso = validate_V(pres, act, V)
        assert iso.ok
        basis = free_quotient(pres, act, iso).basis_change
        assert basis != ClassTwoEndo.identity(pres.gens, pres.mod)
        assert_adapted(pres, V, basis)

    def test_invalid_V_gets_no_frame(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, coordinate_span([1], 4, 3))
        assert not cert.all_green and cert.flags["in_bockstein_kernel"] is False
        assert cert.basis_change == ClassTwoEndo.identity(pres.gens, pres.mod) and cert.kept == ()

    def test_every_valid_V_at_n2_q3(self):
        # run the completion over every free isotropic invariant submodule
        # inside the Bockstein kernel and re-verify the postconditions
        pres, act = standard_setup(2, Modulus(3, 1))
        coh = invariants(pres)
        kerb = bockstein_kernel(pres)
        count = 0
        for sub in (s for level in isotropic_submodules(coh.cup, kerb) for s in level):
            iso = validate_V(pres, act, sub)
            if not iso.ok or sub.ngens == 0:
                continue
            count += 1
            assert_adapted(pres, sub, free_quotient(pres, act, iso).basis_change)
        assert count >= 5

    def test_maximal_mixed_V_at_n4(self):
        # a maximal target whose basis mixes coordinate duals inside each
        # eigenspace: x2* + x4* pairs with both x1* and x3*, so the minus
        # part must be the difference x1* - x3*
        for mod in SWEEP_MODULI:
            pres, act = standard_setup(4, mod)
            q = mod.q
            V = Submodule(
                [
                    [1, 0, 0, 0, 0, 0],
                    [0, 0, 0, 1, 0, 1],
                    [0, 0, 1, 0, q - 1, 0],
                ],
                6,
                q,
            )
            iso = validate_V(pres, act, V)
            assert iso.ok and iso.gamma_contained is True
            cert = free_quotient(pres, act, iso)
            assert_adapted(pres, V, cert.basis_change)
            assert cert.all_green
            assert cert.V_realized == V
            assert len(cert.kept) == 3

    def test_every_valid_V_with_trivial_action_n2_q3(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        act = trivial_action(pres)
        coh = invariants(pres)
        kerb = bockstein_kernel(pres)
        count = 0
        for sub in (s for level in isotropic_submodules(coh.cup, kerb) for s in level):
            iso = validate_V(pres, act, sub)
            if not iso.ok or sub.ngens == 0:
                continue
            count += 1
            assert_adapted(pres, sub, free_quotient(pres, act, iso).basis_change)
        assert count >= 10


class TestFreeQuotient:
    @pytest.mark.parametrize(
        "make_action, green, red",
        [(standard_involution, 13, 2), (trivial_action, 121, 8)],
        ids=["standard", "trivial"],
    )
    def test_every_target_at_n2_q9(self, make_action, green, red):
        # every free isotropic V in ker B that the action preserves gets a
        # certificate, red exactly when V + <gamma> is not free
        pres = DemushkinPresentation.standard(2, Modulus(3, 2))
        act = make_action(pres)
        gamma = gamma_line(pres).basis
        colors = []
        for sub in (s for level in isotropic_submodules(invariants(pres).cup, bockstein_kernel(pres)) for s in level):
            iso = validate_V(pres, act, sub)
            if sub.ngens == 0 or not iso.delta_invariant:
                continue
            cert = free_quotient(pres, act, iso)
            assert cert.all_green == Submodule(np.vstack([sub.basis, gamma]), 4, 9).is_free
            colors.append(cert.all_green)
        assert (colors.count(True), colors.count(False)) == (green, red)

    def test_invariants_once_per_presentation(self, monkeypatch):
        # the mixed V of test_maximal_mixed_V_at_n4: one call, for the
        # presentation; no presentation is built in the adapted frame
        pres, act = standard_setup(4, Modulus(3, 1))
        V = Submodule([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 2, 0]], 6, 3)
        iso = validate_V(pres, act, V)
        seen = []

        def counting(p):
            seen.append(p)
            return invariants(p)

        monkeypatch.setattr(quotient_builder, "invariants", counting)
        monkeypatch.setattr(demushkin_core, "invariants", counting)
        assert free_quotient(pres, act, iso).all_green
        assert len(seen) == 1 and seen[0] is pres

    def test_signature_one_zero(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(1, 0)))
        assert cert.all_green
        assert cert.killed == ("x0", "x1")
        assert cert.kept == ("g", "x2")
        assert cert.signature == Signature(1, 0)
        assert signature_of(cert, act) == Signature(1, 0)

    def test_signature_zero_two(self):
        pres, act = standard_setup(4, Modulus(3, 1))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(0, 2)))
        assert cert.all_green
        assert cert.killed == ("x0", "x2", "x4")
        assert cert.kept == ("g", "x1", "x3")
        assert signature_of(cert, act) == Signature(0, 2)

    def test_adversarial_V_gives_red_certificate(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, coordinate_span([2, 3], 4, 3))
        assert not cert.all_green
        assert cert.flags["totally_isotropic"] is False
        assert cert.kept == ()

    def test_red_certificate_rejected_by_signature_of(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, coordinate_span([2, 3], 4, 3))
        with pytest.raises(ValueError):
            signature_of(cert, act)

    def test_non_maximal_V(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, gamma_line(pres))
        assert cert.all_green
        assert cert.kept == ("g",)
        assert cert.signature == Signature(0, 0)

    def test_non_standard_frame_is_rejected(self):
        # after x1 -> x1 x2 the relator keeps its shape but the involution
        # is no longer diagonal; the builder needs the symmetrized frame
        pres, act = standard_setup(2, Modulus(3, 1))
        change = ClassTwoEndo([parse_word(w, pres.gens, pres.mod) for w in ("g", "x0", "x1 x2", "x2")])
        pres2, act2 = transform_presentation(pres, act, change)
        V = build_V(pres, act, Signature(1, 0)).V.image_under(change.linear_matrix.T)
        iso = validate_V(pres2, act2, V)
        assert iso.ok
        with pytest.raises(ValueError, match="clean diagonal"):
            free_quotient(pres2, act2, iso)

    def test_mixed_V_trivial_action_pipeline(self):
        pres = DemushkinPresentation.standard(2, Modulus(3, 1))
        act = trivial_action(pres)
        V = Submodule([[1, 0, 0, 0], [0, 0, 1, 1]], 4, 3)
        cert = free_quotient(pres, act, V)
        assert cert.all_green
        assert len(cert.kept) == 2
        assert cert.V_realized == V

    def test_json_shape(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(1, 0)))
        data = cert.to_json()
        assert list(data.keys()) == [
            "basis_change",
            "killed",
            "kept",
            "signature",
            "flags",
            "V",
            "lifting_note",
        ]
        assert data["signature"] == [1, 0]
        assert all(data["flags"].values())


class TestSignatureSweep:
    @pytest.mark.parametrize("mod", SWEEP_MODULI, ids=lambda m: f"q{m.q}")
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_all_signatures_green(self, n, mod):
        pres, act = standard_setup(n, mod)
        for u_plus in range(n // 2 + 1):
            sig = Signature(u_plus, n // 2 - u_plus)
            iso = build_V(pres, act, sig)
            cert = free_quotient(pres, act, iso)
            assert cert.all_green, (n, mod.q, sig, cert.flags)
            assert len(cert.kept) == n // 2 + 1
            assert signature_of(cert, act) == sig
            assert cert.V_realized == iso.V
            assert iso.gamma_contained is True

    @pytest.mark.parametrize("mod", SWEEP_MODULI, ids=lambda m: f"q{m.q}")
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_trivial_signature_matches_coinvariants(self, n, mod):
        pres, act = standard_setup(n, mod)
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        assert uniqueness_check(pres, act, cert)

    def test_uniqueness_rejects_other_signatures(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(0, 1)))
        with pytest.raises(ValueError):
            uniqueness_check(pres, act, cert)

    def test_uniqueness_needs_the_clean_action(self):
        # x1 -> x2^-1, x2 -> x1^-1 also inverts the relator, but is not diagonal
        pres, act = standard_setup(2, Modulus(3, 1))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(1, 0)))
        swap = ClassTwoEndo([parse_word(w, pres.gens, pres.mod) for w in ("g", "x0^-1", "x2^-1", "x1^-1")])
        other = InvolutionAction.build(pres, swap)
        assert other.h2_scalar == -1
        with pytest.raises(ValueError, match="clean diagonal"):
            uniqueness_check(pres, other, cert)

    def test_non_uniqueness_of_signature(self):
        # two green certificates with signature (1, 1) whose kill sets
        # differ mod squares, found by enumerating coordinate-dual targets
        pres, act = standard_setup(4, Modulus(3, 1))
        kills = set()
        for even_dual in (3, 5):  # x2* or x4*
            for odd_dual in (2, 4):  # x1* or x3*
                V = coordinate_span([0, even_dual, odd_dual], 6, 3)
                iso = validate_V(pres, act, V)
                if not iso.ok:
                    continue
                cert = free_quotient(pres, act, iso)
                if cert.all_green and cert.signature == Signature(1, 1):
                    kills.add(cert.killed)
        assert len(kills) >= 2


def count_calls(monkeypatch, name):
    """Calls of the function `name` of demushkin_core, counted through every
    module namespace that holds it (class2_words, demushkin_core,
    quotient_builder)."""
    calls = []
    real = getattr(demushkin_core, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (class2_words, demushkin_core, quotient_builder):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counting)
    return calls


def count_builds(monkeypatch):
    """Calls of InvolutionAction.build."""
    calls = []
    real = InvolutionAction.build.__func__

    def counting(cls, *args):
        calls.append(args)
        return real(cls, *args)

    monkeypatch.setattr(InvolutionAction, "build", classmethod(counting))
    return calls


def reframed(cert, tau):
    return FreeQuotientCertificate(tau, cert.killed, cert.kept, cert.signature, cert.flags, cert.V_realized, cert.note)


class TestIdentityFrames:
    """Every build_V target is a coordinate span in the clean standard frame,
    so certifying it needs no basis change and no inversion; other inputs
    still take the full path."""

    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(3, 2), Modulus(5, 2)], ids=lambda m: f"q{m.q}")
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_build_V_targets_skip_the_transform(self, monkeypatch, n, mod):
        pres, act = standard_setup(n, mod)
        targets = [build_V(pres, act, Signature(u, n // 2 - u)) for u in range(n // 2 + 1)]
        frames = count_calls(monkeypatch, "clean_frame")
        inversions = count_calls(monkeypatch, "invert_auto")
        certs = [free_quotient(pres, act, iso) for iso in targets]
        assert frames == [] and inversions == []
        for cert in certs:
            assert cert.all_green
            assert cert.basis_change == ClassTwoEndo.identity(pres.gens, mod)
        assert uniqueness_check(pres, act, certs[-1])
        assert inversions == []

    def test_non_coordinate_V_takes_the_full_path(self, monkeypatch):
        # the mixed V of test_maximal_mixed_V_at_n4: the adapted change is
        # corrected in closed form, with no conjugated action, no inverse and
        # no composite
        pres, act = standard_setup(4, Modulus(3, 1))
        V = Submodule([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 2, 0]], 6, 3)
        iso = validate_V(pres, act, V)
        calls = [count_calls(monkeypatch, name) for name in ("clean_frame", "invert_auto", "compose")]
        builds = count_builds(monkeypatch)
        cert = free_quotient(pres, act, iso)
        assert calls == [[], [], []] and builds == []
        assert cert.all_green and cert.V_realized == V and len(cert.kept) == 3
        assert cert.basis_change != ClassTwoEndo.identity(pres.gens, pres.mod)

    @pytest.mark.parametrize("n, mod", [(2, Modulus(3, 1)), (4, Modulus(3, 2)), (4, Modulus(5, 1))])
    def test_uniqueness_in_another_frame(self, monkeypatch, n, mod):
        # an inner automorphism keeps the normal closure of the killed
        # generators, so the check still holds; a shear of x0 by the
        # commutator of two kept generators breaks it
        pres, act = standard_setup(n, mod)
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        gens = tuple(ClassTwoEndo.identity(pres.gens, mod).images)
        h = parse_word("g x1^2 x2", pres.gens, pres.mod)
        inner = ClassTwoEndo(y * commutator(y, h) for y in gens)
        shear = ClassTwoEndo(gens[:1] + (gens[1] * parse_word("[g,x2]", pres.gens, pres.mod),) + gens[2:])
        inversions = count_calls(monkeypatch, "invert_auto")
        assert uniqueness_check(pres, act, reframed(cert, inner))
        assert not uniqueness_check(pres, act, reframed(cert, shear))
        assert len(inversions) == 2


def uniqueness_reference(pres, act, cert) -> bool:
    """uniqueness_check as it was before candidates were stacked: every
    candidate is its own element, mapped and tested one at a time, with the
    coinvariant machine of the reference."""
    machine = ReferenceMachine(pres, act)
    coinv_relators = list(machine.central_relators) + (
        [machine.relator_image] if not machine.relator_image.is_identity else []
    )
    tau = cert.basis_change
    killed = list(cert.killed)
    tau_inv = invert_auto(tau)

    def kill_image(u):
        return quotient_kill(killed, tau_inv(u))

    kill_rel = kill_image(pres.relator)
    kill_relators = [kill_rel] if not kill_rel.is_identity else []
    gens = [ClassTwoElement.generator(pres.gens, pres.mod, i) for i in range(pres.d)]
    coinv_generators = [pres.relator]
    for i, g in enumerate(gens):
        r = g.inverse() * act.endo.images[i]
        coinv_generators.append(r)
        coinv_generators.extend(commutator(r, h) for h in gens)
    kill_generators = [pres.relator]
    for lab in killed:
        ke = tau.images[pres.gens.index(lab)]
        kill_generators.append(ke)
        kill_generators.extend(commutator(ke, h) for h in tau.images)
    coinv_images = [machine.project(u) for u in kill_generators]
    kill_images = [kill_image(u) for u in coinv_generators]
    return all(die_modulo_central(coinv_relators, coinv_images, machine.small_gens, pres.mod)) and all(
        die_modulo_central(kill_relators, kill_images, GeneratorSet(cert.kept), pres.mod)
    )


def machine_reference(pres, act):
    """The substitution images and central relators of CoinvariantMachine
    on a diagonal action, built one generator at a time; and the
    substitution whose roots first zero every coordinate touching an
    eliminated generator."""
    signs = np.diag(act.endo.linear_matrix) == 1
    elim = [i for i, s in enumerate(signs) if not s]
    images, zeroed, relators = [], [], []
    for i, fixed in enumerate(signs):
        g = ClassTwoElement.generator(pres.gens, pres.mod, i)
        if fixed:
            images.append(g)
            zeroed.append(g)
            continue
        b = g * act.endo.images[i]
        images.append(central_sqrt(b))
        data = b.to_json()
        ge = [0 if k in elim else a for k, a in enumerate(data["gen_exp"])]
        cm = [t for t in data["comm_exp"] if t[0] not in elim and t[1] not in elim]
        zeroed.append(central_sqrt(ClassTwoElement.from_json({"gen_exp": ge, "comm_exp": cm}, pres.gens, pres.mod)))
    subst = ClassTwoEndo(images)
    for i in np.flatnonzero(signs):
        g = ClassTwoElement.generator(pres.gens, pres.mod, int(i))
        img = quotient_kill(elim, subst(g.inverse() * act.endo.images[i]))
        if not img.is_identity:
            relators.append(img)
    return subst, ClassTwoEndo(zeroed), relators


STACKED_CELLS = [(n, Modulus.from_q(q)) for n in (2, 4, 6, 8) for q in (3, 9, 25)]


class TestStackedUniqueness:
    """The stacked uniqueness_check agrees with the per-element one."""

    @pytest.mark.parametrize("n, mod", STACKED_CELLS, ids=lambda c: str(getattr(c, "q", c)))
    def test_agrees_with_the_per_element_check(self, n, mod):
        pres, act = standard_setup(n, mod)
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        gens = tuple(ClassTwoEndo.identity(pres.gens, mod).images)
        h = parse_word("g x1^2 x2", pres.gens, pres.mod)
        inner = ClassTwoEndo(y * commutator(y, h) for y in gens)
        shear = ClassTwoEndo(gens[:1] + (gens[1] * parse_word("[g,x2]", pres.gens, pres.mod),) + gens[2:])
        results = []
        for tau in (cert.basis_change, inner, shear):
            framed = reframed(cert, tau)
            results.append(uniqueness_check(pres, act, framed))
            assert results[-1] == uniqueness_reference(pres, act, framed)
        assert results == [True, True, False]

    @pytest.mark.parametrize("n, mod", STACKED_CELLS[::3] + [(2, Modulus(5, 1))], ids=str)
    def test_machine_matches_the_per_generator_build(self, n, mod):
        pres, _ = standard_setup(n, mod)
        for act in (standard_involution(pres), product_shape_lift(pres)):
            machine = CoinvariantMachine(pres, act)
            subst, zeroed, relators = machine_reference(pres, act)
            assert relators == []
            # the clean frame's kill of tau^-1 is the kill of the substitution,
            # and the zeroing changes nothing once the kill has been applied
            gens = ClassTwoEndo.identity(pres.gens, mod).images
            projected = list(machine.project(gens))
            assert projected == list(quotient_kill(machine.eliminated_labels, subst(gens)))
            assert projected == list(quotient_kill(machine.eliminated_labels, zeroed(gens)))

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_no_element_per_candidate(self, monkeypatch, n):
        pres, act = standard_setup(n, Modulus(3, 2))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        builds = []
        real = class2_words.ClassTwoElement.__init__

        def counting(self, *args):
            builds.append(1)
            real(self, *args)

        monkeypatch.setattr(class2_words.ClassTwoElement, "__init__", counting)
        assert uniqueness_check(pres, act, cert)
        d = pres.d
        candidates = (1 + d + d * d) + (1 + len(cert.killed) * (1 + d))
        # the d substitution images, the relator's images on both sides and
        # the standard relator the frame is checked against, whatever the
        # number of candidates
        assert len(builds) <= d + 4 < candidates

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_standard_frame_takes_the_closed_forms(self, monkeypatch, n):
        pres, act = standard_setup(n, Modulus(3, 2))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        calls = {"central_sqrt": 0, "matmul_mod": 0}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        counting(demushkin_core, "central_sqrt")
        counting(class2_words, "central_sqrt")
        counting(class2_words, "matmul_mod")
        defects = []
        real_defects = ClassTwoEndo.defects
        monkeypatch.setattr(ClassTwoEndo, "defects", lambda self, *a: defects.append(a) or real_defects(self, *a))
        identities = []
        real_identity = ClassTwoEndo.identity.__func__
        monkeypatch.setattr(ClassTwoEndo, "identity", classmethod(lambda cls, *a: identities.append(a) or real_identity(cls, *a)))
        # the clean involution is its own frame, so the coinvariant map
        # needs no square roots and its images no quadratic form; the
        # difference relators are formed once, by the machine, and the
        # identity frame is read off the diagonal, with no identity built
        assert uniqueness_check(pres, act, cert)
        assert calls["central_sqrt"] == 0
        assert len(defects) == 1 and identities == []
        calls["matmul_mod"] = 0
        assert act.endo.diagonal.tolist() == (demushkin_core.standard_sign_pattern(n) % pres.mod.q2).tolist()
        stack = act.endo.images * parse_word("x1^2 [g,x0]", pres.gens, pres.mod)
        assert list(act.endo(stack)) == [act.endo(row) for row in stack]
        assert act.endo(pres.relator) == pres.relator.inverse()
        assert calls["matmul_mod"] == 0
        # a map with a commutator part goes through the quadratic form
        shear = ClassTwoEndo(act.endo.images * parse_word("[g,x0]", pres.gens, pres.mod))
        assert shear.diagonal is None
        shear(pres.relator)
        assert calls["matmul_mod"] > 0


def count_endo_applications(monkeypatch):
    """Calls of ClassTwoEndo.__call__, one per element or stack mapped."""
    calls = []
    real = ClassTwoEndo.__call__
    monkeypatch.setattr(ClassTwoEndo, "__call__", lambda self, u: calls.append(u) or real(self, u))
    return calls


def product_shape_lift(pres):
    """A central perturbation [g,x0]^(i+1) of every image of the standard
    involution, squared away by lift_involution."""
    signs = demushkin_core.standard_sign_pattern(pres.n)
    pert = ClassTwoEndo(
        ClassTwoElement.generator(pres.gens, pres.mod, i) ** int(s) * parse_word(f"[g,x0]^{i + 1}", pres.gens, pres.mod)
        for i, s in enumerate(signs)
    )
    return demushkin_core.lift_involution(pres, np.diag(signs) % pres.mod.q, pert)


class TestKillQuotientCost:
    """The coinvariants and both sides of uniqueness_check are KillQuotients;
    each maps its bases and relator in one pass and eliminates only when
    asked whether the bases die, so a standard-frame uniqueness check makes
    two eliminations and no endomorphism application, and the coinvariants
    of a product-shape lift two applications and no elimination."""

    @pytest.mark.parametrize("n, q", [(2, 3), (6, 9), (12, 25)])
    def test_uniqueness_in_the_standard_frame(self, monkeypatch, n, q):
        pres, act = standard_setup(n, Modulus.from_q(q))
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        howell, applied = count_howell(monkeypatch), count_endo_applications(monkeypatch)
        inversions = count_calls(monkeypatch, "invert_auto")
        assert uniqueness_check(pres, act, cert)
        assert (len(howell), len(applied), len(inversions)) == (2, 0, 0)

    @pytest.mark.parametrize("n, mod", STACKED_CELLS[::3] + [(2, Modulus(5, 1))], ids=str)
    def test_coinvariants_of_a_product_shape_lift(self, monkeypatch, n, mod):
        pres, _ = standard_setup(n, mod)
        act = product_shape_lift(pres)
        howell, applied = count_howell(monkeypatch), count_endo_applications(monkeypatch)
        res = coinvariants(pres, act)
        assert (res.kind, res.rank) == ("free", n // 2 + 1)
        # one application checks the symmetrized frame, one maps the stack
        assert (len(howell), len(applied)) == (0, 2)

    def test_the_span_is_built_when_asked(self, monkeypatch):
        pres, act = standard_setup(4, Modulus(3, 2))
        howell = count_howell(monkeypatch)
        machine = CoinvariantMachine(pres, act)
        assert isinstance(machine, KillQuotient) and howell == []
        assert machine.bases_die() and len(howell) == 1
        # a kept generator does not die in the coinvariants
        kept = KillQuotient(pres.relator, None, machine.eliminated_labels, ClassTwoEndo.identity(pres.gens, pres.mod).images)
        assert kept.kept_labels == ("g", "x2", "x4") and not kept.bases_die()


class TestLargeModulusFrame:
    @pytest.mark.parametrize("f", [1, 12, 19])
    def test_mixed_V_is_certified(self, f):
        # g*, a x2* + b x4* and c x1* + e x3* with e = -ac/b, so that
        # <a x2 + b x4, c x1 + e x3> = 0; the x_i dual sits at index i + 1
        mod = Modulus(3, f)
        q = mod.q
        pres, act = standard_setup(4, mod)
        a, b, c = 2, 5, 7
        rows = np.zeros((3, 6), dtype=np.int64)
        rows[0, 0] = 1
        rows[1, [3, 5]] = a, b
        rows[2, [2, 4]] = c, (-a * c * pow(b, -1, q)) % q
        V = Submodule(rows, 6, q)
        iso = validate_V(pres, act, V)
        assert iso.ok
        cert = free_quotient(pres, act, iso)
        assert cert.all_green and cert.V_realized == V
        assert signature_of(cert, act) == Signature(1, 1)


class TestRestrictedWorkingSpaces:
    def test_mixed_V_at_n12_needs_no_intersection(self, monkeypatch):
        # g*, then a x2* + b x4* and c x1* + e x3* with e = -ac/b in each
        # block of four x's: every working space of the frame is a
        # restriction of an eigenspace, and the certificate is the one the
        # intersection route gave (digest recorded from it)
        mod = Modulus(3, 2)
        q = mod.q
        pres, act = standard_setup(12, mod)
        rows = [np.eye(14, dtype=np.int64)[0]]
        for first, (a, b, c) in zip((1, 5, 9), [(2, 5, 7), (4, 1, 8), (5, 7, 2)]):
            plus, minus = np.zeros((2, 14), dtype=np.int64)
            plus[[first + 2, first + 4]] = a, b
            minus[[first + 1, first + 3]] = c, (-a * c * pow(b, -1, q)) % q
            rows += [plus, minus]
        iso = validate_V(pres, act, Submodule(np.array(rows), 14, q))
        calls = []
        complement = zq_linalg.orthogonal_complement
        for module in (zq_linalg, quotient_builder):
            monkeypatch.setattr(module, "orthogonal_complement",
                                lambda *args: calls.append(args) or complement(*args), raising=False)
        cert = free_quotient(pres, act, iso)
        assert calls == []
        assert cert.all_green and cert.signature == Signature(3, 3)
        text = json.dumps(cert.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a579cb2c2f804e0b727bfa6a35187baf9717c08cc598af92ab5a6c45a19784a9"
        )


class TestGammaContained:
    def test_built_V_always_contains_gamma(self):
        for mod in SWEEP_MODULI:
            pres, act = standard_setup(4, mod)
            for u_plus in range(3):
                iso = build_V(pres, act, Signature(u_plus, 2 - u_plus))
                assert validate_V(pres, act, iso.V).gamma_contained is True

    def test_exhaustive_converse_at_n2_q3(self):
        # every maximal free isotropic submodule of the Bockstein kernel
        # contains the cyclotomic line
        pres, act = standard_setup(2, Modulus(3, 1))
        coh = invariants(pres)
        kerb = bockstein_kernel(pres)
        line = gamma_line(pres)
        maximal = isotropic_submodules(coh.cup, kerb)[2]
        assert maximal
        for sub in maximal:
            assert sub.contains_submodule(line)
            assert validate_V(pres, act, sub).gamma_contained is True

    def test_rank_zero_gamma_line_trivial_case(self):
        pres, act = standard_setup(0, Modulus(3, 1))
        assert validate_V(pres, act, gamma_line(pres)).gamma_contained is True

    def test_not_recorded_below_maximal_rank(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        assert validate_V(pres, act, gamma_line(pres)).gamma_contained is None


@st.composite
def unimodular_matrices(draw, k, mod):
    """P L U over Z/q: a permutation, a unit lower and an upper triangular
    matrix with unit diagonal, so every draw is invertible."""
    q = mod.q
    units = [u for u in range(1, q) if u % mod.p]
    entry = st.integers(0, q - 1)
    perm = draw(st.permutations(range(k)))
    lower = np.eye(k, dtype=np.int64)
    upper = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        upper[i, i] = draw(st.sampled_from(units))
        for j in range(i):
            lower[i, j] = draw(entry)
        for j in range(i + 1, k):
            upper[i, j] = draw(entry)
    return (np.eye(k, dtype=np.int64)[list(perm)] @ lower @ upper) % q


class TestRandomEquivariantFrame:
    """free_quotient on the image of build_V's V under a random equivariant
    isometry, which moves V off the coordinate duals.

    In dual coordinates the pairs (a_k, b_k) = (x_(2k)*, x_(2k-1)*), k >= 1,
    span H+ + H- and pair alike.  Sending the a's by N and the b's by N^-T,
    N unimodular, preserves the pairing and the eigenspaces and fixes g*,
    x0* and the Bockstein kernel.
    """

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(3, 2), Modulus(5, 2)], ids=lambda m: f"q{m.q}")
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_signature_green(self, mod, n, data):
        pres, act = standard_setup(n, mod)
        q, k, d = mod.q, n // 2, n + 2
        N = data.draw(unimodular_matrices(k, mod))
        a_idx = [2 * j + 1 for j in range(1, k + 1)]  # x_(2j)* sits at 2j + 1
        b_idx = [2 * j for j in range(1, k + 1)]
        T = np.eye(d, dtype=np.int64)
        T[np.ix_(a_idx, a_idx)] = N
        T[np.ix_(b_idx, b_idx)] = inv_mod(N, q).T
        for u_plus in range(k + 1):
            sig = Signature(u_plus, k - u_plus)
            V = build_V(pres, act, sig).V.image_under(T)
            iso = validate_V(pres, act, V)
            assert iso.ok and iso.gamma_contained is True
            cert = free_quotient(pres, act, iso)
            assert cert.all_green, (sig, cert.flags)
            assert cert.signature == sig
            assert signature_of(cert, act) == sig
            assert cert.V_realized == V
            assert len(cert.kept) == k + 1
            assert cert.flags["delta_invariant_kill"] == delta_invariant_kill_reference(act, cert.killed)


def reference_cyclotomic_partner(rows, w, bvec, mod):
    """The first u = sum c_i rows_i, coefficient vectors in counting order
    (row 0 the fastest digit), with u . w and B(u) units, scaled to B(u) = 1."""
    p, q = mod.p, mod.q
    for coeffs in product(range(q), repeat=len(rows)):
        u = (np.array(coeffs[::-1], dtype=np.int64) @ rows) % q
        bval = int(u @ bvec) % q
        if bval % p and int(u @ w) % q % p:
            return (u * pow(bval, -1, q)) % q
    return None


@st.composite
def partner_cases(draw):
    mod = draw(st.sampled_from([Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)]))
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, mod.q - 1), min_size=d, max_size=d)
    rows = draw(st.lists(vec, max_size=3))
    # Howell rows, at most three so that the reference scan stays small
    basis = Submodule(np.array(rows, dtype=np.int64).reshape(-1, d), d, mod.q).basis[:3]
    return basis, np.array(draw(vec)), np.array(draw(vec)), mod


class TestCyclotomicPartner:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(partner_cases())
    def test_matches_coefficient_scan(self, case):
        rows, w, bvec, mod = case
        got = _cyclotomic_partner(rows, w, bvec, mod)
        want = reference_cyclotomic_partner(rows, w, bvec, mod)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)


def symmetrize_reference(pres, act):
    """symmetrize_basis as it was before the closed-form correction: the
    basis change of central square roots, checked by conjugating the action
    with two compositions."""
    if act.signs is not None:
        return ClassTwoEndo.identity(pres.gens, pres.mod), pres.relator, act.endo
    lin = act.endo.linear_matrix
    signs = np.where(lin.diagonal() == 1, 1, -1)
    assert np.array_equal(lin, np.diag(signs) % pres.mod.q)
    roots = central_sqrt(act.endo.defects(signs))
    ident = ClassTwoEndo.identity(pres.gens, pres.mod).images
    basis = ClassTwoEndo(ident * roots**signs)
    basis_inv = ClassTwoEndo(ident * roots**-signs)
    clean = compose(basis_inv, compose(act.endo, basis))
    assert clean == ClassTwoEndo.linear(pres.gens, pres.mod, np.diag(signs))
    return basis, basis_inv(pres.relator), clean


def free_quotient_reference(pres, act, iso) -> FreeQuotientCertificate:
    """free_quotient as it was before the closed-form correction: conjugate
    the action through the adapted change, symmetrize the conjugate and
    compose the two changes."""
    change = quotient_builder._build_adapted_change(pres, act, iso)
    frame = (pres, act) if change is None else transform_presentation(pres, act, change)
    basis, relator, clean = symmetrize_reference(*frame)
    total = basis if change is None else compose(change, basis)
    assert relator == standard_relator(pres.n, pres.mod)
    kept_idx = sorted(coordinate_indices_reference(iso.V.image_under(total.linear_matrix.T)))
    labels = pres.gens.labels
    kept = [labels[i] for i in kept_idx]
    killed = [lab for i, lab in enumerate(labels) if i not in kept_idx]
    dropped = clean.images[[pres.gens.index(lab) for lab in killed]]
    flags = iso.flag_dict()
    flags["relator_contained"] = bool(quotient_kill(killed, relator).is_identity)
    flags["delta_invariant_kill"] = bool(quotient_kill(killed, dropped).is_identity.all())
    flags["surjective_mod_F2"] = True
    diagonal = clean.linear_matrix.diagonal()[kept_idx]
    sig = Signature(int((diagonal == 1).sum()) - 1, int((diagonal == pres.mod.q - 1).sum()))
    return FreeQuotientCertificate(total, tuple(killed), tuple(kept), sig, flags, iso.V, quotient_builder.LIFTING_NOTE)


def pool_mixed_V(pres, rng_units):
    """The benchmark pool's shape: g*, a x2* + b x4* and c x1* + e x3* with
    e = -ac/b in each block of four x's (n divisible by 4)."""
    q, d = pres.mod.q, pres.d
    rows = [np.eye(d, dtype=np.int64)[0]]
    for first in range(1, pres.n, 4):
        a, b, c = (rng_units() for _ in range(3))
        plus, minus = np.zeros((2, d), dtype=np.int64)
        plus[[first + 2, first + 4]] = a, b
        minus[[first + 1, first + 3]] = c, (-a * c * pow(b, -1, q)) % q
        rows += [plus, minus]
    return Submodule(np.array(rows), d, q)


def equivariant_frame(N, mod, n):
    """The isometry of TestRandomEquivariantFrame: the a-duals by N, the
    b-duals by N^-T."""
    k, d = n // 2, n + 2
    a_idx = [2 * j + 1 for j in range(1, k + 1)]
    b_idx = [2 * j for j in range(1, k + 1)]
    T = np.eye(d, dtype=np.int64)
    T[np.ix_(a_idx, a_idx)] = N
    T[np.ix_(b_idx, b_idx)] = inv_mod(N, mod.q).T
    return T


def symplectic_shear(draw, pres):
    """A product of transvections u -> u + l <u, v> v with v supported on
    the x duals: an isometry of the cup form that fixes g*, x0* and ker B,
    so it keeps every condition for the trivial action."""
    q, d = pres.mod.q, pres.d
    gram = invariants(pres).cup.gram
    T = np.eye(d, dtype=np.int64)
    for _ in range(draw(st.integers(1, 3))):
        v = np.array([0, 0] + [draw(st.integers(0, q - 1)) for _ in range(d - 2)], dtype=np.int64)
        lam = draw(st.integers(1, q - 1))
        # row u maps to u + lam (u . gram . v) v
        T = T @ (np.eye(d, dtype=np.int64) + lam * np.outer(gram @ v, v)) % q
    return T % q


EQUIVALENCE_MODULI = [Modulus(3, 1), Modulus(5, 1), Modulus(7, 1), Modulus(3, 2), Modulus(5, 2)]


@st.composite
def mixed_targets(draw, mod, kind):
    """(pres, action, V) with V valid over Z/q, q = mod.q, and in general not
    a coordinate span: by `kind`, the pool's mixed shape or an equivariant
    image of a build_V target under the standard involution, or a sheared
    build_V target under the trivial action."""
    if kind == "pool":
        n = draw(st.sampled_from([4, 8, 12]))
    else:
        n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    pres, act = standard_setup(n, mod)
    units = st.integers(1, mod.q - 1).filter(lambda x: x % mod.p)
    k = n // 2
    u_plus = draw(st.integers(0, k))
    if kind == "pool":
        V = pool_mixed_V(pres, lambda: draw(units))
    elif kind == "equivariant":
        N = draw(unimodular_matrices(k, mod))
        V = build_V(pres, act, Signature(u_plus, k - u_plus)).V.image_under(equivariant_frame(N, mod, n))
    else:
        V = build_V(pres, act, Signature(u_plus, k - u_plus)).V.image_under(symplectic_shear(draw, pres))
        act = trivial_action(pres)
    return pres, act, V


class TestClosedFormSymmetrization:
    """free_quotient corrects the adapted change in closed form; its
    certificate is the one that conjugating the action, symmetrizing the
    conjugate and composing gave."""

    @pytest.mark.parametrize("kind", ["pool", "equivariant", "trivial"])
    @pytest.mark.parametrize("mod", EQUIVALENCE_MODULI, ids=lambda m: f"q{m.q}")
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_conjugate_and_symmetrize_path(self, mod, kind, data):
        pres, act, V = data.draw(mixed_targets(mod, kind))
        iso = validate_V(pres, act, V)
        assert iso.ok
        cert = free_quotient(pres, act, iso)
        ref = free_quotient_reference(pres, act, iso)
        assert cert.basis_change == ref.basis_change
        assert (cert.kept, cert.killed) == (ref.kept, ref.killed)
        assert cert.flags == ref.flags and cert.all_green
        assert cert.signature == ref.signature
        if act.h2_scalar == -1 and cert.signature == Signature(pres.n // 2, 0):
            assert uniqueness_check(pres, act, cert)

    @pytest.mark.parametrize("n, mod", [(4, Modulus(3, 1)), (4, Modulus(3, 2)), (4, Modulus(5, 2)),
                                        (8, Modulus(3, 2)), (12, Modulus(3, 1)), (12, Modulus(5, 2))],
                             ids=lambda x: f"q{x.q}" if isinstance(x, Modulus) else f"n{x}")
    def test_pool_shapes_in_every_signature(self, n, mod):
        # the mixed V of the pool, and the equivariant images of every
        # build_V target; the (n/2, 0) certificates pass the uniqueness check
        pres, act = standard_setup(n, mod)
        r = random.Random(f"pool n={n} q={mod.q}")
        units = [u for u in range(1, mod.q) if u % mod.p]
        targets = [pool_mixed_V(pres, lambda: r.choice(units))]
        N = np.eye(n // 2, dtype=np.int64) + np.triu(np.ones((n // 2, n // 2), dtype=np.int64), 1)
        T = equivariant_frame(N, mod, n)
        targets += [build_V(pres, act, Signature(u, n // 2 - u)).V.image_under(T) for u in range(n // 2 + 1)]
        for V in targets:
            iso = validate_V(pres, act, V)
            cert, ref = free_quotient(pres, act, iso), free_quotient_reference(pres, act, iso)
            assert (cert.basis_change, cert.kept, cert.killed, cert.flags, cert.signature) == (
                ref.basis_change, ref.kept, ref.killed, ref.flags, ref.signature
            )
            if cert.signature == Signature(n // 2, 0):
                assert uniqueness_check(pres, act, cert)


class TestCorrectionChecks:
    """A faulty adapted change raises a named AssertionError instead of
    giving a green certificate; a central commutator part of the change is
    absorbed by the correction, and the frame it gives is still checked."""

    def setup_method(self):
        # the mixed V of test_maximal_mixed_V_at_n4
        self.pres, self.act = standard_setup(4, Modulus(3, 2))
        V = Submodule([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 1], [0, 0, 1, 0, 8, 0]], 6, 9)
        self.iso = validate_V(self.pres, self.act, V)
        assert self.iso.ok

    def with_change(self, monkeypatch, edit):
        """Run free_quotient with the adapted change's images edited."""
        real = quotient_builder._build_adapted_change

        def edited(pres, act, iso):
            images = list(real(pres, act, iso).images)
            edit(images)
            return ClassTwoEndo(images)

        monkeypatch.setattr(quotient_builder, "_build_adapted_change", edited)
        return free_quotient(self.pres, self.act, self.iso)

    def test_change_mixing_a_fixed_and_a_negated_coordinate(self, monkeypatch):
        def mix(images):
            images[0] = images[0] * parse_word("x0", self.pres.gens, self.pres.mod)  # g is fixed, x0 negated

        with pytest.raises(AssertionError, match="mixes the eigenspaces of the involution"):
            self.with_change(monkeypatch, mix)

    def test_equivariant_change_that_moves_the_relator(self, monkeypatch):
        def square(images):
            images[3] = images[3] ** 2  # keeps the eigenspaces, not the pairing

        with pytest.raises(AssertionError, match="lost the standard relator shape"):
            self.with_change(monkeypatch, square)

    def test_commutator_part_of_the_change_is_absorbed(self, monkeypatch):
        # tau g_i = y_i c_i with c_i central breaks sigma . tau = tau . sigma
        # exactly; the correction still gives a frame in which sigma is clean
        # and the relator standard, checked here by conjugation
        pres, act = self.pres, self.act
        plain = free_quotient(pres, act, self.iso)
        c = parse_word("[x2,x1]^4 [g,x0]^2 [x4,g]", pres.gens, pres.mod)

        def shear(images):
            images[:] = [y * c for y in images]

        cert = self.with_change(monkeypatch, shear)
        total = cert.basis_change
        inverse = invert_auto(total)
        assert compose(inverse, compose(act.endo, total)) == act.endo
        assert inverse(pres.relator) == pres.relator
        assert cert.all_green and cert.basis_change != plain.basis_change
        assert (cert.kept, cert.signature) == (plain.kept, plain.signature)


class TestCertificateValue:
    """A certificate is a frozen value: its fields cannot be rebound, and
    its repr names its state, kept generators and signature."""

    def test_frozen_with_tuples_and_repr(self):
        pres, act = standard_setup(2, Modulus(3, 1))
        green = free_quotient(pres, act, build_V(pres, act, Signature(1, 0)))
        assert green.all_green and green.kept == ("g", "x2") and green.killed == ("x0", "x1")
        assert repr(green) == "FreeQuotientCertificate(green, kept=('g', 'x2'), signature=Signature(u_plus=1, u_minus=0))"
        with pytest.raises(AttributeError):
            green.kept = ()
        red = free_quotient(pres, act, Submodule([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3))
        assert not red.all_green and (red.kept, red.killed, red.signature) == ((), (), None)
        assert repr(red) == "FreeQuotientCertificate(red, kept=(), signature=None)"
