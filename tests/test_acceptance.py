"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every check is an equality; there are no
tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py` to see
the one-line verdicts.
"""

import json
import random

import numpy as np

from demuskin.class2_words import (
    ClassTwoElement,
    ClassTwoEndo,
    GeneratorSet,
    central_sqrt,
    commutator,
    compose,
    invert_auto,
    parse_word,
)
from demuskin.cli import main as cli_main
from demuskin.demushkin_core import (
    DemushkinPresentation,
    InvolutionAction,
    bockstein_kernel,
    coinvariants,
    gamma_line,
    invariants,
    lift_involution,
    standard_involution,
    standard_relator,
    symmetrize_basis,
)
from demuskin.quotient_builder import (
    Signature,
    build_V,
    free_quotient,
    signature_of,
    uniqueness_check,
)
from demuskin.zq_linalg import (
    Modulus,
    Submodule,
    orthogonal_complement,
)
from frame_reference import isotropic_submodules

COLLECTION_MODULI = [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1), Modulus(5, 2)]
INVARIANT_GRID = [
    (n, mod) for n in (0, 2, 4, 6) for mod in (Modulus(3, 1), Modulus(3, 2), Modulus(5, 1))
]
SWEEP_GRID = [(n, mod) for n in (2, 4, 6) for mod in (Modulus(3, 1), Modulus(3, 2), Modulus(5, 1))]


def verdict(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def random_element(rng, gens, mod):
    d = gens.d
    ge = [rng.randrange(mod.q2) for _ in range(d)]
    # one commutator exponent per pair i < j, in row-major order
    cm = [rng.randrange(mod.q) for _ in range(d * (d - 1) // 2)]
    return ClassTwoElement(gens, mod, ge, cm)


def random_central(rng, pres):
    d = pres.d
    mod = pres.mod
    ge = np.array([mod.q * rng.randrange(mod.q) for _ in range(d)], dtype=np.int64)
    cm = [rng.randrange(mod.q) for _ in range(d * (d - 1) // 2)]
    return ClassTwoElement(pres.gens, mod, ge, cm)


def test_criterion_1_collection_engine():
    rng = random.Random(11)
    gens = GeneratorSet(("a", "b", "c"))
    ok = True
    for mod in COLLECTION_MODULI:
        cases = 0
        e = ClassTwoElement.identity(gens, mod)
        for _ in range(3000):  # group axioms
            u, v, w = (random_element(rng, gens, mod) for _ in range(3))
            ok &= (u * v) * w == u * (v * w)
            ok &= u * e == u and e * u == u
            ok &= (u * u.inverse()).is_identity
            cases += 3
        for _ in range(1000):  # class-2 power identity, against repetition
            u, v = (random_element(rng, gens, mod) for _ in range(2))
            for m in (2, mod.q, mod.q + 1):
                lhs = (u * v) ** m
                rhs = u ** m * v ** m * commutator(v, u) ** (m * (m - 1) // 2)
                ok &= lhs == rhs
                cases += 1
            acc = ClassTwoElement.identity(gens, mod)
            for _ in range(mod.q):
                acc = acc * (u * v)
            ok &= (u * v) ** mod.q == acc
            cases += 1
        for _ in range(2000):  # centrality of F^2/F^3
            u = random_element(rng, gens, mod)
            z = random_element(rng, gens, mod)
            c = ClassTwoElement(gens, mod, (z.gen_exp * mod.q) % mod.q2, z.comm)
            ok &= commutator(u, c).is_identity
            cases += 1
        for _ in range(1000):  # central square roots
            z = random_element(rng, gens, mod)
            c = ClassTwoElement(gens, mod, (z.gen_exp * mod.q) % mod.q2, z.comm)
            s = central_sqrt(c)
            ok &= s * s == c
            cases += 1
        for _ in range(500):  # literal letter expansion oracle
            letters = [(rng.randrange(3), rng.choice([1, -1])) for _ in range(rng.randrange(8))]
            via_product = ClassTwoElement.identity(gens, mod)
            for idx, s in letters:
                via_product = via_product * ClassTwoElement.generator(gens, mod, idx) ** s
            seq = list(letters)
            comm_acc = {}  # (i, j) -> exponent of [g_j, g_i], i < j
            changed = True
            while changed:
                changed = False
                for k in range(len(seq) - 1):
                    (x, sx), (y, sy) = seq[k], seq[k + 1]
                    if x > y:
                        comm_acc[y, x] = comm_acc.get((y, x), 0) + sx * sy
                        seq[k], seq[k + 1] = seq[k + 1], seq[k]
                        changed = True
            ge = np.zeros(3, dtype=np.int64)
            for idx, s in seq:
                ge[idx] += s
            triples = [[i, j, c] for (i, j), c in comm_acc.items()]
            ok &= via_product == ClassTwoElement.from_json({"gen_exp": ge.tolist(), "comm_exp": triples}, gens, mod)
            cases += 1
        assert cases >= 10000
    verdict(1, "collection engine soundness", ok)


def test_criterion_2_demushkin_invariants():
    ok = True
    for n, mod in INVARIANT_GRID:
        coh = invariants(DemushkinPresentation.standard(n, mod))
        gram = coh.cup.gram
        antisym = np.array_equal(gram.T % mod.q, (-gram) % mod.q) and not gram.diagonal().any()
        ok &= antisym and coh.cup_nondegenerate and coh.bockstein_surjective
    verdict(2, "nondegenerate cup form and surjective Bockstein", ok)


def test_criterion_3_cyclotomic_line_identity():
    ok = True
    for n, mod in INVARIANT_GRID:
        pres = DemushkinPresentation.standard(n, mod)
        coh = invariants(pres)
        ok &= orthogonal_complement(coh.cup, bockstein_kernel(pres)) == gamma_line(pres)
    # exhaustive cross-check over all 81 dual vectors at n=2, q=3
    pres = DemushkinPresentation.standard(2, Modulus(3, 1))
    coh = invariants(pres)
    from itertools import product

    gram = coh.cup.gram
    kerb = [np.array(v) for v in product(range(3), repeat=4) if (np.array(v) @ coh.bockstein) % 3 == 0]
    perp = {
        tuple(int(x) for x in v)
        for v in (np.array(u) for u in product(range(3), repeat=4))
        if all(v @ gram @ w % 3 == 0 for w in kerb)
    }
    basis = gamma_line(pres).basis
    line = {tuple(int(x) for x in np.array(c) @ basis % 3) for c in product(range(3), repeat=len(basis))}
    ok &= perp == line
    verdict(3, "cyclotomic line equals orthocomplement of Bockstein kernel", ok)


def test_criterion_4_eigen_ranks_and_coinvariants():
    ok = True
    for n, mod in INVARIANT_GRID:
        pres = DemushkinPresentation.standard(n, mod)
        act = standard_involution(pres)
        plus, minus = act.h1_eigenspaces()
        ok &= act.h2_scalar == -1
        ok &= plus.rank == n // 2 + 1 and minus.rank == n // 2 + 1
        res = coinvariants(pres, act)
        ok &= res.kind == "free" and res.rank == n // 2 + 1
    for mod in (Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)):
        pres = DemushkinPresentation.standard(2, mod)
        images = [
            parse_word("g", pres.gens, pres.mod),
            parse_word("x0", pres.gens, pres.mod),
            parse_word("x1^-1", pres.gens, pres.mod),
            parse_word("x2^-1", pres.gens, pres.mod),
        ]
        act = InvolutionAction.build(pres, ClassTwoEndo(images))
        ok &= act.h2_scalar == 1
        res = coinvariants(pres, act)
        ok &= res.kind == "demushkin" and res.m == 0
        ok &= res.induced is not None and res.induced.cup_nondegenerate
    verdict(4, "eigen ranks and the free/Demushkin dichotomy", ok)


def test_criterion_5_isotropy_bound_by_exhaustion():
    pres = DemushkinPresentation.standard(2, Modulus(3, 1))
    coh = invariants(pres)
    full = Submodule.full(4, 3)
    ok = len(isotropic_submodules(coh.cup, full)) - 1 == 2
    in_kernel = isotropic_submodules(coh.cup, bockstein_kernel(pres))
    ok &= len(in_kernel) - 1 == 2
    line = gamma_line(pres)
    maximal = in_kernel[-1]
    ok &= bool(maximal)
    ok &= all(sub.contains_submodule(line) for sub in maximal)
    verdict(5, "exhaustive isotropy bound and containment converse", ok)


def test_criterion_6_signature_sweep():
    ok = True
    for n, mod in SWEEP_GRID:
        pres = DemushkinPresentation.standard(n, mod)
        act = standard_involution(pres)
        for u_plus in range(n // 2 + 1):
            sig = Signature(u_plus, n // 2 - u_plus)
            cert = free_quotient(pres, act, build_V(pres, act, sig))
            ok &= cert.all_green
            ok &= len(cert.kept) == n // 2 + 1
            ok &= signature_of(cert, act) == sig
    verdict(6, "signature sweep emits green certificates", ok)


def test_criterion_7_trivial_signature_uniqueness():
    ok = True
    for n, mod in SWEEP_GRID:
        pres = DemushkinPresentation.standard(n, mod)
        act = standard_involution(pres)
        cert = free_quotient(pres, act, build_V(pres, act, Signature(n // 2, 0)))
        ok &= uniqueness_check(pres, act, cert)
    verdict(7, "trivial-signature kernel matches the coinvariants kernel", ok)


def test_criterion_8_local_field_preset():
    ok = True
    for p in (3, 5, 7):
        mod = Modulus(p, 1)
        n = p - 1
        pres = DemushkinPresentation.standard(n, mod)
        act = standard_involution(pres)
        sig = Signature(0, (p - 1) // 2)
        cert = free_quotient(pres, act, build_V(pres, act, sig))
        ok &= cert.all_green
        ok &= len(cert.kept) == (p + 1) // 2
        measured = signature_of(cert, act)
        ok &= (measured.u_plus + 1, measured.u_minus) == (1, (p - 1) // 2)
    verdict(8, "local-field preset ranks and eigen ranks", ok)


def test_criterion_9_lift_and_symmetrize():
    rng = random.Random(23)
    mod = Modulus(3, 1)
    pres = DemushkinPresentation.standard(2, mod)
    base = standard_involution(pres)
    linear = base.endo.linear_matrix
    ident = ClassTwoEndo.identity(pres.gens, mod)
    ok = True
    for _ in range(100):
        images = [im * random_central(rng, pres) for im in base.endo.images]
        act = lift_involution(pres, linear, ClassTwoEndo(images))
        ok &= compose(act.endo, act.endo) == ident
        ok &= np.array_equal(act.endo.linear_matrix, linear)
        basis, _ = symmetrize_basis(pres, act)
        inverse = invert_auto(basis)
        ok &= inverse(pres.relator) == standard_relator(2, mod)
        clean = compose(inverse, compose(act.endo, basis))
        ok &= clean == base.endo
    verdict(9, "order correction and basis symmetrization", ok)


def test_criterion_10_deterministic_reports(tmp_path):
    def run(*argv):
        out = tmp_path / "out.json"
        code = cli_main([*argv, "--output", str(out)])
        return code, out.read_bytes()

    ok = True
    c1, b1 = run("sweep", "--sweep-n", "2,4", "--sweep-q", "3,5")
    c2, b2 = run("sweep", "--sweep-n", "2,4", "--sweep-q", "3,5")
    ok &= c1 == 0 and c2 == 0 and b1 == b2
    c1, b1 = run("preset", "--p", "5")
    c2, b2 = run("preset", "--p", "5")
    ok &= c1 == 0 and c2 == 0 and b1 == b2
    report = json.loads(b1)
    ok &= report["results"]["rank"] == 3
    ok &= report["results"]["eigen_ranks"] == [1, 2]
    verdict(10, "byte-identical reports", ok)
