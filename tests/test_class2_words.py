import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demuskin import class2_words
from demuskin.class2_words import (
    ClassTwoElement,
    ClassTwoEndo,
    ClassTwoStack,
    GeneratorSet,
    KillQuotient,
    central_sqrt,
    commutator,
    compose,
    demushkin_generators,
    format_word,
    invert_auto,
    parse_word,
    quotient_kill,
)
from demuskin.zq_linalg import Modulus, inv_mod
from frame_reference import format_exponents_reference, times_central_reference

rng = random.Random(357911)

MODULI = [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1), Modulus(5, 2)]


def random_element(gens, mod):
    d = gens.d
    ge = [rng.randrange(mod.q2) for _ in range(d)]
    # one commutator exponent per pair i < j, in row-major order
    cm = [rng.randrange(mod.q) for _ in range(d * (d - 1) // 2)]
    return ClassTwoElement(gens, mod, ge, cm)


def compose_power(e, k):
    """e^k for k >= 0, by square-and-multiply with compose."""
    result, base = ClassTwoEndo.identity(e.gens, e.mod), e
    while k:
        if k & 1:
            result = compose(result, base)
        base, k = compose(base, base), k >> 1
    return result


def from_pairs(gens, mod, gen_exp, comm):
    """The element with generator exponents gen_exp and commutator exponents
    comm = {(i, j): c_ij}, i < j, built through its JSON form."""
    triples = [[i, j, int(c)] for (i, j), c in comm.items()]
    return ClassTwoElement.from_json({"gen_exp": [int(x) for x in gen_exp], "comm_exp": triples}, gens, mod)


def comm_of(u):
    """{(i, j): c_ij} over every pair i < j, read off the JSON form."""
    d = u.gens.d
    out = {(i, j): 0 for i in range(d) for j in range(i + 1, d)}
    out.update({(i, j): c for i, j, c in u.to_json()["comm_exp"]})
    return out


def is_automorphism(e: ClassTwoEndo) -> bool:
    """An endomorphism of F/F^3 is invertible iff its linear part is mod q."""
    try:
        inv_mod(e.linear_matrix, e.mod.q)
    except ValueError:
        return False
    return True


def naive_collect(letters, gens, mod):
    """Letter-by-letter bubble collection, independent of the closed formulas.

    `letters` is a sequence of (index, +-1).  Swapping adjacent letters
    g_j^s g_i^t -> g_i^t g_j^s [g_j, g_i]^(s t) (j > i) is the defining
    collection move; exponents then add up coordinate-wise.
    """
    d = gens.d
    seq = list(letters)
    comm = {}
    changed = True
    while changed:
        changed = False
        for k in range(len(seq) - 1):
            (a, s), (b, t) = seq[k], seq[k + 1]
            if a > b:
                comm[b, a] = comm.get((b, a), 0) + s * t
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                changed = True
    ge = np.zeros(d, dtype=np.int64)
    for idx, s in seq:
        ge[idx] += s
    return from_pairs(gens, mod, ge, comm)


def random_letters(d, length):
    return [(rng.randrange(d), rng.choice([1, -1])) for _ in range(length)]


def letters_to_element(letters, gens, mod):
    out = ClassTwoElement.identity(gens, mod)
    for idx, s in letters:
        out = out * ClassTwoElement.generator(gens, mod, idx) ** s
    return out


class TestCollection:
    def test_defining_move(self):
        gens = GeneratorSet(("a", "b"))
        mod = Modulus(3, 1)
        g1 = ClassTwoElement.generator(gens, mod, 0)
        g2 = ClassTwoElement.generator(gens, mod, 1)
        prod = g2 * g1
        assert list(prod.gen_exp) == [1, 1]
        assert comm_of(prod)[0, 1] == 1
        # and the other order has no commutator part
        assert comm_of(g1 * g2)[0, 1] == 0

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_matches_letter_collection(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(300):
            letters = random_letters(3, rng.randrange(0, 9))
            assert letters_to_element(letters, gens, mod) == naive_collect(
                letters, gens, mod
            )

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_group_axioms(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        e = ClassTwoElement.identity(gens, mod)
        for _ in range(600):
            u = random_element(gens, mod)
            v = random_element(gens, mod)
            w = random_element(gens, mod)
            assert (u * v) * w == u * (v * w)
            assert u * e == u and e * u == u
            assert u * u.inverse() == e and u.inverse() * u == e

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_power_against_repeated_multiplication(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(60):
            u = random_element(gens, mod)
            k = rng.randrange(0, 2 * mod.q + 3)
            acc = ClassTwoElement.identity(gens, mod)
            for _ in range(k):
                acc = acc * u
            assert u ** k == acc
            assert u ** (-k) == acc.inverse()

    def test_power_of_product_of_generators(self):
        # (g1 g2)^q has gen_exp q(e1+e2); the cross commutator picks up
        # q(q-1)/2 = 0 mod q
        for mod in MODULI:
            gens = GeneratorSet(("a", "b"))
            g1 = ClassTwoElement.generator(gens, mod, 0)
            g2 = ClassTwoElement.generator(gens, mod, 1)
            u = (g1 * g2) ** mod.q
            acc = ClassTwoElement.identity(gens, mod)
            for _ in range(mod.q):
                acc = acc * (g1 * g2)
            assert u == acc
            assert list(u.gen_exp) == [mod.q, mod.q]
            assert not u.comm.any()

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_qsquare_power_is_trivial(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(40):
            u = random_element(gens, mod)
            assert (u ** mod.q2).is_identity


class TestCommutator:
    def test_self_commutator_trivial(self):
        gens = GeneratorSet(("a", "b"))
        mod = Modulus(3, 1)
        g = ClassTwoElement.generator(gens, mod, 0)
        assert commutator(g, g).is_identity

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_literal_word_expansion(self, mod):
        # [g1^2, g2^3] expanded as a 10-letter word
        gens = GeneratorSet(("a", "b"))
        g1 = ClassTwoElement.generator(gens, mod, 0)
        g2 = ClassTwoElement.generator(gens, mod, 1)
        letters = (
            [(0, -1)] * 2 + [(1, -1)] * 3 + [(0, 1)] * 2 + [(1, 1)] * 3
        )
        expanded = letters_to_element(letters, gens, mod)
        assert commutator(g1 ** 2, g2 ** 3) == expanded
        assert comm_of(expanded)[0, 1] % mod.q == (-6) % mod.q

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_commutator_is_central_and_bilinear(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(150):
            u = random_element(gens, mod)
            v = random_element(gens, mod)
            c = commutator(u, v)
            assert c.is_central
            # centrality of F^2/F^3
            assert commutator(u, c).is_identity
            assert commutator(c, v).is_identity
        for _ in range(80):
            u, v, w = (random_element(gens, mod) for _ in range(3))
            assert commutator(u * v, w) == commutator(u, w) * commutator(v, w)

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_hall_petrescu_identity(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for m_exp in (2, mod.q, mod.q + 1):
            for _ in range(120):
                u = random_element(gens, mod)
                v = random_element(gens, mod)
                lhs = (u * v) ** m_exp
                rhs = (
                    u ** m_exp
                    * v ** m_exp
                    * commutator(v, u) ** (m_exp * (m_exp - 1) // 2)
                )
                assert lhs == rhs
                # oracle for the power on the left
                acc = ClassTwoElement.identity(gens, mod)
                for _ in range(m_exp):
                    acc = acc * (u * v)
                assert lhs == acc


class TestCentralSqrt:
    def test_identity(self):
        gens = GeneratorSet(("a", "b"))
        mod = Modulus(3, 1)
        e = ClassTwoElement.identity(gens, mod)
        assert central_sqrt(e) == e

    def test_commutator_sqrt_mod_3(self):
        gens = GeneratorSet(("a", "b"))
        mod = Modulus(3, 1)
        c = commutator(
            ClassTwoElement.generator(gens, mod, 1),
            ClassTwoElement.generator(gens, mod, 0),
        )
        s = central_sqrt(c)
        assert s == c ** 2
        assert s * s == c

    def test_qth_power_sqrt(self):
        gens = GeneratorSet(("a", "b"))
        mod = Modulus(3, 1)
        c = ClassTwoElement.generator(gens, mod, 0) ** 3
        s = central_sqrt(c)
        assert s == ClassTwoElement.generator(gens, mod, 0) ** 6
        assert s * s == c

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_random_central_squares(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(150):
            u = random_element(gens, mod)
            c = ClassTwoElement(
                gens, mod, (u.gen_exp * mod.q) % mod.q2, u.comm
            )
            s = central_sqrt(c)
            assert s * s == c
            # endomorphism of the abelian group F^2/F^3
            v = random_element(gens, mod)
            c2 = ClassTwoElement(gens, mod, (v.gen_exp * mod.q) % mod.q2, v.comm)
            assert central_sqrt(c * c2) == central_sqrt(c) * central_sqrt(c2)

    def test_rejects_non_central(self):
        gens = GeneratorSet(("a", "b"))
        mod = Modulus(3, 1)
        with pytest.raises(ValueError):
            central_sqrt(ClassTwoElement.generator(gens, mod, 0))


class TestEndomorphisms:
    def setup_method(self):
        self.gens = GeneratorSet(("a", "b"))
        self.mod = Modulus(3, 1)
        self.g1 = ClassTwoElement.generator(self.gens, self.mod, 0)
        self.g2 = ClassTwoElement.generator(self.gens, self.mod, 1)

    def test_identity_endo(self):
        e = ClassTwoEndo.identity(self.gens, self.mod)
        u = random_element(self.gens, self.mod)
        assert e(u) == u

    def test_unipotent_central_example(self):
        c = commutator(self.g2, self.g1)
        e = ClassTwoEndo([self.g1 * c, self.g2])
        assert e(c) == c
        inv = invert_auto(e)
        assert inv.images[0] == self.g1 * c.inverse()
        assert inv.images[1] == self.g2
        assert compose(inv, e) == ClassTwoEndo.identity(self.gens, self.mod)

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_endos_are_homomorphisms(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(60):
            e = ClassTwoEndo([random_element(gens, mod) for _ in range(3)])
            u = random_element(gens, mod)
            v = random_element(gens, mod)
            assert e(u * v) == e(u) * e(v)
            assert e(u.inverse()) == e(u).inverse()

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_invert_random_automorphisms(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        ident = ClassTwoEndo.identity(gens, mod)
        done = 0
        while done < 25:
            e = ClassTwoEndo([random_element(gens, mod) for _ in range(3)])
            if not is_automorphism(e):
                continue
            done += 1
            inv = invert_auto(e)
            assert compose(e, inv) == ident
            assert compose(inv, e) == ident

    def test_invert_rejects_non_automorphism(self):
        e = ClassTwoEndo([self.g1 ** 3, self.g2])
        with pytest.raises(ValueError):
            invert_auto(e)

    def test_compose_associative_and_applied(self):
        gens = GeneratorSet(("a", "b", "c"))
        mod = Modulus(3, 2)
        for _ in range(25):
            e1 = ClassTwoEndo([random_element(gens, mod) for _ in range(3)])
            e2 = ClassTwoEndo([random_element(gens, mod) for _ in range(3)])
            u = random_element(gens, mod)
            assert compose(e1, e2)(u) == e1(e2(u))

    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(3, 2), Modulus(5, 1)], ids=lambda m: f"q{m.q}")
    def test_kernel_of_linear_reduction_is_p_group(self, mod):
        # automorphisms that are the identity mod F^2 have p-power order
        gens = GeneratorSet(("a", "b", "c"))
        bound = mod.q2 * mod.q
        for _ in range(20):
            images = []
            for i in range(3):
                g = ClassTwoElement.generator(gens, mod, i)
                central = random_element(gens, mod)
                z = ClassTwoElement(
                    gens, mod, (central.gen_exp * mod.q) % mod.q2, central.comm
                )
                images.append(g * z)
            e = ClassTwoEndo(images)
            power_of_p = 1
            g = e
            ident = ClassTwoEndo.identity(gens, mod)
            while g != ident:
                g = compose_power(g, mod.p)
                power_of_p *= mod.p
                assert power_of_p <= bound
            # order divides a power of p by construction of the loop
            assert compose_power(e, power_of_p) == ident


# Pure Python-int reference for the exactness tests: an element is (a, c)
# with a a list of exponents mod q^2 and c a dict {(i, j): exponent mod q}
# over i < j.  The product is the defining collection move; powers,
# inverses, commutators and endomorphisms are built from it literally.


def ref_of(u):
    return [int(x) for x in u.gen_exp], comm_of(u)


def ref_mul(u, v, q):
    (a, c), (b, e) = u, v
    return (
        [(x + y) % (q * q) for x, y in zip(a, b)],
        {(i, j): (c[i, j] + e[i, j] + b[i] * a[j]) % q for i, j in c},
    )


def ref_pow(u, k, q):
    """Square and multiply; u^(q^2) = 1, so negative k wraps mod q^2."""
    a, c = u
    acc = ([0] * len(a), {key: 0 for key in c})
    k %= q * q
    while k:
        if k & 1:
            acc = ref_mul(acc, u, q)
        u = ref_mul(u, u, q)
        k >>= 1
    return acc


def ref_commutator(u, v, q):
    inv_u, inv_v = ref_pow(u, -1, q), ref_pow(v, -1, q)
    return ref_mul(ref_mul(ref_mul(inv_u, inv_v, q), u, q), v, q)


def ref_apply(images, u, q):
    """prod_i y_i^(a_i) . prod_(i<j) [y_j, y_i]^(c_ij)."""
    a, c = u
    acc = ref_pow(images[0], 0, q)
    for y, k in zip(images, a):
        acc = ref_mul(acc, ref_pow(y, k, q), q)
    for (i, j), k in c.items():
        acc = ref_mul(acc, ref_pow(ref_commutator(images[j], images[i], q), k, q), q)
    return acc


# int64 intermediates up to q = 3^9, Python ints from q = 3^10 on; at the
# prime 2247483659 even the sum of two exponents mod q^2 passes 2^63
EXACT_MODULI = [
    Modulus(3, 1),
    Modulus(3, 2),
    Modulus(5, 2),
    Modulus(3, 9),
    Modulus(3, 10),
    Modulus(3, 12),
    Modulus(3, 19),
    Modulus(2247483659, 1),
]


@st.composite
def exact_cases(draw, mod, count):
    """d <= 6 generators and `count` random elements over `mod`."""
    d = draw(st.integers(1, 6))
    gens = GeneratorSet(f"y{i}" for i in range(d))
    elements = []
    for _ in range(count):
        ge = draw(st.lists(st.integers(0, mod.q2 - 1), min_size=d, max_size=d))
        cm = [draw(st.integers(0, mod.q - 1)) for _ in range(d * (d - 1) // 2)]
        elements.append(ClassTwoElement(gens, mod, ge, cm))
    return gens, elements


@st.composite
def diagonal_images(draw, gens, mod):
    """The images g_i^(e_i) of a diagonal endomorphism, each e_i one of 0,
    1, q^2 - 1, a non-unit p k or a random exponent."""
    d = gens.d
    images = []
    for i in range(d):
        e = draw(
            st.one_of(
                st.sampled_from([0, 1, mod.q2 - 1]),
                st.integers(1, mod.q2 // mod.p - 1).map(lambda k: mod.p * k),
                st.integers(0, mod.q2 - 1),
            )
        )
        images.append(ClassTwoElement(gens, mod, [e if k == i else 0 for k in range(d)], [0] * (d * (d - 1) // 2)))
    return images


@pytest.mark.parametrize("mod", EXACT_MODULI, ids=lambda m: f"q{m.p}^{m.f}")
class TestExactAgainstPythonInts:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(-(10**40), 10**40))
    def test_product_and_power(self, mod, data, k):
        _, (u, v) = data.draw(exact_cases(mod, 2))
        assert ref_of(u * v) == ref_mul(ref_of(u), ref_of(v), mod.q)
        assert ref_of(u ** k) == ref_pow(ref_of(u), k, mod.q)
        assert ref_of(u.inverse()) == ref_pow(ref_of(u), -1, mod.q)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_commutator(self, mod, data):
        _, (u, v) = data.draw(exact_cases(mod, 2))
        assert ref_of(commutator(u, v)) == ref_commutator(ref_of(u), ref_of(v), mod.q)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_endomorphism_application(self, mod, data):
        gens, elements = data.draw(exact_cases(mod, 7))
        images, u = elements[: gens.d], elements[-1]
        e = ClassTwoEndo(images)
        assert ref_of(e(u)) == ref_apply([ref_of(y) for y in images], ref_of(u), mod.q)
        # a diagonal map takes the elementwise closed form
        diag = data.draw(diagonal_images(gens, mod))
        e = ClassTwoEndo(diag)
        assert e.diagonal is not None
        assert ref_of(e(u)) == ref_apply([ref_of(y) for y in diag], ref_of(u), mod.q)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_compose(self, mod, data):
        gens, elements = data.draw(exact_cases(mod, 13))
        d = gens.d
        first, second, u = elements[:d], elements[d : 2 * d], elements[-1]
        inner = ref_apply([ref_of(y) for y in second], ref_of(u), mod.q)
        want = ref_apply([ref_of(y) for y in first], inner, mod.q)
        assert ref_of(compose(ClassTwoEndo(first), ClassTwoEndo(second))(u)) == want
        # diagonal maps on either side, or both
        diag_first, diag_second = data.draw(diagonal_images(gens, mod)), data.draw(diagonal_images(gens, mod))
        for outer, inner_images in ((diag_first, second), (first, diag_second), (diag_first, diag_second)):
            inner = ref_apply([ref_of(y) for y in inner_images], ref_of(u), mod.q)
            want = ref_apply([ref_of(y) for y in outer], inner, mod.q)
            assert ref_of(compose(ClassTwoEndo(outer), ClassTwoEndo(inner_images))(u)) == want


# q = 3 and 25 run on int64, 3^12 and 3^19 on Python ints
STACK_ARITHMETIC_MODULI = [Modulus(3, 1), Modulus(5, 2), Modulus(3, 12), Modulus(3, 19)]


@pytest.mark.parametrize("mod", STACK_ARITHMETIC_MODULI, ids=lambda m: f"q{m.p}^{m.f}")
class TestStackArithmetic:
    """A stack multiplies and takes powers row by row, by the formulas of
    its elements, checked against the Python-int reference."""

    def test_products_and_powers_are_per_row(self, mod):
        gens = demushkin_generators(2)
        q = mod.q
        for size in (0, 1, 2, 5):
            us = [random_element(gens, mod) for _ in range(size)]
            vs = [random_element(gens, mod) for _ in range(size)]
            u, v = ClassTwoStack.of(gens, mod, us), ClassTwoStack.of(gens, mod, vs)
            product = u * v
            assert isinstance(product, ClassTwoStack) and len(product) == size
            assert [ref_of(w) for w in product] == [ref_mul(ref_of(x), ref_of(y), q) for x, y in zip(us, vs)]
            k = rng.randrange(-(10**30), 10**30)
            assert [ref_of(w) for w in u**k] == [ref_pow(ref_of(x), k, q) for x in us]
            assert list(u.inverse()) == [x.inverse() for x in us]
            per_row = [rng.randrange(-3 * mod.q2, 3 * mod.q2) for _ in range(size)]
            for ks in (per_row, np.array(per_row, dtype=np.int64), [-k for k in per_row]):
                assert [ref_of(w) for w in u ** ks] == [ref_pow(ref_of(x), int(k), q) for x, k in zip(us, ks)]

    def test_mixed_groups_and_non_integer_exponents_are_rejected(self, mod):
        gens = demushkin_generators(2)
        u = ClassTwoStack.of(gens, mod, [random_element(gens, mod)])
        other = ClassTwoStack.of(gens, Modulus(7, 1), [random_element(gens, Modulus(7, 1))])
        with pytest.raises(ValueError, match="different truncated groups"):
            u * other
        with pytest.raises(ValueError, match="integers"):
            u ** [1.5]


class TestQuotientKill:
    def setup_method(self):
        self.mod = Modulus(3, 1)
        self.gens = demushkin_generators(2)
        self.w = parse_word("x0^3 [x0,g] [x1,x2]", self.gens, self.mod)

    def test_kill_nothing(self):
        u = random_element(self.gens, self.mod)
        assert quotient_kill([], u) == u

    def test_kill_relator_support(self):
        img = quotient_kill(["x0", "x1"], self.w)
        assert img.is_identity

    def test_partial_kill_leaves_power(self):
        img = quotient_kill(["g", "x1"], self.w)
        assert not img.is_identity
        assert list(img.gen_exp) == [3, 0]
        assert not img.comm.any()

    def test_kill_is_homomorphism(self):
        for _ in range(60):
            u = random_element(self.gens, self.mod)
            v = random_element(self.gens, self.mod)
            ku = quotient_kill(["x1"], u)
            kv = quotient_kill(["x1"], v)
            assert quotient_kill(["x1"], u * v) == ku * kv

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            quotient_kill(["nope"], self.w)

    def test_int_indices_are_killed(self):
        assert quotient_kill([1, 2], self.w) == quotient_kill(["x0", "x1"], self.w)
        assert quotient_kill([np.int64(3)], self.w) == quotient_kill(["x2"], self.w)

    @pytest.mark.parametrize("which", [-1, 4, 99, True, False, 1.0, "3"])
    def test_index_out_of_range_or_not_an_int_is_rejected(self, which):
        # a negative index would kill x_n, a bool g or x0
        with pytest.raises(ValueError, match="generator"):
            quotient_kill([which], self.w)


class TestKillQuotientMembership:
    """`bases_die` of a quotient by a central relator w that eliminates
    nothing, so the bases die iff they lie in the span of w."""

    def setup_method(self):
        self.mod = Modulus(3, 1)
        self.gens = demushkin_generators(2)
        self.w = parse_word("x0^3 [x0,g] [x1,x2]", self.gens, self.mod)

    def dies(self, *bases):
        return KillQuotient(self.w, None, (), ClassTwoStack.of(self.gens, self.mod, bases)).bases_die()

    def test_reflexive(self):
        u = random_element(self.gens, self.mod)
        assert self.dies(u * u.inverse())

    def test_relator_is_trivial(self):
        assert self.dies(self.w)
        assert self.dies(self.w ** 2)

    def test_two_sides_of_the_relation(self):
        u = parse_word("x0^3", self.gens, self.mod)
        v = parse_word("[x0,g]^-1 [x1,x2]^-1", self.gens, self.mod)
        assert self.dies(u * v.inverse())

    def test_distinct_elements_differ(self):
        u = parse_word("x0", self.gens, self.mod)
        v = parse_word("x1", self.gens, self.mod)
        assert not self.dies(u * v.inverse())

    def test_congruence_under_multiplication(self):
        for _ in range(40):
            u = random_element(self.gens, self.mod)
            assert self.dies(u * self.w * u.inverse())

    def test_empty_stack(self):
        kq = KillQuotient(self.w, None, (), ClassTwoStack.of(self.gens, self.mod, []))
        assert len(kq.base_images) == 0 and kq.bases_die()

    def test_non_central_relator_rejected(self):
        bad = parse_word("x0", self.gens, self.mod)
        kq = KillQuotient(bad, None, (), ClassTwoStack.of(self.gens, self.mod, [bad]))
        with pytest.raises(ValueError, match=re.escape("relator <x0> is not central (not in F^2/F^3)")):
            kq.bases_die()


@st.composite
def membership_cases(draw):
    """A random central relator w and a list of bases: central and
    non-central ones, the identity, and powers of w, which die in the
    quotient, alone or times a random element."""
    mod = draw(st.sampled_from([Modulus(3, 1), Modulus(3, 2), Modulus(5, 2)]))
    d = draw(st.integers(1, 5))
    gens = GeneratorSet(f"y{i}" for i in range(d))
    npairs = d * (d - 1) // 2

    def element(central):
        scale, top = (mod.q, mod.q) if central else (1, mod.q2)
        ge = [scale * draw(st.integers(0, top - 1)) for _ in range(d)]
        cm = draw(st.lists(st.integers(0, mod.q - 1), min_size=npairs, max_size=npairs))
        return ClassTwoElement(gens, mod, ge, cm)

    w = element(True)
    kinds = ["central", "any", "identity", "w^k", "w^k times central", "w^k times any"]
    bases = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        u = ClassTwoElement.identity(gens, mod)
        if kind.startswith("w^k"):
            u = w ** draw(st.integers(-mod.q2, mod.q2))
        if kind.endswith("central"):
            u = u * element(True)
        elif kind.endswith("any"):
            u = u * element(False)
        bases.append(u)
    return w, bases


class TestBatchedMembership:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(membership_cases())
    def test_matches_powers_of_the_relator(self, case):
        # w is central of order dividing q, so its span is {w^k : 0 <= k < q}
        w, bases = case
        powers = [w ** k for k in range(w.mod.q)]
        want = [b in powers for b in bases]

        def dies(items):
            return KillQuotient(w, None, (), ClassTwoStack.of(w.gens, w.mod, items)).bases_die()

        assert dies(bases) == all(want)
        assert [dies([b]) for b in bases] == want

    def test_other_group_rejected(self):
        mod = Modulus(3, 1)
        w = ClassTwoElement.identity(GeneratorSet(("a", "b")), mod)
        bases = ClassTwoStack.of(GeneratorSet(("a", "c")), mod, [ClassTwoElement.identity(GeneratorSet(("a", "c")), mod)])
        with pytest.raises(ValueError, match="different truncated group"):
            KillQuotient(w, None, (), bases)


# ---------------------------------------------------------------------------
# the per-factor parser the one-pass fold replaced: every atom, power and
# product is a normalised element (reference for the fold)
# ---------------------------------------------------------------------------

_REF_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<int>-?\d+)|(?P<sym>[\[\],()^]))")


def reference_parse(text, gens, mod):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize word at {text[pos:]!r}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    parser = _ReferenceParser(tokens, gens, mod)
    result = parser.parse_word()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in word: {text!r}")
    return result


class _ReferenceParser:
    def __init__(self, tokens, gens, mod):
        self.tokens = tokens
        self.pos = 0
        self.gens = gens
        self.mod = mod

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of word")
        self.pos += 1
        return tok

    def expect(self, sym):
        tok = self.take()
        if tok != ("sym", sym):
            raise ValueError(f"expected {sym!r}, got {tok}")

    def parse_word(self):
        result = ClassTwoElement.identity(self.gens, self.mod)
        while True:
            tok = self.peek()
            if tok is None or tok in (("sym", "]"), ("sym", ")"), ("sym", ",")):
                return result
            result = result * self.parse_factor()

    def parse_factor(self):
        atom = self.parse_atom()
        if self.peek() == ("sym", "^"):
            self.take()
            kind, val = self.take()
            if kind != "int":
                raise ValueError(f"expected integer exponent, got {val!r}")
            return atom ** int(val)
        return atom

    def parse_atom(self):
        kind, val = self.take()
        if kind == "name":
            return ClassTwoElement.generator(self.gens, self.mod, val)
        if kind == "int":
            if val == "1":
                return ClassTwoElement.identity(self.gens, self.mod)
            raise ValueError(f"unexpected integer {val!r} in word")
        if val == "[":
            left = self.parse_word()
            self.expect(",")
            right = self.parse_word()
            self.expect("]")
            return commutator(left, right)
        if val == "(":
            inner = self.parse_word()
            self.expect(")")
            return inner
        raise ValueError(f"unexpected token {val!r}")


# int64 and object-array paths of the element arithmetic the reference uses
WORD_MODULI = [
    Modulus(3, 1),
    Modulus(3, 2),
    Modulus(5, 2),
    Modulus(3, 12),
    Modulus(3, 19),
    Modulus(2247483659, 1),
]


EXPONENTS = st.integers(-(10**40), 10**40)


def nested_factors(gens):
    """Factors over gens with nested brackets and parentheses, the identity
    "1" and exponents up to 10^40."""

    def powered(atom):
        return st.one_of(atom, st.tuples(atom, EXPONENTS).map(lambda t: f"{t[0]}^{t[1]}"))

    def word(factor):
        return st.lists(factor, max_size=4).map(" ".join)

    def extend(factor):
        group = word(factor).map(lambda w: f"({w})")
        bracket = st.tuples(word(factor), word(factor)).map(lambda t: f"[{t[0]}, {t[1]}]")
        return powered(st.one_of(group, bracket))

    leaf = powered(st.sampled_from(gens.labels + ("1",)))
    return st.recursive(leaf, extend, max_leaves=16)


@st.composite
def nested_words(draw):
    """A modulus, a generator set and a word of nested factors over it."""
    mod = draw(st.sampled_from(WORD_MODULI))
    gens = demushkin_generators(draw(st.integers(0, 3)))
    text = draw(st.lists(nested_factors(gens), max_size=4).map(" ".join))
    return mod, gens, text


@st.composite
def flat_words(draw):
    """A modulus, a generator set and a word that mixes flat factors x, x^k,
    [x,y] and [x,y]^k, with and without whitespace inside and exponents up
    to 10^40, with nested factors."""
    mod = draw(st.sampled_from(WORD_MODULI))
    gens = demushkin_generators(draw(st.integers(0, 3)))
    name = st.sampled_from(gens.labels)
    space = st.sampled_from(["", " ", "  ", "\t"])
    power = st.one_of(st.just(""), st.tuples(space, space, EXPONENTS).map(lambda t: f"{t[0]}^{t[1]}{t[2]}"))
    gen = st.tuples(name, power).map("".join)
    comm = st.tuples(space, name, space, space, name, space, power).map(
        lambda t: "[{}{}{},{}{}{}]{}".format(*t)
    )
    factor = st.one_of(gen, comm, nested_factors(gens))
    return mod, gens, draw(st.lists(factor, max_size=12).map(" ".join))


# pieces of words, faulty ones among them, for comparing errors
WORD_PIECES = (
    "x0", "x1", "g", "x9", "[", "]", "(", ")", ",", "^", " ", "2", "-3", "1", "01",
    "+1", ".5", "-", "[x0,x1]", "[ x1 , g ]", "[x0,x0]", "^-1", " ^ 2", "^100000000000000000000",
)


PARSE_ERRORS = [
    ("x0^", "unexpected end of word"),
    ("x0^+1", "cannot tokenize word at '+1'"),
    ("[x0,x1", "unexpected end of word"),
    ("x0^2^3", "unexpected token '^'"),
    ("x0 , x1", "trailing input in word: 'x0 , x1'"),
    ("x9", "unknown generator 'x9'"),
    ("x0^1.5", "cannot tokenize word at '.5'"),
    ("01", "unexpected integer '01' in word"),
    # a flat factor quotes its first lexeme, as the per-factor tokens did
    ("x0 ^", "unexpected end of word"),
    ("[x0,x1]^x2", "expected integer exponent, got 'x2'"),
    ("x0^x1^2", "expected integer exponent, got 'x1'"),
    ("x0^[x1,x2]^2", "expected integer exponent, got '['"),
    ("[x0,x1]^2^3", "unexpected token '^'"),
    # the whole word is tokenized before any of it is parsed
    ("x9 +1", "cannot tokenize word at ' +1'"),
    ("x0) [x1,x2]^2 .5", "cannot tokenize word at ' .5'"),
    # each branch of the closing rule: a ")", "]" or "," that the innermost
    # opener does not expect, and a power read after a closed subword
    ("(x0]", "expected ')', got ('sym', ']')"),
    ("[x0)", "expected ',', got ('sym', ')')"),
    ("[x0,x1)", "expected ']', got ('sym', ')')"),
    ("(x0,x1)", "expected ')', got ('sym', ',')"),
    ("[x0,x1,x2]", "expected ']', got ('sym', ',')"),
    ("()^x0", "expected integer exponent, got 'x0'"),
]


class TestWordGrammar:
    def test_round_trip_random(self):
        for mod in MODULI:
            gens = demushkin_generators(2)
            for _ in range(40):
                u = random_element(gens, mod)
                assert parse_word(format_word(u), gens, mod) == u

    def test_identity_renders_as_one(self):
        gens = demushkin_generators(0)
        mod = Modulus(3, 1)
        e = ClassTwoElement.identity(gens, mod)
        assert format_word(e) == "1"
        assert parse_word("1", gens, mod) == e

    def test_nested_expressions(self):
        gens = demushkin_generators(2)
        mod = Modulus(3, 1)
        u = parse_word("(x0 x1)^2 [x0 x1, g]^-1", gens, mod)
        x0 = ClassTwoElement.generator(gens, mod, "x0")
        x1 = ClassTwoElement.generator(gens, mod, "x1")
        g = ClassTwoElement.generator(gens, mod, "g")
        expected = (x0 * x1) ** 2 * commutator(x0 * x1, g) ** (-1)
        assert u == expected

    def test_parse_errors(self):
        gens = demushkin_generators(0)
        mod = Modulus(3, 1)
        for bad in ("x9", "[x0", "x0^", "x0)", "2"):
            with pytest.raises(ValueError):
                parse_word(bad, gens, mod)

    @pytest.mark.parametrize("bad, message", PARSE_ERRORS, ids=[b for b, _ in PARSE_ERRORS])
    def test_parse_error_messages(self, bad, message):
        gens = demushkin_generators(2)
        mod = Modulus(3, 1)
        for parse in (parse_word, reference_parse):
            with pytest.raises(ValueError) as err:
                parse(bad, gens, mod)
            assert str(err.value) == message

    def test_nesting_bound(self):
        # ( and [ both count; a word nested exactly to the bound is its flat
        # form, and one level more is a ValueError naming the bound
        gens, mod = demushkin_generators(2), Modulus(3, 1)
        flat = "x0 x1^2 [g,x2]"
        assert parse_word("(" * 100 + flat + ")" * 100, gens, mod) == parse_word(flat, gens, mod)
        commuted = "[" + "(" * 99 + "x0 x1" + ")" * 99 + ", g]"
        assert parse_word(commuted, gens, mod) == parse_word("[x0 x1, g]", gens, mod)
        for deep in ("(" * 101 + flat + ")" * 101, "[(" + commuted + "), x2]", "(" * 1000 + "x0" + ")" * 1000):
            with pytest.raises(ValueError, match="deeper than the bound 100"):
                parse_word(deep, gens, mod)

    def test_surrounding_whitespace_is_accepted(self):
        gens = demushkin_generators(2)
        mod = Modulus(3, 1)
        x0 = ClassTwoElement.generator(gens, mod, "x0")
        for text in ("x0 ", " x0", "x0\n", "\tx0 \n"):
            assert parse_word(text, gens, mod) == x0
        for text in ("", "   ", "\n"):
            assert parse_word(text, gens, mod) == ClassTwoElement.identity(gens, mod)
        assert parse_word(" [x0, x1 ]^2 \n", gens, mod) == commutator(x0, parse_word("x1", gens, mod)) ** 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nested_words())
    def test_fold_matches_the_per_factor_parser(self, case):
        mod, gens, text = case
        assert parse_word(text, gens, mod) == reference_parse(text, gens, mod)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(flat_words())
    def test_flat_factors_match_the_per_factor_parser(self, case):
        mod, gens, text = case
        assert parse_word(text, gens, mod) == reference_parse(text, gens, mod)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(WORD_PIECES), max_size=10).map(lambda parts: "".join(parts).rstrip()))
    def test_faults_match_the_per_factor_parser(self, text):
        # the reference reads no trailing whitespace, hence the rstrip
        gens, mod = demushkin_generators(2), Modulus(3, 2)

        def outcome(parse):
            try:
                return parse(text, gens, mod)
            except ValueError as err:
                return str(err)

        assert outcome(parse_word) == outcome(reference_parse)

    @pytest.mark.parametrize("mod", WORD_MODULI, ids=lambda m: f"q{m.q}")
    def test_action_file_loads_as_its_words(self, mod, monkeypatch):
        gens = demushkin_generators(3)
        labels = gens.labels
        q = mod.q
        images = {}
        for i, lab in enumerate(labels):
            u = format_word(random_element(gens, mod))
            other = labels[(i + 1) % gens.d]
            images[lab] = f"{lab}^{q + 1} {u} ({other} [{lab} , {other}]^-2)^{q * q - 3} [[{lab},g], x0 x1]^{10**30}"
        want = ClassTwoEndo([parse_word(images[lab], gens, mod) for lab in labels])
        built = []
        monkeypatch.setattr(ClassTwoElement, "__init__", lambda *a: built.append(a))
        monkeypatch.setattr(ClassTwoStack, "of", lambda *a: built.append(a))
        assert ClassTwoEndo.from_json({"images": images}, gens, mod) == want
        assert built == []  # one stack, no element per image

    def test_action_file_names_only_generators(self):
        gens, mod = demushkin_generators(0), Modulus(3, 1)
        with pytest.raises(ValueError, match="image for unknown generator 'x9'"):
            ClassTwoEndo.from_json({"images": {"g": "g", "x0": "x0", "x9": "g"}}, gens, mod)
        with pytest.raises(ValueError, match="missing image for generator 'x0'"):
            ClassTwoEndo.from_json({"images": {"g": "g"}}, gens, mod)

    @pytest.mark.parametrize("mod", WORD_MODULI, ids=lambda m: f"q{m.q}")
    def test_round_trip_random_stacks(self, mod):
        gens = demushkin_generators(3)
        d = gens.d
        ge = [[rng.randrange(mod.q2) for _ in range(d)] for _ in range(20)]
        cm = [[[rng.randrange(mod.q) for _ in range(d)] for _ in range(d)] for _ in range(20)]
        upper = np.triu_indices(d, 1)
        stack = ClassTwoStack(gens, mod, np.array(ge, dtype=np.int64), np.array(cm, dtype=np.int64)[:, upper[0], upper[1]])
        for row in stack:
            assert parse_word(format_word(row), gens, mod) == row

    def test_json_round_trip(self):
        mod = Modulus(3, 2)
        # d = 4, and d = 1, which has no commutator slot
        for gens in (demushkin_generators(2), GeneratorSet(("a",))):
            u = random_element(gens, mod)
            assert ClassTwoElement.from_json(u.to_json(), gens, mod) == u
            e = ClassTwoEndo([random_element(gens, mod) for _ in range(gens.d)])
            assert ClassTwoEndo.from_json(e.to_json(), gens, mod) == e
            # a stack with no rows maps, kills and round-trips to no rows
            empty = ClassTwoStack.of(gens, mod, [])
            image = e(empty)
            assert image.gen_exp.shape == (0, gens.d) and image.comm.shape == (0, gens.d * (gens.d - 1) // 2)
            again = ClassTwoStack.of(gens, mod, [ClassTwoElement.from_json(r.to_json(), gens, mod) for r in image])
            assert again.comm.shape == image.comm.shape and list(again) == list(empty) == []
            assert len(commutator(empty, u)) == 0 and quotient_kill([], empty) is empty

    def test_json_rejects_a_repeated_coordinate(self):
        # the last triple used to win silently
        gens, mod = demushkin_generators(0), Modulus(3, 1)
        data = {"gen_exp": [0, 3], "comm_exp": [[0, 1, 1], [0, 1, 2]]}
        with pytest.raises(ValueError, match=re.escape("commutator coordinate (0, 1) is given twice in comm_exp")):
            ClassTwoElement.from_json(data, gens, mod)
        data["comm_exp"] = [[0, 1, 1]]
        assert ClassTwoElement.from_json(data, gens, mod) == parse_word("x0^3 [x0,g]", gens, mod)


class TestGeneratorSet:
    def test_generator_by_label_or_index(self):
        mod = Modulus(3, 1)
        gens = demushkin_generators(2)
        for i, lab in enumerate(gens.labels):
            g = ClassTwoElement.generator(gens, mod, i)
            assert g == ClassTwoElement.generator(gens, mod, lab) == ClassTwoElement.generator(gens, mod, np.int64(i))
            assert g.gen_exp.tolist() == [int(k == i) for k in range(gens.d)] and not g.comm.any()

    @pytest.mark.parametrize("which", [-1, 4, True, 2.0, "x9"])
    def test_generator_index_must_be_in_range(self, which):
        # -1 would be the last generator and a bool a first or second one
        with pytest.raises(ValueError, match="generator"):
            ClassTwoElement.generator(demushkin_generators(2), Modulus(3, 1), which)

    def test_mismatch_rejected(self):
        mod = Modulus(3, 1)
        a = ClassTwoElement.generator(GeneratorSet(("a", "b")), mod, 0)
        c = ClassTwoElement.generator(GeneratorSet(("c", "d")), mod, 0)
        with pytest.raises(ValueError):
            a * c

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet(("a", "a"))

    @pytest.mark.parametrize("labels", [
        "gabc", [1, 2, 3, 4], ["g", 1], ["x0", "1x"], ["a b"], ["a", ""], ["a^2"], ["[a,b]"], [("a",)], ["a\n"],
    ])
    def test_labels_must_be_names_of_the_word_grammar(self, labels):
        with pytest.raises(ValueError, match="generator label"):
            GeneratorSet(labels)

    def test_every_label_parses_as_its_generator(self):
        mod = Modulus(3, 1)
        gens = GeneratorSet(["g", "_a", "x10", "B_2", "yé"])
        for i, lab in enumerate(gens.labels):
            assert parse_word(f"{lab}^2", gens, mod) == ClassTwoElement.generator(gens, mod, i) ** 2


# ---------------------------------------------------------------------------
# stacked forms: a ClassTwoStack goes through each formula in one pass
# ---------------------------------------------------------------------------

# int64 throughout at q <= 25; object arrays for the q^2 products from
# 3^12 on, and for every product at q = 2247483659
STACK_MODULI = [
    Modulus(3, 1),
    Modulus(3, 2),
    Modulus(5, 2),
    Modulus(3, 12),
    Modulus(3, 19),
    Modulus(2247483659, 1),
]


def image_by_products(e: ClassTwoEndo, u: ClassTwoElement) -> ClassTwoElement:
    """e(u) from its normal form, with products, powers and commutators of
    the images only: prod_i y_i^(a_i) . prod_(i<j) [y_j, y_i]^(c_ij)."""
    out = ClassTwoElement.identity(u.gens, u.mod)
    for i, a in enumerate(u.gen_exp):
        out = out * e.images[i] ** int(a)
    for i, j, c in u.to_json()["comm_exp"]:
        out = out * commutator(e.images[j], e.images[i]) ** c
    return out


@st.composite
def stacked_cases(draw):
    mod = draw(st.sampled_from(STACK_MODULI))
    d = draw(st.integers(1, 5))
    gens = GeneratorSet(f"y{i}" for i in range(d))

    def element():
        ge = draw(st.lists(st.integers(0, mod.q2 - 1), min_size=d, max_size=d))
        cm = draw(st.lists(st.integers(0, mod.q - 1), min_size=d * d, max_size=d * d))
        # the draws above the diagonal, in row-major order, are the pairs
        return ClassTwoElement(gens, mod, ge, np.array(cm, dtype=np.int64).reshape(d, d)[np.triu_indices(d, 1)])

    e1 = ClassTwoEndo([element() for _ in range(d)])
    e2 = ClassTwoEndo([element() for _ in range(d)])
    rows = [element() for _ in range(draw(st.integers(0, 6)))]
    return e1, e2, ClassTwoStack.of(gens, mod, rows)


class TestStackedForms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stacked_cases())
    def test_stacked_apply_is_the_per_row_apply(self, case):
        e, _, stack = case
        mapped = e(stack)
        assert isinstance(mapped, ClassTwoStack) and len(mapped) == len(stack)
        for row, image in zip(stack, mapped):
            assert image == e(row) == image_by_products(e, row)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stacked_cases())
    def test_stacked_compose_is_the_per_image_compose(self, case):
        e1, e2, _ = case
        assert tuple(compose(e1, e2).images) == tuple(image_by_products(e1, im) for im in e2.images)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stacked_cases())
    def test_stacked_commutators_and_kills(self, case):
        e, _, stack = case
        images = e.images
        table = commutator(stack, images)
        assert len(table) == len(stack) * len(images)
        pairs = [(u, v) for u in stack for v in images]
        assert list(table) == [commutator(u, v) for u, v in pairs]
        killed = quotient_kill([0], images) if images.gens.d > 1 else None
        if killed is not None:
            assert list(killed) == [quotient_kill([0], im) for im in images]

    def test_stack_round_trip(self):
        mod = Modulus(3, 1)
        gens = demushkin_generators(2)
        els = [random_element(gens, mod) for _ in range(5)]
        stack = ClassTwoStack.of(gens, mod, [els[0], ClassTwoStack.of(gens, mod, els[1:])])
        assert list(stack) == els
        assert stack[2] == els[2] and list(stack[1:3]) == els[1:3]
        assert list(stack[[4, 0]]) == [els[4], els[0]]
        assert list(stack.is_central) == [el.is_central for el in els]
        generators = [ClassTwoElement.generator(gens, mod, i) for i in range(gens.d)]
        assert list(ClassTwoEndo.identity(gens, mod).images) == generators
        assert ClassTwoStack.of(gens, mod, []).is_identity.shape == (0,)
        with pytest.raises(ValueError, match="different truncated group"):
            ClassTwoStack.of(gens, Modulus(5, 1), els)

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_endo_from_a_list_or_a_stack(self, mod):
        gens = demushkin_generators(2)
        for _ in range(10):
            images = [random_element(gens, mod) for _ in range(gens.d)]
            from_list = ClassTwoEndo(images)
            from_stack = ClassTwoEndo(ClassTwoStack.of(gens, mod, images))
            assert from_list == from_stack and hash(from_list) == hash(from_stack)
            assert list(from_stack.images) == images
        with pytest.raises(ValueError, match="need at least one image"):
            ClassTwoEndo([])
        with pytest.raises(ValueError, match="need one image per generator"):
            ClassTwoEndo(images[:-1])

    def test_stack_is_reduced(self):
        mod = Modulus(3, 1)
        gens = GeneratorSet(("a", "b"))
        stack = ClassTwoStack(gens, mod, [[10, -1]], [[7]])
        assert stack.gen_exp.tolist() == [[1, 8]]
        assert stack.comm.tolist() == [[1]]
        with pytest.raises(ValueError):
            ClassTwoStack(gens, mod, [[1, 2, 3]], [[0]])
        with pytest.raises(ValueError, match="comm of shape"):
            ClassTwoStack(gens, mod, [[1, 2]], [[[5, 7], [4, 2]]])

    @pytest.mark.parametrize("mod", MODULI, ids=lambda m: f"q{m.q}")
    def test_defects_are_difference_relators(self, mod):
        gens = GeneratorSet(("a", "b", "c"))
        for _ in range(10):
            e = ClassTwoEndo([random_element(gens, mod) for _ in range(3)])
            signs = [rng.choice((1, -1)) for _ in range(3)]
            want = [
                ClassTwoElement.generator(gens, mod, i) ** -s * e.images[i]
                for i, s in enumerate(signs)
            ]
            assert list(e.defects(signs)) == want
            assert list(e.defects()) == [
                ClassTwoElement.generator(gens, mod, i).inverse() * e.images[i] for i in range(3)
            ]

    def test_defects_build_no_identity_and_take_no_power(self, monkeypatch):
        # g_i^(-s_i) is one linear stack diag(-s), multiplied into the images
        mod = Modulus(3, 2)
        gens = GeneratorSet(("a", "b", "c"))
        e = ClassTwoEndo([random_element(gens, mod) for _ in range(3)])
        calls = []
        real_pow = class2_words._Exponents.__pow__
        monkeypatch.setattr(class2_words._Exponents, "__pow__", lambda self, k: calls.append(k) or real_pow(self, k))
        monkeypatch.setattr(ClassTwoEndo, "identity", classmethod(lambda cls, *a: calls.append(a)))
        e.defects([1, -1, 1])
        e.defects()
        assert calls == []

    def test_central_sqrt_of_a_stack(self):
        mod = Modulus(5, 2)
        gens = demushkin_generators(2)
        central = [random_element(gens, mod) ** mod.q for _ in range(4)]
        roots = central_sqrt(ClassTwoStack.of(gens, mod, central))
        assert list(roots) == [central_sqrt(c) for c in central]
        assert all(r * r == c for r, c in zip(roots, central))


@st.composite
def central_stacks(draw, mod):
    """d <= 6 generators and a stack of d central elements: generator
    exponents divisible by q, any commutator exponents."""
    d = draw(st.integers(1, 6))
    gens = GeneratorSet(f"y{i}" for i in range(d))
    ge = [mod.q * draw(st.integers(0, mod.q - 1)) for _ in range(d * d)]
    cm = [draw(st.integers(0, mod.q - 1)) for _ in range(d * d * (d - 1) // 2)]
    return ClassTwoStack(gens, mod, np.reshape(ge, (d, d)), np.reshape(cm, (d, d * (d - 1) // 2)))


class TestTimesCentral:
    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(5, 1), Modulus(3, 2)], ids=lambda m: f"q{m.p}^{m.f}")
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_identity_times_z(self, mod, data):
        z = data.draw(central_stacks(mod))
        assert ClassTwoEndo.times_central(z) == times_central_reference(z)
        # a generator exponent that q does not divide makes its row non-central
        d = z.gens.d
        row, col = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        ge = z.gen_exp.copy()
        ge[row, col] += data.draw(st.integers(1, mod.q - 1))
        with pytest.raises(ValueError, match="needs elements of F"):
            ClassTwoEndo.times_central(ClassTwoStack(z.gens, mod, ge, z.comm))

    def test_needs_one_element_per_generator(self):
        mod = Modulus(3, 1)
        gens = demushkin_generators(2)
        z = ClassTwoStack.of(gens, mod, [parse_word("[x1,x2]", gens, mod)] * 3)
        for bad in (z, z[0]):
            with pytest.raises(ValueError, match="one central element per generator"):
                ClassTwoEndo.times_central(bad)
        assert ClassTwoEndo.times_central(ClassTwoStack.of(gens, mod, [z, z[0]])).images[3] == parse_word(
            "x2 [x1,x2]", gens, mod
        )


@st.composite
def sparse_stacks(draw, mod):
    """d rows of exponents with zero rows, entries equal to 1 and larger
    entries all drawn often; labels that are not the standard ones."""
    d = draw(st.integers(1, 6))
    P = d * (d - 1) // 2

    def entry(m):
        return st.one_of(st.just(0), st.just(0), st.just(1), st.integers(0, m - 1))

    ge = np.array([[draw(entry(mod.q2)) for _ in range(d)] for _ in range(d)], dtype=np.int64).reshape(d, d)
    cm = np.array([[draw(entry(mod.q)) for _ in range(P)] for _ in range(d)], dtype=np.int64).reshape(d, P)
    for r in draw(st.lists(st.integers(0, d - 1), max_size=2)):
        ge[r], cm[r] = 0, 0
    labels = draw(st.sampled_from([[f"x{i}" for i in range(d)], [f"gen_{d - i}" for i in range(d)]]))
    return ClassTwoStack(GeneratorSet(labels), mod, ge, cm)


class TestStackedFormatting:
    """`ClassTwoEndo.to_json` and `format_word` print every row from one
    np.nonzero per exponent array; each word is the one the per-row
    reference prints, and parses back to its row."""

    @pytest.mark.parametrize("mod", [Modulus(3, 1), Modulus(5, 1), Modulus(3, 2)], ids=lambda m: f"q{m.p}^{m.f}")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_per_row_reference(self, mod, data):
        stack = data.draw(sparse_stacks(mod))
        labels = stack.gens.labels
        want = [format_exponents_reference(labels, ge, cm) for ge, cm in zip(stack.gen_exp, stack.comm)]
        assert list(ClassTwoEndo(stack).to_json()["images"].values()) == want
        assert [format_word(row) for row in stack] == want
        assert all(parse_word(word, stack.gens, mod) == row for word, row in zip(want, stack))

    def test_zero_rows_and_exponents(self):
        mod = Modulus(3, 2)
        gens = demushkin_generators(2)
        ge = np.array([[0, 0, 0, 0], [1, 0, 12, 0], [0, 0, 0, 0], [0, 1, 0, 80]])
        cm = np.array([[0] * 6, [1, 0, 0, 0, 0, 7], [0, 0, 0, 2, 0, 0], [0] * 6])
        images = ClassTwoEndo(ClassTwoStack(gens, mod, ge, cm)).to_json()["images"]
        assert images == {"g": "1", "x0": "g x1^12 [x0,g] [x2,x1]^7", "x1": "[x1,x0]^2", "x2": "x0 x2^80"}
