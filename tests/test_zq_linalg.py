import random
from functools import lru_cache
from itertools import product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demuskin import zq_linalg
from demuskin.demushkin_core import (
    DemushkinPresentation,
    bockstein_kernel,
    delta_map,
    gamma_line,
    invariants,
)
from demuskin.zq_linalg import (
    ORACLE_MAX_DIM,
    ORACLE_MAX_SPAN,
    BilinearForm,
    Modulus,
    OracleGuardError,
    Submodule,
    eigen_split,
    integers_mod,
    inv_mod,
    is_totally_isotropic,
    isotropic_oracle,
    kernel,
    matmul_mod,
    orthogonal_complement,
)
from frame_reference import coordinate_indices_reference, isotropic_submodules, search_levels

rng = random.Random(74210)


def brute_span(rows, m, d=None):
    """All Z/m combinations of the given rows, as a frozenset of tuples of
    ints; `d` gives the length of the zero vector when there is no row."""
    rows = [[int(x) for x in r] for r in rows]
    acc = {(0,) * (len(rows[0]) if rows else d or 0)}
    for r in rows:
        acc = {tuple((x + k * y) % m for x, y in zip(v, r)) for v in acc for k in range(m)}
    return frozenset(acc)


def howell(a, m):
    """The Howell form of the rows of a matrix over Z/m, which a Submodule
    keeps."""
    return Submodule(a, np.shape(a)[1], m).basis


def intersection(a, b):
    """a and b meet in the c . A for the relations c . A + c' . B = 0 between
    their bases A and B: the kernel of the stacked bases, projected."""
    m = a.modulus
    if not (a.ngens and b.ngens):
        return Submodule.zero(a.ambient, m)
    relations = kernel(np.vstack([a.basis, b.basis]).T, m).basis
    return Submodule(matmul_mod(relations[:, : a.ngens], a.basis, m), a.ambient, m)


def random_matrix(rows, cols, m):
    return np.array([[rng.randrange(m) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)


# standard rank-4 antisymmetric gram over Z/3: <e0,e1> = 1, <e2,e3> = -1
def standard_gram_4(m=3):
    g = np.zeros((4, 4), dtype=np.int64)
    g[0, 1], g[1, 0] = 1, m - 1
    g[2, 3], g[3, 2] = m - 1, 1
    return BilinearForm(g, m)


class TestModulus:
    def test_accepts_odd_prime_powers(self):
        assert Modulus(3, 1).q == 3
        assert Modulus(3, 2).q == 9
        assert Modulus(3, 2).q2 == 81
        assert Modulus(5, 2).q2 == 625

    @pytest.mark.parametrize("p,f", [(2, 1), (4, 1), (9, 1), (3, 0), (1, 1)])
    def test_rejects_bad_parameters(self, p, f):
        with pytest.raises(ValueError):
            Modulus(p, f)


class TestHowell:
    def test_identity_is_fixed(self):
        eye = np.eye(3, dtype=np.int64)
        assert np.array_equal(howell(eye, 9), eye)

    def test_zero_matrix(self):
        assert howell(np.zeros((2, 2), dtype=np.int64), 9).shape == (0, 2)

    def test_mixed_pivot_example_mod_9(self):
        mat = [[3, 0], [0, 1]]
        h = howell(mat, 9)
        # span agrees with brute-force enumeration and the form is idempotent
        assert brute_span(h, 9) == brute_span(mat, 9)
        assert np.array_equal(howell(h, 9), h)

    def test_idempotent_random(self):
        for m in (3, 9, 5, 25):
            for _ in range(40):
                a = random_matrix(rng.randrange(1, 4), 3, m)
                h = howell(a, m)
                assert np.array_equal(howell(h, m), h)

    def test_span_preserved_both_ways(self):
        for m in (9, 25):
            for _ in range(30):
                a = random_matrix(3, 3, m)
                assert brute_span(a, m) == brute_span(howell(a, m), m, 3)

    def test_canonical_across_generating_sets(self):
        # rows rebuilt out of random combinations with the same span must
        # produce the identical canonical form
        for m in (9, 25):
            for _ in range(30):
                a = random_matrix(2, 3, m)
                span = sorted(brute_span(a, m))
                picks = [list(span[rng.randrange(len(span))]) for _ in range(4)]
                b = np.array(picks + [list(r) for r in a])
                assert np.array_equal(howell(b, m), howell(a, m))


@st.composite
def submodules_over_prime_powers(draw):
    m = draw(st.sampled_from([9, 25, 27]))
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, m - 1), min_size=d, max_size=d)
    rows = draw(st.lists(vec, max_size=d + 1))
    return Submodule(np.array(rows, dtype=np.int64).reshape(len(rows), d), d, m)


class TestKernel:
    def test_kernel_of_identity_is_zero(self):
        assert kernel(np.eye(3, dtype=np.int64), 9).rank == 0

    def test_kernel_of_zero_is_full(self):
        k = kernel(np.zeros((4, 4), dtype=np.int64), 3)
        assert k == Submodule.full(4, 3)

    def test_scalar_example_mod_9(self):
        k = kernel([[3]], 9)
        expected = {x for x in range(9) if (3 * x) % 9 == 0}
        assert {v[0] for v in brute_span(k.basis, 9)} == expected

    def test_matches_enumeration(self):
        for m in (9, 25):
            for _ in range(15):
                a = random_matrix(2, 3, m)
                k = kernel(a, m)
                truth = {
                    v
                    for v in product(range(m), repeat=3)
                    if not (np.array(v) @ a.T % m).any()
                }
                assert brute_span(k.basis, m, 3) == truth

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(submodules_over_prime_powers())
    def test_double_annihilator_is_the_submodule(self, s):
        # Z/p^k is quasi-Frobenius, so every submodule is the kernel of its
        # annihilator (Lam, Lectures on Modules and Rings, 1999, §15): the
        # isotropy search restricts to S by the columns of ann(S)
        m = s.modulus
        assert kernel(kernel(s.basis, m).basis, m) == s


class TestSubmodule:
    def test_equality_is_span_equality(self):
        a = Submodule([[1, 1, 0], [0, 1, 0]], 3, 9)
        b = Submodule([[1, 0, 0], [0, 1, 0], [1, 2, 0]], 3, 9)
        assert a == b

    def test_freeness_detects_non_unit_pivots(self):
        assert Submodule([[1, 0], [0, 1]], 2, 9).is_free
        assert not Submodule([[3, 0]], 2, 9).is_free
        assert Submodule.zero(2, 9).is_free

    def test_free_cyclic_module_with_late_unit_coordinate(self):
        # generator of additive order 9 whose only unit sits in a later
        # column: the Howell pivots are non-units but the module is free
        s = Submodule([[3, 6, 0, 2]], 4, 9)
        assert s.is_free
        assert s.rank == 1
        assert s.ngens == 2
        with pytest.raises(ValueError):
            Submodule([[3, 0]], 2, 9).rank

    def test_containment(self):
        s = Submodule([[1, 0, 2]], 3, 9)
        assert s.contains([2, 0, 4])
        assert not s.contains([1, 1, 2])

    def test_residues_and_submodule_containment(self):
        for m in (9, 25, 27):
            for _ in range(10):
                s = Submodule([[rng.randrange(m) for _ in range(4)] for _ in range(2)], 4, m)
                rows = np.array([[rng.randrange(m) for _ in range(4)] for _ in range(5)])
                res = s.residues(rows)
                assert res.tolist() == [s.residues(row[None])[0].tolist() for row in rows]
                span = brute_span(s.basis, m, 4)
                assert [not r.any() for r in res] == [tuple(row % m) in span for row in rows]
                other = Submodule(rows[:2], 4, m)
                assert s.contains_submodule(other) == all(s.contains(row) for row in other.basis)
                assert s.contains_submodule(Submodule.zero(4, m))
                assert s.contains_submodule(intersection(s, other))

    def test_intersection_reference_against_enumeration(self):
        for _ in range(20):
            m = 9
            a = Submodule([[rng.randrange(m) for _ in range(3)] for _ in range(2)], 3, m)
            b = Submodule([[rng.randrange(m) for _ in range(3)] for _ in range(2)], 3, m)
            truth = brute_span(a.basis, m, 3) & brute_span(b.basis, m, 3)
            assert brute_span(intersection(a, b).basis, m, 3) == truth

    @pytest.mark.parametrize("m", [3, 9, 25, 3**19])
    def test_coordinate_span_is_its_howell_form(self, m):
        d = 6
        eye = np.eye(d, dtype=np.int64)
        for idx in ([], [0], [4, 1, 4], [5, 3, 3, 0, 1], [2, 2, 2], list(range(d))[::-1]):
            sub, ref = Submodule.coordinate(idx, d, m), Submodule(eye[idx], d, m)
            assert sub == ref and sub._pivots == ref._pivots
            assert sub.is_free and sub.rank == ref.rank == len(set(idx))
            assert not sub.basis.flags.writeable
        assert Submodule.full(d, m) == Submodule(eye, d, m)
        assert Submodule.zero(d, m) == Submodule(eye[:0], d, m)

    @pytest.mark.parametrize("idx", [[-1], [0, -3], [6], [2, 7], [True], [1.0]])
    def test_coordinate_span_rejects_bad_indices(self, idx):
        with pytest.raises(ValueError):
            Submodule.coordinate(idx, 6, 9)


# every routine that reads integer entries over Z/9, by the name it is known by
READERS = {
    "inv_mod": lambda rows: inv_mod(rows, 9),
    "kernel": lambda rows: kernel(rows, 9),
    "eigen_split": lambda rows: eigen_split(rows, 9),
    "form": lambda rows: BilinearForm(rows, 9),
    "submodule": lambda rows: Submodule(rows, 2, 9),
}


class TestEntries:
    """Matrix and submodule entries are read like the JSON entries: integers
    of any size, reduced exactly, and nothing else."""

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    @pytest.mark.parametrize("rows", [
        [[1.7, 2]], [[1.9, 2.5]], np.array([[1.0, 2.0]]), [[True, False]],
        [[True, 2]], [[2, 3], [np.True_, 4]], [np.array([1, 2]), [False, 1]],
    ])
    def test_rejects_floats_and_bools(self, read, rows):
        with pytest.raises(ValueError, match="must be integers"):
            read(rows)

    def test_bool_mixed_into_a_list_is_rejected(self):
        for values in ([[True, 2]], [2, True], True, [[1, 2], [3, False]]):
            with pytest.raises(ValueError, match="must be integers"):
                integers_mod(values, 9)
        assert integers_mod([[1, 2], [3, 13]], 9).tolist() == [[1, 2], [3, 4]]
        assert integers_mod(np.array([[1, 11]]), 9).tolist() == [[1, 2]]

    def test_integer_arrays_are_taken_without_a_look_at_each_entry(self, monkeypatch):
        # the entry scan turns its input into an object array first
        real = np.asarray
        seen = []
        monkeypatch.setattr(np, "asarray", lambda a, dtype=None, **kw: seen.append(dtype) or real(a, dtype, **kw))
        integers_mod(np.arange(6).reshape(2, 3), 9)
        assert object not in seen
        integers_mod([[1, 2]], 9)
        assert object in seen

    def test_reduces_entries_beyond_int64(self):
        big, u = 2**70 + 1, -(2**66)
        want = [[big % 9, u % 9]]
        assert Submodule([[big, u]], 2, 9) == Submodule(want, 2, 9)
        assert kernel([[big, u]], 9) == kernel(want, 9)
        square = [[big, u], [0, big]]
        assert inv_mod(square, 9).tolist() == inv_mod([[big % 9, u % 9], [0, big % 9]], 9).tolist()
        assert BilinearForm([[0, big], [-big, 0]], 9).gram.tolist() == [[0, big % 9], [-big % 9, 0]]
        sign = 9 * 2**70 - 1  # -1 mod 9
        assert eigen_split([[1, 0], [0, sign]], 9) == eigen_split([[1, 0], [0, 8]], 9)

    @pytest.mark.parametrize("read", READERS.values(), ids=READERS.keys())
    def test_rejects_three_dimensional_rows(self, read):
        with pytest.raises(ValueError, match="2-dimensional"):
            read(np.ones((2, 2, 2), dtype=np.int64))

    @pytest.mark.parametrize("read", [
        lambda m: inv_mod([[1]], m), lambda m: kernel([[1]], m), lambda m: BilinearForm([[0]], m),
    ], ids=["inv_mod", "kernel", "form"])
    def test_rejects_a_modulus_that_is_not_a_prime_power(self, read):
        with pytest.raises(ValueError, match="not a prime power"):
            read(6)


@st.composite
def annihilation_cases(draw):
    """A span V with non-unit pivots among its generators, and a d x r
    matrix A, over Z/3, 9, 25 or 27."""
    m = draw(st.sampled_from([3, 9, 25, 27]))
    p = base_prime(m)
    d = draw(st.integers(1, 4 if m <= 9 else 3))  # the whole span is enumerated
    r = draw(st.integers(0, 3))
    entry = st.integers(0, m - 1)
    rows = [[draw(entry) * p ** draw(st.integers(0, 2)) % m for _ in range(d)]
            for _ in range(draw(st.integers(0, 3)))]
    a = [[draw(entry) for _ in range(r)] for _ in range(d)]
    return Submodule(rows, d, m), np.array(a, dtype=np.int64).reshape(d, r), m


class TestAnnihilatedBy:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(annihilation_cases())
    def test_matches_enumeration_and_intersection(self, case):
        sub, a, m = case
        got = sub.annihilated_by(a)
        span = np.array(sorted(brute_span(sub.basis, m, sub.ambient)))
        truth = {tuple(v) for v in span[~(span @ a % m).any(axis=1)].tolist()}
        assert brute_span(got.basis, m, sub.ambient) == truth
        assert got == intersection(sub, kernel(a.T, m))

    def test_object_path_at_3_to_the_19(self):
        m = 3**19
        r = random.Random(m)
        rows = [[r.randrange(m) for _ in range(4)] for _ in range(3)]
        a = [[r.randrange(m) for _ in range(2)] for _ in range(4)]
        sub = Submodule(rows, 4, m)
        got = sub.annihilated_by(a)
        assert got.ngens > 0 and sub.contains_submodule(got)
        for v in got.basis:
            assert int_matmul([v], a, m) == [[0, 0]]
        assert got == intersection(sub, kernel(np.array(a).T, m))

    def test_empty_cases(self):
        assert Submodule.zero(3, 9).annihilated_by(np.ones((3, 2), dtype=np.int64)) == Submodule.zero(3, 9)
        assert Submodule.full(3, 9).annihilated_by(np.eye(3, dtype=np.int64)) == Submodule.zero(3, 9)
        sub = Submodule([[3, 1, 0]], 3, 9)
        assert sub.annihilated_by(np.zeros((3, 0), dtype=np.int64)) == sub
        for m in (9, 3**19):
            image = Submodule.zero(3, m).image_under(np.ones((3, 2), dtype=np.int64))
            assert image == Submodule.zero(2, m)
            assert (image.rank, image.coordinate_indices) == (0, ())

    @pytest.mark.parametrize("method", ["image_under", "annihilated_by"])
    def test_operand_must_match_the_submodule(self, method):
        sub = Submodule([[1, 3]], 2, 9)
        with pytest.raises(ValueError, match="3 rows, ambient rank is 2"):
            getattr(sub, method)(np.ones((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="must be integers"):
            getattr(sub, method)([[1.5, 0], [0, 1]])


class TestAlternatingForm:
    @pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[1, 0], [0, 0]]], ids=["symmetric", "diagonal"])
    def test_rejects_a_gram_that_is_not_alternating(self, gram):
        with pytest.raises(ValueError, match="antisymmetric with zero diagonal"):
            BilinearForm(gram, 3)

    def test_accepts_an_alternating_gram(self):
        form = BilinearForm([[0, 1], [-1, 0]], 9)
        assert form.gram.tolist() == [[0, 1], [8, 0]] and form.is_nondegenerate()
        with pytest.raises(ValueError):
            form.gram[0, 1] = 2


class TestOrthogonalComplement:
    def test_complement_of_zero_is_full(self):
        form = standard_gram_4()
        z = Submodule.zero(4, 3)
        assert orthogonal_complement(form, z) == Submodule.full(4, 3)

    def test_complement_of_full_is_zero(self):
        form = standard_gram_4()
        assert orthogonal_complement(form, Submodule.full(4, 3)).rank == 0

    def test_bockstein_kernel_instance_by_enumeration(self):
        # <e0>: the dual line orthogonal to span{e0, e2, e3} under the
        # standard gram, cross-checked over all 81 vectors
        form = standard_gram_4()
        s = Submodule([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4, 3)
        perp = orthogonal_complement(form, s)
        truth = {
            v
            for v in product(range(3), repeat=4)
            if not (s.basis @ form.gram.T @ v % 3).any()
        }
        assert brute_span(perp.basis, 3) == truth
        assert perp == Submodule([[1, 0, 0, 0]], 4, 3)

    def test_double_complement_of_free_submodule(self):
        form = standard_gram_4()
        count = 0
        while count < 20:
            rows = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
            s = Submodule(rows, 4, 3)
            if not s.is_free or s.rank == 0:
                continue
            count += 1
            assert orthogonal_complement(form, orthogonal_complement(form, s)) == s

    def test_dimension_mismatch_raises(self):
        form = standard_gram_4()
        with pytest.raises(ValueError):
            orthogonal_complement(form, Submodule.zero(3, 3))


class TestIsotropy:
    def test_zero_submodule_is_isotropic(self):
        assert is_totally_isotropic(standard_gram_4(), Submodule.zero(4, 3))

    def test_single_generator_line(self):
        form = standard_gram_4()
        assert is_totally_isotropic(form, Submodule([[0, 1, 0, 0]], 4, 3))

    def test_pairing_line_is_not_isotropic(self):
        form = standard_gram_4()
        s = Submodule([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
        assert not is_totally_isotropic(form, s)
        assert form.gram[1, 0] != 0


class TestEigenSplit:
    def test_identity_action(self):
        plus, minus = eigen_split(np.eye(3, dtype=np.int64), 9)
        assert plus == Submodule.full(3, 9)
        assert minus.rank == 0

    def test_negated_identity(self):
        plus, minus = eigen_split(-np.eye(3, dtype=np.int64), 9)
        assert plus.rank == 0
        assert minus == Submodule.full(3, 9)

    def test_diagonal_example(self):
        plus, minus = eigen_split(np.diag([1, -1, -1, 1]), 3)
        assert plus == Submodule([[1, 0, 0, 0], [0, 0, 0, 1]], 4, 3)
        assert minus == Submodule([[0, 1, 0, 0], [0, 0, 1, 0]], 4, 3)

    def test_projector_identities_random(self):
        for m in (3, 9, 5):
            d = 4
            for _ in range(15):
                # conjugate a sign pattern by a random invertible matrix
                signs = np.diag([rng.choice([1, m - 1]) for _ in range(d)])
                while True:
                    t = np.array(
                        [[rng.randrange(m) for _ in range(d)] for _ in range(d)]
                    )
                    try:
                        tinv = inv_mod(t, m)
                        break
                    except ValueError:
                        continue
                a = (t @ signs @ tinv) % m
                plus, minus = eigen_split(a, m)
                inv2 = pow(2, -1, m)
                pp = (inv2 * (np.eye(d, dtype=np.int64) + a)) % m
                pm = (inv2 * (np.eye(d, dtype=np.int64) - a)) % m
                assert ((pp + pm) % m == np.eye(d, dtype=int) % m).all()
                assert not ((pp @ pm) % m).any()
                assert plus.rank + minus.rank == d
                assert plus.is_free and minus.is_free

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            eigen_split([[1, 1], [0, 1]], 9)


class TestInverse:
    def test_round_trip(self):
        for m in (9, 25):
            done = 0
            while done < 10:
                a = random_matrix(3, 3, m)
                try:
                    inv = inv_mod(a, m)
                except ValueError:
                    continue
                done += 1
                assert ((a @ inv) % m == np.eye(3, dtype=int)).all()

    @pytest.mark.parametrize(
        "entries, m",
        [
            ([[3, 0], [0, 1]], 9),
            ([[3, 1], [0, 3]], 9),
            ([[1, 2], [2, 4]], 25),
            ([[1, 0, 0], [0, 1, 0]], 9),
        ],
        ids=["non-unit-diagonal", "nilpotent-mod-p", "rank-one", "non-square"],
    )
    def test_singular_raises(self, entries, m):
        with pytest.raises(ValueError):
            inv_mod(entries, m)


class TestIsotropicOracle:
    def test_standard_form_maximum(self):
        form = standard_gram_4()
        assert len(search_levels(form, Submodule.full(4, 3))) - 1 == 2

    def test_within_bockstein_kernel(self):
        form = standard_gram_4()
        constraint = Submodule([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4, 3)
        levels = isotropic_submodules(form, constraint)
        assert len(levels) - 1 == 2
        line = Submodule([[1, 0, 0, 0]], 4, 3)
        for s in levels[2]:
            assert s.contains_submodule(line)

    def test_zero_form_full_rank(self):
        form = BilinearForm(np.zeros((2, 2), dtype=np.int64), 3)
        assert len(search_levels(form, Submodule.full(2, 3))) - 1 == 2

    def test_guard_rejects_large_instances(self):
        form = BilinearForm(np.zeros((7, 7), dtype=np.int64), 3)
        with pytest.raises(ValueError):
            search_levels(form, Submodule.full(7, 3))
        # no bound on the modulus by itself: 25^2 lies inside the span bound
        form25 = BilinearForm(np.zeros((2, 2), dtype=np.int64), 25)
        assert len(search_levels(form25, Submodule.full(2, 25))) - 1 == 2

    def test_enumeration_matches_naive_filter_small(self):
        # rank-1 isotropic submodules over (Z/3)^4: every line is isotropic
        # for an antisymmetric form, so count lines
        form = standard_gram_4()
        lines = search_levels(form, Submodule.full(4, 3))[1]
        assert len(lines) == (3 ** 4 - 1) // (3 - 1)

    def test_zero_node_rejects_non_free_lines(self):
        # over Z/9 the line spanned by 3 is isotropic but not free
        form = BilinearForm(np.zeros((2, 2), dtype=np.int64), 9)
        subs = [s for level in isotropic_submodules(form, Submodule([[3, 0], [0, 1]], 2, 9)) for s in level]
        assert all(s.is_free for s in subs)
        assert [s.rank for s in subs] == [0, 1, 1, 1]  # (3a, 1) for a in 0, 1, 2

    @pytest.mark.parametrize("p,f,n", [(3, 1, 0), (3, 2, 0), (3, 1, 2), (5, 1, 2)])
    def test_maximal_submodules_from_one_search(self, monkeypatch, p, f, n):
        pres, cup = standard_cup(p, f, n)
        bockstein, gamma = invariants(pres).bockstein, delta_map(pres, 1)
        # one search, masked by the Bockstein column, and no Submodule built;
        # TestOneSearchOracle compares the result with the whole module and ker B
        searches, built = [], []
        real = zq_linalg._isotropic_normal_bases
        monkeypatch.setattr(zq_linalg, "_isotropic_normal_bases", lambda *a: searches.append(a[1]) or real(*a))
        watch_submodule_builds(monkeypatch, built)
        isotropic_oracle(cup, bockstein, gamma)
        assert len(searches) == 1 and np.array_equal(searches[0], bockstein[:, None] % p**f)
        assert built == []

    def test_maximal_submodules_guarded(self):
        with pytest.raises(OracleGuardError):
            isotropic_oracle(BilinearForm(np.zeros((7, 7), dtype=np.int64), 3), np.zeros(7, dtype=np.int64), [0] * 7)

    @pytest.mark.parametrize("m,d", [(7, 6), (9, 6)])
    def test_span_guard(self, m, d):
        # inside the rank bound, but past q^d <= 5^6
        form = BilinearForm(np.zeros((d, d), dtype=np.int64), m)
        with pytest.raises(OracleGuardError, match=f"q\\^d <= 15625 vectors; got {m}\\^{d} = {m**d}"):
            search_levels(form, Submodule.zero(d, m))

    def test_rank_by_rank_order(self):
        levels = isotropic_submodules(standard_gram_4(), Submodule.full(4, 3))
        assert [{s.rank for s in level} for level in levels] == [{0}, {1}, {2}]
        subs = [s for level in levels for s in level]
        assert len({s.basis.tobytes() for s in subs}) == len(subs)


def watch_submodule_builds(monkeypatch, built):
    """Record in `built` every Submodule made by `__init__` or `coordinate`
    (`zero` and `full` go through `coordinate`), and refuse any Howell form."""
    init, coordinate = Submodule.__init__, Submodule.coordinate.__func__
    monkeypatch.setattr(Submodule, "__init__", lambda self, *a: built.append("__init__") or init(self, *a))
    monkeypatch.setattr(Submodule, "coordinate", classmethod(lambda cls, *a: built.append("coordinate") or coordinate(cls, *a)))

    def no_elimination(*args):
        raise AssertionError("a Howell form was taken")

    monkeypatch.setattr(zq_linalg, "_howell_rows", no_elimination)


class TestLineTable:
    """The search's per-(d, m) table of free lines and the rank it seeds."""

    @pytest.mark.parametrize("p,f,n", [(3, 1, 0), (3, 2, 0), (3, 1, 2), (5, 1, 2)])
    def test_rank_one_is_the_table(self, p, f, n):
        pres, cup = standard_cup(p, f, n)
        q = p**f
        columns = invariants(pres).bockstein[:, None]
        levels, inside = zq_linalg._isotropic_normal_bases(cup, columns)
        lines, lead_bit, support = zq_linalg._line_table(pres.d, q)
        assert levels[1].shape == (len(lines), 1, pres.d)
        assert np.array_equal(levels[1][:, 0], lines)
        assert np.array_equal(inside[1], ~((lines @ columns) % q).any(axis=1))
        # one line per free line, in the lexicographic order of (Z/q)^d: its
        # first unit entry is a 1, at its lead bit
        first = (lines % p != 0).argmax(axis=1)
        assert (lines[np.arange(len(lines)), first] == 1).all()
        want = [v for v in product(range(q), repeat=pres.d) if any(x % p for x in v)]
        assert lines.tolist() == [list(v) for v in want if next(x for x in v if x % p) == 1]
        assert np.array_equal(lead_bit, 1 << first)
        assert np.array_equal(support, ((lines != 0) * (1 << np.arange(pres.d))).sum(axis=1))

    def test_one_read_only_table_per_space(self):
        table = zq_linalg._line_table(4, 3)
        assert zq_linalg._line_table(4, 3) is table
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_cache_stays_bounded(self):
        maxsize = zq_linalg._line_table.cache_info().maxsize
        assert maxsize is not None
        spaces = [(d, m) for d in (1, 2, 3) for m in (3, 5, 7, 9, 11, 13, 25)]
        for d, m in spaces:
            zq_linalg._line_table(d, m)
        assert len(spaces) > maxsize and zq_linalg._line_table.cache_info().currsize <= maxsize

    @pytest.mark.parametrize(
        "columns",
        [np.eye(2, dtype=np.int64), kernel(Submodule([[3, 0]], 2, 9).basis, 9).basis.T],
        ids=["zero-kernel", "no-free-line"],
    )
    def test_masks_every_node_past_the_root(self, columns):
        # the zero form on (Z/9)^2 has 12 free lines and one free plane;
        # neither kernel holds a free line
        form = BilinearForm(np.zeros((2, 2), dtype=np.int64), 9)
        levels, inside = zq_linalg._isotropic_normal_bases(form, columns)
        assert [len(level) for level in levels] == [1, 12, 1]
        assert inside[0].tolist() == [True]
        assert not any(mask.any() for mask in inside[1:])

    @pytest.mark.parametrize("p,f,n", [(3, 1, 2), (3, 2, 0)])
    def test_cold_and_warm_searches_agree(self, p, f, n):
        pres, cup = standard_cup(p, f, n)
        columns = invariants(pres).bockstein[:, None]
        zq_linalg._line_table.cache_clear()
        cold = zq_linalg._isotropic_normal_bases(cup, columns)
        hits = zq_linalg._line_table.cache_info().hits
        warm = zq_linalg._isotropic_normal_bases(cup, columns)
        assert zq_linalg._line_table.cache_info().hits == hits + 1
        for got, want in zip(warm, cold):
            assert len(got) == len(want)
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def lagrangian_count(p, k, g):
    """Free Lagrangians of a rank-2g symplectic Z/p^k module.

    p^((k-1)g(g+1)/2) * prod_{i=1..g} (p^i + 1): the field count times the
    Hensel lifts (Milnor-Husemoller, Symmetric Bilinear Forms, ch. I).
    """
    return p ** ((k - 1) * g * (g + 1) // 2) * prod(p**i + 1 for i in range(1, g + 1))


def isotropic_node_count(p, f, n, k):
    """N_k, the number of free totally isotropic rank-k submodules of the
    nondegenerate alternating (Z/p^f)^(2m), m = n/2 + 1: the F_p count
    [m choose k]_p prod_{i<k} (p^(m-i) + 1) (Taylor, The Geometry of the
    Classical Groups, 1992) times the Hensel lifts of a smooth variety of
    dimension 2k(m-k) + k(k+1)/2."""
    m = n // 2 + 1
    lifts = p ** ((f - 1) * (2 * k * (m - k) + k * (k + 1) // 2))
    return lifts * gaussian_binomial(m, k, p) * prod(p ** (m - i) + 1 for i in range(k))


def admitted_cells():
    """(p, f, n) of each odd prime power q = p^f <= 125 and n in {0, 2, 4, 6}
    that the oracle guards admit."""
    cells = []
    for q in range(3, 126, 2):
        try:
            mod = Modulus.from_q(q)
        except ValueError:
            continue
        admitted = (n for n in (0, 2, 4, 6) if n + 2 <= ORACLE_MAX_DIM and q ** (n + 2) <= ORACLE_MAX_SPAN)
        cells += [(mod.p, mod.f, n) for n in admitted]
    return cells


ADMITTED_CELLS = admitted_cells()


def standard_cup(p, f, n):
    pres = DemushkinPresentation.standard(n, Modulus(p, f))
    return pres, invariants(pres).cup


@lru_cache(maxsize=None)
def level_sizes(p, f, n):
    """Per rank, the node count of the one search of the whole module on the
    standard presentation: one search per cell serves every test here."""
    pres, cup = standard_cup(p, f, n)
    return tuple(len(level) for level in search_levels(cup, Submodule.full(pres.d, p**f)))


class TestOracleClosedForms:
    """Counts of the search against closed forms on standard presentations."""

    def test_admitted_cells(self):
        # all 36 cells at n = 0, and q^(n+2) <= 5^6 past it
        assert len(ADMITTED_CELLS) == 43
        assert {(p**f, n) for p, f, n in ADMITTED_CELLS if n} == {
            (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (3, 4), (5, 4)
        }

    @pytest.mark.parametrize("p,f,n", ADMITTED_CELLS)
    def test_node_counts(self, p, f, n):
        # every level of the whole-module search has N_k nodes, up to the
        # Lagrangians at k = n/2 + 1
        assert level_sizes(p, f, n) == tuple(isotropic_node_count(p, f, n, k) for k in range(n // 2 + 2))

    @pytest.mark.parametrize("p,f,n", [(3, 1, 2), (5, 1, 2), (7, 1, 2), (3, 2, 2), (3, 1, 4)])
    def test_full_module_counts(self, p, f, n):
        q, d, g = p**f, n + 2, n // 2 + 1
        ranks = level_sizes(p, f, n)
        assert len(ranks) - 1 == g
        assert ranks[g] == lagrangian_count(p, f, g)
        assert ranks[1] == (q**d - (q // p) ** d) // (q - q // p)

    def test_free_lines_over_z9(self):
        assert level_sizes(3, 2, 2)[1] == (9**4 - 3**4) // 6

    @pytest.mark.parametrize(
        "p,f,n,count",
        [(3, 1, 2, 4), (5, 1, 2, 6), (7, 1, 2, 8), (3, 2, 2, 12), (3, 1, 4, 40)],
    )
    def test_maximal_in_bockstein_kernel(self, p, f, n, count):
        # ker B is the orthogonal of the cyclotomic line, and every maximal
        # free isotropic submodule there contains it: they are the
        # Lagrangians of line^perp / line, a symplectic module of rank n
        pres, cup = standard_cup(p, f, n)
        top, maximal = maximal_isotropic_free_submodules(cup, bockstein_kernel(pres))
        assert top == n // 2 + 1
        assert len(maximal) == lagrangian_count(p, f, n // 2) == count
        line = gamma_line(pres)
        assert all(s.contains_submodule(line) for s in maximal)


def maximal_isotropic_free_submodules(form, constraint):
    """The maximum rank r of a free totally isotropic submodule inside
    `constraint` and every such submodule of rank r, as Howell Submodules:
    the reference for `isotropic_oracle`, searching `constraint` itself."""
    levels = search_levels(form, constraint)
    return len(levels) - 1, [Submodule(basis, form.dim, form.modulus) for basis in levels[-1]]


# (p, f, n) and the closed-form count of maximal V in ker B
ORACLE_CELLS = [
    (3, 1, 0, 1), (3, 1, 2, 4), (5, 1, 0, 1), (5, 1, 2, 6), (7, 1, 0, 1),
    (7, 1, 2, 8), (3, 2, 0, 1), (3, 2, 2, 12), (3, 1, 4, 40), (5, 1, 4, 156),
]


@lru_cache(maxsize=None)
def one_search(p, f, n, vec=None):
    """`isotropic_oracle` on the standard presentation, for ker B and gamma
    (or the coordinate vector e_vec)."""
    pres, cup = standard_cup(p, f, n)
    target = delta_map(pres, 1) if vec is None else np.eye(pres.d, dtype=np.int64)[vec]
    return isotropic_oracle(cup, invariants(pres).bockstein, target)


class TestOneSearchOracle:
    """`isotropic_oracle` against the searches it replaces: the whole module,
    ker B searched by itself, and Howell containment of the cyclotomic line."""

    @pytest.mark.parametrize("p,f,n,count", ORACLE_CELLS)
    def test_matches_two_searches(self, p, f, n, count):
        pres, cup = standard_cup(p, f, n)
        top, maximal = maximal_isotropic_free_submodules(cup, bockstein_kernel(pres))
        found = one_search(p, f, n)
        assert found.max_rank == len(level_sizes(p, f, n)) - 1
        assert (found.max_rank_in_kernel, found.maximal_count_in_kernel) == (top, len(maximal))
        line = gamma_line(pres)
        assert found.all_contain_vec and all(s.contains_submodule(line) for s in maximal)
        assert found.first_missing is None

    @pytest.mark.parametrize("p,f,n,count", ORACLE_CELLS)
    def test_maximal_count_closed_form(self, p, f, n, count):
        # the maximal V in ker B are the Lagrangians of gamma^perp / gamma,
        # free symplectic of rank n (Taylor, The Geometry of the Classical
        # Groups, 1992).  f >= 2 with n/2 >= 2 stays unchecked: the search of
        # Z/9 at d = 6 does not finish, and the span guard refuses it.
        assert lagrangian_count(p, f, n // 2) == count
        assert one_search(p, f, n).maximal_count_in_kernel == count

    @pytest.mark.parametrize("p,f,n,count", ORACLE_CELLS)
    def test_dual_of_x0_is_missed_with_witness(self, p, f, n, count):
        # ker B is cut out by x0's coordinate, so no V inside contains e_x0;
        # the witness is the normal basis of a maximal V of the reference
        pres, cup = standard_cup(p, f, n)
        found = one_search(p, f, n, vec=1)
        assert not found.all_contain_vec
        witness = Submodule(found.first_missing, pres.d, p**f)
        assert not witness.contains(np.eye(pres.d, dtype=np.int64)[1])
        assert witness in maximal_isotropic_free_submodules(cup, bockstein_kernel(pres))[1]

    def test_witness_is_a_normal_basis_outside_the_vector(self):
        # over the standard form of rank 4, e_2 lies in some maximal V of
        # ker B and misses others: the witness is the first that misses it
        pres, cup = standard_cup(3, 1, 2)
        found = one_search(3, 1, 2, vec=2)
        assert not found.all_contain_vec
        basis = found.first_missing
        pivots = (basis % 3 != 0).argmax(axis=1)
        assert np.array_equal(basis[:, pivots], np.eye(len(basis), dtype=np.int64))
        assert not Submodule(basis, 4, 3).contains([0, 0, 1, 0])
        assert any(s.contains([0, 0, 1, 0]) for s in maximal_isotropic_free_submodules(cup, bockstein_kernel(pres))[1])

    def test_rank_zero_form(self):
        # the zero module is the one V, of rank 0, and it holds the zero vector
        form = BilinearForm(np.zeros((0, 0), dtype=np.int64), 3)
        found = isotropic_oracle(form, np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert found == (0, 0, 1, None) and found.all_contain_vec

    def test_rejects_mismatched_shapes(self):
        pres, cup = standard_cup(3, 1, 2)
        with pytest.raises(ValueError):
            isotropic_oracle(cup, np.zeros(3, dtype=np.int64), [0] * 4)
        with pytest.raises(ValueError):
            isotropic_oracle(cup, np.zeros(4, dtype=np.int64), [0] * 3)


def gaussian_binomial(d, r, p):
    num = prod(p ** (d - i) - 1 for i in range(r))
    return num // prod(p ** (i + 1) - 1 for i in range(r))


@pytest.mark.parametrize("p,k,d", [(3, 1, 3), (5, 1, 3), (3, 2, 3)])
def test_zero_form_counts_direct_summands(p, k, d):
    # under the zero form every free submodule is isotropic; the free
    # rank-r submodules of (Z/p^k)^d number p^((k-1)r(d-r)) [d choose r]_p
    q = p**k
    form = BilinearForm(np.zeros((d, d), dtype=np.int64), q)
    ranks = [len(level) for level in search_levels(form, Submodule.full(d, q))]
    assert ranks == [p ** ((k - 1) * r * (d - r)) * gaussian_binomial(d, r, p) for r in range(d + 1)]


def reference_isotropic_free_submodules(form, constraint):
    """Depth-first search over every vector at every node (slow reference)."""
    m = form.modulus
    d = form.dim
    gram = form.gram
    vecs = [np.array(v) for v in sorted(brute_span(constraint.basis, m, d)) if any(v)]
    zero = Submodule.zero(d, m)
    seen = {zero.basis.tobytes()}
    found = [zero]
    stack = [zero]
    while stack:
        sub = stack.pop()
        for v in vecs:
            if int((v @ gram @ v) % m):
                continue
            if sub.ngens and ((sub.basis @ gram @ v) % m).any():
                continue
            if sub.ngens and ((v @ gram @ sub.basis.T) % m).any():
                continue
            if sub.contains(v):
                continue
            bigger = Submodule(np.vstack([sub.basis, v.reshape(1, -1)]), d, m)
            if not bigger.is_free or bigger.rank != sub.rank + 1:
                continue
            key = bigger.basis.tobytes()
            if key in seen:
                continue
            seen.add(key)
            found.append(bigger)
            stack.append(bigger)
    return found


@st.composite
def forms_and_constraints(draw):
    m = draw(st.sampled_from([3, 5, 9]))
    d = draw(st.integers(1, 3))
    entries = st.lists(st.integers(0, m - 1), min_size=d * d, max_size=d * d)
    a = np.array(draw(entries), dtype=np.int64).reshape(d, d)
    a = np.triu(a, 1) - np.triu(a, 1).T
    # The reference tries every constraint vector at every node: over the
    # whole of (Z/9)^3 (729 vectors) one degenerate form takes tens of
    # seconds, so there the constraint has at most two generators; the
    # whole module is covered by test_zero_form_counts_direct_summands.
    small = m**d <= 125
    if small and draw(st.booleans()):
        return BilinearForm(a, m), Submodule.full(d, m)
    vec = st.lists(st.integers(0, m - 1), min_size=d, max_size=d)
    rows = draw(st.lists(vec, min_size=1, max_size=3 if small else 2))
    return BilinearForm(a, m), Submodule(rows, d, m)


def assert_matches_reference(form, constraint):
    levels = isotropic_submodules(form, constraint)
    want = reference_isotropic_free_submodules(form, constraint)
    keys = [s.basis.tobytes() for level in levels for s in level]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {s.basis.tobytes() for s in want}
    assert all(s.rank == r for r, level in enumerate(levels) for s in level)


class TestOracleAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(forms_and_constraints())
    def test_same_submodules(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("p,f,n", [(3, 1, 0), (5, 1, 0), (7, 1, 0), (3, 2, 0), (3, 1, 2)])
    @pytest.mark.parametrize("where", ["full", "bockstein_kernel"])
    def test_standard_cells(self, p, f, n, where):
        pres, cup = standard_cup(p, f, n)
        if where == "full":
            assert_matches_reference(cup, Submodule.full(pres.d, p**f))
        else:
            assert_matches_reference(cup, bockstein_kernel(pres))


# ---------------------------------------------------------------------------
# exactness at large moduli: int64 while m^2 fits, Python ints beyond
# ---------------------------------------------------------------------------

LARGE_MODULI = [3**19, 3**20, 3**24, 4294967291]  # the last is a prime near 2^32


def int_matmul(a, b, m):
    """Python-int reference product mod m."""
    a, b = [[int(x) for x in row] for row in a], [[int(x) for x in row] for row in b]
    return [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*b)] for row in a]


@st.composite
def invertible_mod(draw):
    """(I + p R) U over Z/m, with U unit upper triangular: always invertible,
    with entries spread over all of [0, m)."""
    m = draw(st.sampled_from(LARGE_MODULI))
    p = 3 if m % 3 == 0 else m
    k = draw(st.integers(1, 5))
    entry = st.integers(0, m - 1)
    r = [[draw(entry) for _ in range(k)] for _ in range(k)]
    u = [[1 if i == j else (draw(entry) if j > i else 0) for j in range(k)] for i in range(k)]
    left = [[(int(i == j) + p * r[i][j]) % m for j in range(k)] for i in range(k)]
    return int_matmul(left, u, m), m


def base_prime(m):
    """p for the moduli tested here: powers of 3 or 5, or primes."""
    return next((k for k in (3, 5) if m % k == 0), m)


def smith_case(r, m, rows, cols, top):
    """An integer matrix left . diag(scale) . right, with left random mod m,
    right small and each scale entry 0, 1 or p^k for k < top, together with
    its Smith invariants from sympy, one per column (0 past its rank)."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    p = base_prime(m)
    left = [[r.randrange(m) for _ in range(rows)] for _ in range(rows)]
    right = [[r.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
    scale = [r.choice([0, 1, p ** r.randrange(top)]) for _ in range(rows)]
    a = [[sum(left[i][k] * scale[k] * right[k][j] for k in range(rows)) for j in range(cols)]
         for i in range(rows)]
    snf = smith_normal_form(Matrix(a), domain=ZZ)
    invariants = [int(snf[i, i]) for i in range(min(rows, cols))]
    return a, invariants + [0] * (cols - len(invariants))


class TestLargeModuli:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(invertible_mod())
    def test_inverse_is_exact(self, case):
        a, m = case
        inv = inv_mod(a, m)
        k = len(a)
        eye = [[int(i == j) for j in range(k)] for i in range(k)]
        assert int_matmul(a, inv, m) == eye
        assert int_matmul(inv, a, m) == eye

    @pytest.mark.parametrize("m", LARGE_MODULI)
    def test_howell_span_and_kernel(self, m):
        r = random.Random(m)
        rows = [[r.randrange(m) for _ in range(4)] for _ in range(3)]
        sub = Submodule(rows, 4, m)
        for row in rows:
            assert sub.contains(row)
        combo = [sum(c * x for c, x in zip((5, m - 7, 11), col)) % m for col in zip(*rows)]
        assert sub.contains(combo)
        ker = kernel(rows, m)
        for v in ker.basis:
            assert int_matmul([v], [list(c) for c in zip(*rows)], m) == [[0, 0, 0]]

    @pytest.mark.parametrize("m", LARGE_MODULI)
    def test_kernel_size_matches_smith_form(self, m):
        # |ker| over Z/m is prod gcd(d_i, m) over the columns, d_i the Smith
        # invariants of the integer matrix (0 past its rank)
        r = random.Random(m + 2)
        top = 26 if m % 3 == 0 else 7  # some invariants fall beyond the modulus
        for rows, cols in [(3, 4), (4, 3), (4, 4), (5, 5)]:
            a, invariants = smith_case(r, m, rows, cols, top)
            ker = kernel([[x % m for x in row] for row in a], m)
            size = prod(m // int(row[np.nonzero(row)[0][0]]) for row in ker.basis)
            assert size == prod(gcd(d, m) for d in invariants)

    def test_modulus_keeps_q_squared_in_int64(self):
        assert Modulus(3, 19).q2 < 2**63 and Modulus(2247483659, 1).q2 < 2**63
        with pytest.raises(ValueError, match="int64"):
            Modulus(3, 20)

    @pytest.mark.parametrize("m", LARGE_MODULI)
    def test_pairing_and_rank_are_exact(self, m):
        r = random.Random(m + 1)
        gram = [[r.randrange(m) for _ in range(4)] for _ in range(4)]
        u, v = [r.randrange(m) for _ in range(4)], [r.randrange(m) for _ in range(4)]
        assert int(matmul_mod(matmul_mod(u, gram, m), v, m)) == int_matmul(int_matmul([u], gram, m), [[x] for x in v], m)[0][0]
        # the standard symplectic form stays nondegenerate whatever the size
        # of its entries
        w = [[0, 1, 0, 0], [m - 1, 0, 0, 0], [0, 0, 0, m - 1], [0, 0, 1, 0]]
        assert BilinearForm(w, m).is_nondegenerate()


class TestRanksAgainstSympy:
    """Freeness, free rank and nondegeneracy against sympy, at small and
    large moduli."""

    SHAPES = [(3, 4), (4, 3), (4, 4), (5, 5), (2, 5), (5, 2)]

    @pytest.mark.parametrize("m", [9, 25, 27] + LARGE_MODULI)
    def test_freeness_and_rank_match_smith_form(self, m):
        # the row span mod m is the sum of the cyclic modules d_i Z/m over the
        # Smith invariants d_i: free iff every gcd(d_i, m) is 1 or m, of rank
        # the number of gcds equal to 1
        r = random.Random(m + 3)
        e = next(k for k in range(1, 64) if base_prime(m) ** k == m)
        seen = set()
        for rows, cols in self.SHAPES * 4:
            a, invariants = smith_case(r, m, rows, cols, e + 2)
            gcds = [gcd(d, m) for d in invariants]
            free = all(g in (1, m) for g in gcds)
            sub = Submodule([[x % m for x in row] for row in a], cols, m)
            assert sub.is_free == free
            if free:
                assert sub.rank == gcds.count(1)
            else:
                with pytest.raises(ValueError):
                    sub.rank
            seen.add(free)
        assert seen == ({True} if e == 1 else {True, False})

    @pytest.mark.parametrize("m", [9, 25, 27] + LARGE_MODULI)
    def test_nondegeneracy_matches_rank_mod_p(self, m):
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix

        r = random.Random(m + 4)
        p = base_prime(m)
        field = GF(p)
        seen = set()
        for n in [2, 3, 4, 5] * 8:
            # b - b^T for a Smith-shaped b (mostly degenerate mod p) and a uniform one
            shaped, _ = smith_case(r, m, n, n, 2)
            for b in (shaped, [[r.randrange(m) for _ in range(n)] for _ in range(n)]):
                a = [[b[i][j] - b[j][i] for j in range(n)] for i in range(n)]  # alternating
                rank = DomainMatrix([[field(x % p) for x in row] for row in a], (n, n), field).rank()
                form = BilinearForm([[x % m for x in row] for row in a], m)
                assert form.is_nondegenerate() == (rank == n)
                seen.add(rank == n)
        assert seen == {True, False}


def free_rank_mod_p(sub):
    """Freeness by the mod-p rank: free iff log_p of the span's size (read
    off the Howell pivots) is e times the rank of the basis mod p; the free
    rank, or None."""
    m = sub.modulus
    p = base_prime(m)
    e = next(k for k in range(1, 64) if p**k == m)
    r = len(howell(sub.basis % p, p))
    size_log = 0
    for row in sub.basis:
        pivot = int(row[np.flatnonzero(row)[0]])
        size_log += e - next(v for v in range(e) if pivot % p ** (v + 1))
    return r if size_log == e * r else None


@st.composite
def spans(draw):
    """Rows over Z/3, 9, 25, 27 or 125 whose entries carry random powers of
    p, so that unit and non-unit Howell pivots both occur."""
    m = draw(st.sampled_from([3, 9, 25, 27, 125]))
    p = base_prime(m)
    d = draw(st.integers(1, 5))
    entry = st.integers(0, m - 1)
    rows = [[draw(entry) * p ** draw(st.integers(0, 2)) % m for _ in range(d)]
            for _ in range(draw(st.integers(0, 4)))]
    return Submodule(rows, d, m)


class TestUnitPivotFreeness:
    """A span whose Howell pivots are all 1 is free of rank ngens, read off
    without the mod-p Howell form; other spans take the mod-p comparison."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spans())
    @example(Submodule([[3, 6, 0, 2]], 4, 9))
    def test_matches_the_mod_p_reference(self, sub):
        want = free_rank_mod_p(sub)
        assert sub.is_free == (want is not None)
        if want is not None:
            assert sub.rank == want

    def test_unit_pivots_need_no_reduction_mod_p(self, monkeypatch):
        unit = Submodule([[1, 3, 0, 2], [0, 0, 1, 4]], 4, 9)
        late = Submodule([[3, 6, 0, 2]], 4, 9)
        calls = []
        real = zq_linalg._howell_rows
        monkeypatch.setattr(zq_linalg, "_howell_rows", lambda *args: calls.append(args[2]) or real(*args))
        assert unit.is_free and unit.rank == 2 and calls == []
        # a non-unit pivot: free on one generator, decided mod p
        assert late.is_free and late.rank == 1 and calls == [3]


NONDEGENERACY_MODULI = [(3, 1), (5, 1), (3, 2), (7, 1)]


@st.composite
def grams(draw, kind):
    """A d x d alternating gram over Z/p^f.  "monomial": the indices paired
    in a drawn order, <e_i, e_j> = u and <e_j, e_i> = -u for a unit u or,
    now and then, a multiple of p (an odd d leaves one index unpaired), with
    multiples of p added off the pairs half of the time; "dense": a - a^T
    for a drawn a, so the matrix is rarely monomial mod p."""
    p, f = draw(st.sampled_from(NONDEGENERACY_MODULI))
    q = p**f
    d = draw(st.integers(1, 7))

    def drawn_alternating(scale):
        a = np.array([[draw(st.integers(0, q - 1)) for _ in range(d)] for _ in range(d)], dtype=np.int64)
        return scale * (a - a.T)

    if kind == "dense":
        return drawn_alternating(1) % q, q
    perm = draw(st.permutations(range(d)))
    gram = np.zeros((d, d), dtype=np.int64)
    for i, j in zip(perm[0::2], perm[1::2]):
        unit = draw(st.integers(1, p - 1)) + p * draw(st.integers(0, q // p - 1))
        gram[i, j] = unit if draw(st.integers(0, 4)) else p * unit % q
        gram[j, i] = -gram[i, j] % q
    if draw(st.booleans()):
        gram = (gram + drawn_alternating(p)) % q
    return gram, q


def howell_nondegenerate(gram, q) -> bool:
    """The reference: a full-rank Howell form of the gram matrix mod p."""
    p = base_prime(q)
    return len(howell(gram % p, p)) == len(gram)


class TestMonomialNondegeneracy:
    """A gram matrix that is monomial mod p (one nonzero per row and per
    column) is nondegenerate with no elimination; any other takes the Howell
    form mod p, and both agree with the Howell reference."""

    @pytest.mark.parametrize("kind", ["monomial", "dense"])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_howell_reference(self, kind, data):
        gram, q = data.draw(grams(kind))
        assert BilinearForm(gram, q).is_nondegenerate() == howell_nondegenerate(gram, q)

    def test_each_path_and_its_eliminations(self, monkeypatch):
        calls = []
        real = zq_linalg._howell_rows
        monkeypatch.setattr(zq_linalg, "_howell_rows", lambda *args: calls.append(args[2]) or real(*args))
        # units pairing e0 with e2 and e1 with e3, with a multiple of p off
        # the pairs: monomial mod 3
        monomial = [[0, 3, 2, 0], [6, 0, 0, 4], [7, 0, 0, 0], [0, 5, 0, 0]]
        assert BilinearForm(monomial, 9).is_nondegenerate() and calls == []
        # a p-divisible entry on a pair leaves two zero rows mod p
        divisible = [[0, 0, 3, 0], [0, 0, 0, 4], [6, 0, 0, 0], [0, 5, 0, 0]]
        assert not BilinearForm(divisible, 9).is_nondegenerate() and calls == [3]
        # two nonzeros in a row: Pfaffian 1, invertible, but not monomial
        dense = [[0, 1, 1, 0], [2, 0, 0, 0], [2, 0, 0, 1], [0, 0, 2, 0]]
        assert BilinearForm(dense, 3).is_nondegenerate() and calls == [3, 3]

    @pytest.mark.parametrize("n", [2, 12, 40])
    def test_standard_cup_form_needs_no_elimination(self, monkeypatch, n):
        calls = []
        real = zq_linalg._howell_rows
        monkeypatch.setattr(zq_linalg, "_howell_rows", lambda *args: calls.append(args[2]) or real(*args))
        assert invariants(DemushkinPresentation.standard(n, Modulus(3, 2))).cup_nondegenerate
        assert calls == []


@st.composite
def coordinate_like_spans(draw):
    """Spans that are coordinate spans more often than not: unit multiples
    of coordinate vectors, now and then with an extra entry in some row."""
    m = draw(st.sampled_from([3, 9, 25, 27]))
    p = base_prime(m)
    d = draw(st.integers(1, 6))
    J = draw(st.lists(st.integers(0, d - 1), max_size=d))
    rows = np.zeros((len(J), d), dtype=np.int64)
    for r, j in enumerate(J):
        rows[r, j] = draw(st.integers(1, p - 1)) + p * draw(st.integers(0, m // p - 1))
        if draw(st.integers(0, 5)) == 0:
            rows[r, draw(st.integers(0, d - 1))] = draw(st.integers(0, m - 1))
    return Submodule(rows, d, m)


class TestCoordinateIndices:
    """`Submodule.coordinate_indices` reads a coordinate span's index set
    off its Howell form, once; it agrees with a scan of the whole basis."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(coordinate_like_spans(), spans()))
    def test_matches_the_basis_scan(self, sub):
        got, want = sub.coordinate_indices, coordinate_indices_reference(sub)
        assert (None if got is None else list(got)) == want
        assert sub.coordinate_indices is got

    def test_written_down_for_a_coordinate_span(self):
        assert Submodule.coordinate([4, 1, 4], 6, 9).coordinate_indices == (1, 4)
        assert Submodule([[2, 0, 0], [0, 0, 4]], 3, 9).coordinate_indices == (0, 2)
        assert Submodule([[3, 0, 0]], 3, 9).coordinate_indices is None
        assert Submodule.zero(3, 9).coordinate_indices == ()
