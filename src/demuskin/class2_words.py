"""Exact arithmetic in the class-2 truncation F/F^3 of a free pro-p group.

The filtration is the q-central series P^1 = P, P^(i+1) = (P^i)^q [P^i, P].
Every element of F/F^3 has a unique normal form

    g_1^(a_1) ... g_d^(a_d) . prod_(i<j) [g_j, g_i]^(c_ij)

with generator exponents a_i mod q^2 and commutator exponents c_ij mod q.
The commutator convention is [x, y] = x^-1 y^-1 x y, so collection moves use
g_j g_i = g_i g_j [g_j, g_i] for i < j.  An element is its exponent vector
(a, c) in (Z/q^2)^d + (Z/q)^P, P = d(d-1)/2, that of the consistent
polycyclic presentation of F/F^3 (Sims, Computation with Finitely Presented
Groups, 1994, ch. 9): c holds one slot per pair i < j in row-major order,
the order of np.triu_indices(d, 1), and no other module knows that layout.

With b (x) a the pair part b_i a_j (i < j) of the outer product, the product
is the 2-cocycle (a, c)(b, e) = (a + b, c + e + b (x) a), so powers,
commutators and endomorphisms are closed formulas in (a, c): the class-2
case of Deep Thought collection (Leedham-Green & Soicher, 1998).  Each
formula carries a leading element axis unchanged, so a ClassTwoStack of N
elements is multiplied, raised to powers, mapped, commuted, killed and
tested in one array pass, by the same product and power routines as an
element.  A diagonal endomorphism g_i -> g_i^(e_i), such as the identity,
a clean involution g_i -> g_i^(+-1) or the coinvariant kill of the
negated generators, needs no quadratic form: it sends (a, c) to
(e_i a_i mod q^2, e_i e_j c_ij mod q) elementwise.

Validation happens where exponents enter: the public constructors of
elements and stacks, JSON input and the word parser reduce and
shape-check what they are given.  Every arithmetic result (products,
powers, commutators, endomorphism images, kills, rows of a stack) is
reduced by its formula already and is taken without a copy or a second
check.

Elements, stacks, endomorphisms and quotients are immutable values; all
operations are pure functions.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from demuskin.zq_linalg import Modulus, Submodule, exact_dtype, integers_mod, inv_mod, matmul_mod


# a generator label, and a name in the word grammar below
_NAME = r"[A-Za-z_]\w*"
_LABEL = re.compile(_NAME)


class GeneratorSet:
    """Ordered generator labels, each a name of the word grammar; the
    normal form depends on the order."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        if isinstance(labels, str):
            raise ValueError(f"generator labels must be a list of names, not the string {labels!r}")
        labels = tuple(labels)
        if not labels:
            raise ValueError("need at least one generator")
        for lab in labels:
            if not (isinstance(lab, str) and _LABEL.fullmatch(lab)):
                raise ValueError(f"generator label {lab!r} is not a name of the word grammar")
        if len(set(labels)) != len(labels):
            raise ValueError(f"generator labels must be unique, got {labels}")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def d(self) -> int:
        return len(self.labels)

    def index(self, which) -> int:
        """The position of a generator given by its label or by an int
        index 0 <= i < d; a ValueError for anything else, a bool included."""
        if isinstance(which, str):
            try:
                return self._index[which]
            except KeyError:
                raise ValueError(f"unknown generator {which!r}") from None
        if isinstance(which, (int, np.integer)) and not isinstance(which, bool) and 0 <= which < len(self.labels):
            return int(which)
        raise ValueError(f"generator index {which!r} is not an int 0 <= i < {len(self.labels)}")

    def _select(self, indices) -> "GeneratorSet":
        """The labels at the given distinct positions, in that order, taken
        without a second validation: they are distinct names already."""
        out = GeneratorSet.__new__(GeneratorSet)
        out.labels = tuple(self.labels[i] for i in indices)
        out._index = {lab: i for i, lab in enumerate(out.labels)}
        return out

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"GeneratorSet{self.labels}"


def demushkin_generators(n: int) -> GeneratorSet:
    """The basis g, x0, ..., xn used for rank n+2 presentations."""
    return GeneratorSet(("g",) + tuple(f"x{i}" for i in range(n + 1)))


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows i and the columns j of the pairs i < j: slot s of c holds
    the exponent of [g_j[s], g_i[s]]."""
    return np.triu_indices(d, 1)


def _no_comm(d: int, *lead) -> np.ndarray:
    """Zero commutator exponents with the given leading axes."""
    return np.zeros(lead + (d * (d - 1) // 2,), dtype=np.int64)


def _slot(d: int, i, j):
    """The slot of the pair (i, j), or of arrays of pairs; a ValueError
    unless the coordinates are integers with 0 <= i < j < d."""
    i, j = np.asarray(i), np.asarray(j)
    if i.dtype.kind not in "iu" or j.dtype.kind not in "iu" or not ((0 <= i) & (i < j) & (j < d)).all():
        raise ValueError(f"commutator coordinate ({i}, {j}) is not a pair 0 <= i < j < {d}")
    return i * (2 * d - i - 1) // 2 + j - i - 1


def _cross(b, a) -> np.ndarray:
    """b (x) a along the last axis: b_i a_j over the pairs i < j."""
    i, j = _pairs(b.shape[-1])
    return b[..., i] * a[..., j]


def _pair_terms(comm, d: int):
    """(i, j, c_ij) for the nonzero slots of one packed vector, in slot order."""
    i, j = _pairs(d)
    nz = np.flatnonzero(comm)
    return zip(i[nz].tolist(), j[nz].tolist(), comm[nz].tolist())


def _normal_form(gens: GeneratorSet, mod: Modulus, gen_exp, comm, lead: tuple):
    """gen_exp mod q^2 and comm mod q, as read-only int64 arrays of shapes
    lead + (d,) and lead + (P,)."""
    ge, cm = integers_mod(gen_exp, mod.q2), integers_mod(comm, mod.q)
    shapes = lead + (gens.d,), lead + (gens.d * (gens.d - 1) // 2,)
    if (ge.shape, cm.shape) != shapes:
        raise ValueError(f"need gen_exp of shape {shapes[0]} and comm of shape {shapes[1]}")
    ge.setflags(write=False)
    cm.setflags(write=False)
    return ge, cm


def _json_object(value, what: str) -> dict:
    """The value when it is a JSON object; a ValueError naming its type otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_same_group(u, v):
    if u.gens != v.gens or u.mod != v.mod:
        raise ValueError("elements live in different truncated groups")


class _Exponents:
    """Shared by elements and stacks (one leading axis); answers per element."""

    __slots__ = ("gens", "mod", "gen_exp", "comm")

    @classmethod
    def _normal(cls, gens: GeneratorSet, mod: Modulus, gen_exp, comm):
        """An element or a stack of int64 arrays already in normal form (of
        the shapes `_normal_form` checks), taken without a copy."""
        out = cls.__new__(cls)
        out.gens, out.mod = gens, mod
        gen_exp.setflags(write=False)
        comm.setflags(write=False)
        out.gen_exp, out.comm = gen_exp, comm
        return out

    def _result(self, gen_exp, comm):
        """`_normal` of exponents reduced by an arithmetic formula, cast to
        int64 from the formula's exact dtype; an element stays one element."""
        if gen_exp.ndim != self.gen_exp.ndim:
            raise ValueError(f"an operation on a {type(self).__name__} gave exponents of shape {gen_exp.shape}")
        return self._normal(self.gens, self.mod, gen_exp.astype(np.int64, copy=False), comm.astype(np.int64, copy=False))

    @property
    def is_identity(self):
        return ~(self.gen_exp.any(axis=-1) | self.comm.any(axis=-1))

    @property
    def is_central(self):
        """Whether the element lies in F^2/F^3 (gen_exp divisible by q)."""
        return ~(self.gen_exp % self.mod.q).any(axis=-1)

    def __mul__(self, other):
        """(a, c)(b, e) = (a + b, c + e + b (x) a), row by row for stacks."""
        _check_same_group(self, other)
        q, q2 = self.mod.q, self.mod.q2
        a = self.gen_exp.astype(exact_dtype(q2**2), copy=False)
        # collecting other's generators through self's picks up [g_j, g_i]^(a_j b_i)
        cross = _cross(other.gen_exp % q, a % q)
        return self._result((a + other.gen_exp) % q2, (self.comm + other.comm + cross) % q)

    def __pow__(self, k):
        """u^k = (k a, k c + C(k,2) a (x) a) for every integer k; a stack
        takes one k or one k per row.  As q is odd, C(k,2) mod q depends on
        k mod q only."""
        q, q2 = self.mod.q, self.mod.q2
        dt = exact_dtype(q2**2)
        k = np.asarray(integers_mod(k, q2), dtype=dt)[..., None]
        a = self.gen_exp.astype(dt, copy=False)
        a1, k1 = a % q, k % q
        cm = k1 * self.comm + (k1 * (k1 - 1) // 2 % q) * _cross(a1, a1)
        return self._result(k * a % q2, cm % q)

    def inverse(self):
        return self ** -1


class ClassTwoElement(_Exponents):
    """Normal form of an element of F/F^3: gen_exp of shape (d,) and the
    packed commutator exponents comm of shape (P,)."""

    __slots__ = ()

    def __init__(self, gens: GeneratorSet, mod: Modulus, gen_exp, comm):
        self.gens = gens
        self.mod = mod
        self.gen_exp, self.comm = _normal_form(gens, mod, gen_exp, comm, ())

    @classmethod
    def identity(cls, gens: GeneratorSet, mod: Modulus) -> "ClassTwoElement":
        return cls(gens, mod, np.zeros(gens.d, dtype=np.int64), _no_comm(gens.d))

    @classmethod
    def generator(cls, gens: GeneratorSet, mod: Modulus, which) -> "ClassTwoElement":
        """g_i for a label or an int index i, as `GeneratorSet.index` reads it."""
        gen_exp = np.zeros(gens.d, dtype=np.int64)
        gen_exp[gens.index(which)] = 1
        return cls._normal(gens, mod, gen_exp, _no_comm(gens.d))

    @property
    def commutator_form(self) -> np.ndarray:
        """C - C^T mod q: the antisymmetric d x d matrix whose entry (i, j),
        i < j, is the exponent of [g_j, g_i]."""
        i, j = _pairs(self.gens.d)
        form = np.zeros((self.gens.d, self.gens.d), dtype=np.int64)
        form[i, j], form[j, i] = self.comm, -self.comm % self.mod.q
        return form

    # bound in the element's own class too: perfbench's tracer wraps the members
    # of a class's own dict, and counts element products and powers there
    __mul__ = _Exponents.__mul__
    __pow__ = _Exponents.__pow__

    def __eq__(self, other):
        return (
            isinstance(other, ClassTwoElement)
            and self.gens == other.gens
            and self.mod == other.mod
            and np.array_equal(self.gen_exp, other.gen_exp)
            and np.array_equal(self.comm, other.comm)
        )

    def __hash__(self):
        return hash((self.gens, self.mod, self.gen_exp.tobytes(), self.comm.tobytes()))

    def __repr__(self):
        return f"<{format_word(self)}>"

    def to_json(self) -> dict:
        """The generator exponents and the nonzero commutator exponents as
        [i, j, c_ij] triples, i < j, in slot order."""
        sparse = [list(term) for term in _pair_terms(self.comm, self.gens.d)]
        return {"gen_exp": [int(x) for x in self.gen_exp], "comm_exp": sparse}

    @classmethod
    def from_json(cls, data: dict, gens: GeneratorSet, mod: Modulus) -> "ClassTwoElement":
        """The inverse of to_json; a coordinate outside 0 <= i < j < d, a
        coordinate given twice or a non-integer exponent is a ValueError,
        and so is a value that is not a JSON object or a comm_exp that is
        not a list of [i, j, c] lists."""
        terms = _json_object(data, "a class-2 element").get("comm_exp", [])
        cm, seen = [0] * (gens.d * (gens.d - 1) // 2), set()
        for term in terms if isinstance(terms, list) else [terms]:
            if not (isinstance(term, list) and len(term) == 3):
                raise ValueError(f"comm_exp must be a JSON list of [i, j, c] lists, got {type(term).__name__} {term!r}")
            s = _slot(gens.d, term[0], term[1])
            if s in seen:
                raise ValueError(f"commutator coordinate ({term[0]}, {term[1]}) is given twice in comm_exp")
            seen.add(s)
            cm[s] = term[2]
        return cls(gens, mod, data["gen_exp"], cm)


class ClassTwoStack(_Exponents):
    """N elements of F/F^3 as one pair of exponent arrays: gen_exp is N x d
    mod q^2 and comm is N x P mod q, one packed vector per row.

    Indexing with an integer gives a ClassTwoElement, with a slice or an
    index array a substack; iteration yields the rows as elements.  Two
    stacks multiply row by row, and a power takes one exponent or one per
    row.
    """

    __slots__ = ()

    def __init__(self, gens: GeneratorSet, mod: Modulus, gen_exp, comm):
        self.gens = gens
        self.mod = mod
        self.gen_exp, self.comm = _normal_form(gens, mod, gen_exp, comm, np.shape(gen_exp)[:1])

    @classmethod
    def of(cls, gens: GeneratorSet, mod: Modulus, items) -> "ClassTwoStack":
        """The rows of the given elements and stacks, in order."""
        items = list(items)
        for it in items:
            if it.gens != gens or it.mod != mod:
                raise ValueError("elements live in a different truncated group")
        ge = [np.atleast_2d(it.gen_exp) for it in items] + [np.zeros((0, gens.d), dtype=np.int64)]
        cm = [np.atleast_2d(it.comm) for it in items] + [_no_comm(gens.d, 0)]
        return cls._normal(gens, mod, np.concatenate(ge), np.concatenate(cm))

    def __len__(self):
        return len(self.gen_exp)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return ClassTwoElement._normal(self.gens, self.mod, self.gen_exp[idx], self.comm[idx])
        return ClassTwoStack._normal(self.gens, self.mod, self.gen_exp[idx], self.comm[idx])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __repr__(self):
        return f"ClassTwoStack[{', '.join(format_word(el) for el in self)}]"


def commutator(u, v):
    """[u, v] = u^-1 v^-1 u v = (0, b (x) a - a (x) b); lands in F^2/F^3.

    With a stack on either side, the stack of [u_i, v_j] over every pair,
    i major.
    """
    _check_same_group(u, v)
    q, d = u.mod.q, u.gens.d
    a = np.atleast_2d(u.gen_exp)[:, None] % q
    b = np.atleast_2d(v.gen_exp)[None] % q
    comm = _cross(b, a) - _cross(a, b)
    comm = comm.reshape(comm.shape[0] * comm.shape[1], comm.shape[2])
    table = ClassTwoStack._normal(u.gens, u.mod, np.zeros((len(comm), d), dtype=np.int64), comm % q)
    return table[0] if isinstance(u, ClassTwoElement) and isinstance(v, ClassTwoElement) else table


def central_sqrt(c):
    """The unique square root inside F^2/F^3, a group of odd exponent q:
    c^((q+1)/2).  Takes an element or a stack of central elements."""
    if not c.is_central.all():
        raise ValueError("central_sqrt needs an element of F^2/F^3")
    return c ** ((c.mod.q + 1) // 2)


class ClassTwoEndo:
    """Endomorphism of F/F^3 given by generator images, kept as one
    ClassTwoStack whose row i is the image of g_i."""

    __slots__ = ("gens", "mod", "images", "_diagonal")

    def __init__(self, images):
        if not isinstance(images, ClassTwoStack):
            images = list(images)
            if not images:
                raise ValueError("need at least one image")
            images = ClassTwoStack.of(images[0].gens, images[0].mod, images)
        if len(images) != images.gens.d:
            raise ValueError("need one image per generator")
        self.gens, self.mod, self.images = images.gens, images.mod, images
        self._diagonal = False  # not yet worked out

    @classmethod
    def linear(cls, gens: GeneratorSet, mod: Modulus, matrix) -> "ClassTwoEndo":
        """g_i -> prod_k g_k^(matrix[i, k]), images without a commutator
        part: a linear change of basis.  Only the d x d matrix is read and
        checked; the zero commutator part is normal as built."""
        d = gens.d
        gen_exp = integers_mod(matrix, mod.q2)
        if gen_exp.shape != (d, d):
            raise ValueError(f"need a linear part of shape {(d, d)}, got {gen_exp.shape}")
        return cls(ClassTwoStack._normal(gens, mod, gen_exp, _no_comm(d, d)))

    @classmethod
    def identity(cls, gens: GeneratorSet, mod: Modulus) -> "ClassTwoEndo":
        return cls.linear(gens, mod, np.eye(gens.d, dtype=np.int64))

    @classmethod
    def times_central(cls, z: ClassTwoStack) -> "ClassTwoEndo":
        """g_i -> g_i z_i for a stack z of d central elements, the kernel of
        Aut(F/F^3) -> Aut(F/F^2).  z_i's generator part is divisible by q,
        so it collects past g_i with no commutator: the image of g_i is
        (e_i + a(z_i), c(z_i)), and e_i + a(z_i) stays below q^2."""
        if not isinstance(z, ClassTwoStack) or len(z) != z.gens.d:
            raise ValueError("times_central needs a stack of one central element per generator")
        if not z.is_central.all():
            raise ValueError("times_central needs elements of F^2/F^3")
        return cls(ClassTwoStack._normal(z.gens, z.mod, z.gen_exp + np.eye(z.gens.d, dtype=np.int64), z.comm))

    @property
    def linear_matrix(self) -> np.ndarray:
        """Row i = gen_exp of the image of g_i, reduced mod q."""
        return self.images.gen_exp % self.mod.q

    @property
    def diagonal(self) -> np.ndarray | None:
        """The read-only e with g_i -> g_i^(e_i) for every i and no
        commutator part in any image, or None when the map is not of that
        form; worked out once per endomorphism."""
        if self._diagonal is False:
            ge = self.images.gen_exp
            e = ge.diagonal().copy()
            diagonal = np.count_nonzero(ge) == np.count_nonzero(e) and not self.images.comm.any()
            e.setflags(write=False)
            self._diagonal = e if diagonal else None
        return self._diagonal

    def __call__(self, u):
        """prod_i y_i^(a_i) . prod_(i<j) [y_j, y_i]^(c_ij) for images y_i = (L_i, M_i).

        A diagonal map g_i -> g_i^(e_i) sends (a, c) to (e_i a_i, e_i e_j c_ij)
        elementwise.  Otherwise collecting the powers and commutators of the
        images is one quadratic form: (a L, sum_i a_i M_i + the pairs of
        L^T K L) with the d x d form K over Z/q that holds c_ij at (i, j) and
        a_i a_j - c_ij at (j, i) for i < j, and C(a_i, 2) at (i, i); as q is
        odd, C(a_i, 2) mod q depends on a_i mod q only.  A stack of N elements
        goes through either formula in one pass, with K built per row; an
        element is its one-row case.
        """
        if u.gens != self.gens or u.mod != self.mod:
            raise ValueError("element and endomorphism have different domains")
        q, d = self.mod.q, self.gens.d
        e = self.diagonal
        if e is not None:
            q2 = self.mod.q2
            i, j = _pairs(d)
            e1 = e % q
            # e_i e_j mod q times c_ij stays below q^2 = q2, inside int64
            cm = (e1[i] * e1[j] % q) * u.comm % q
            return u._result(u.gen_exp.astype(exact_dtype(q2**2), copy=False) * e % q2, cm)
        images = self.images
        a, c = np.atleast_2d(u.gen_exp), np.atleast_2d(u.comm)
        a1, lin1 = a % q, images.gen_exp % q
        i, j = _pairs(d)
        form = a1[:, :, None] * a1[:, None, :]
        form[:, i, j] = c
        form[:, j, i] -= c
        diag = np.arange(d)
        form[:, diag, diag] = a1 * (a1 - 1) // 2
        form %= q
        # one product at a time: at most two N x d x d arrays are alive
        form = matmul_mod(form, lin1, q)
        form = matmul_mod(lin1.T, form, q)
        cm = form[:, i, j]
        # only the images with a commutator part enter sum_i a_i M_i
        nz = images.comm.any(axis=1)
        if nz.any():
            cm = (cm + matmul_mod(a1[:, nz], images.comm[nz], q)) % q
        ge = matmul_mod(a, images.gen_exp, self.mod.q2)
        return u._result(ge.reshape(u.gen_exp.shape), cm.reshape(u.comm.shape))

    def defects(self, signs=None) -> ClassTwoStack:
        """Row i is g_i^(-s_i) phi(g_i), with s_i = signs[i] (default +1):
        the difference relators g_i^-1 phi(g_i), or g_i phi(g_i) where phi
        inverts g_i up to F^2."""
        s = np.ones(self.gens.d, dtype=np.int64) if signs is None else signs
        return ClassTwoEndo.linear(self.gens, self.mod, -np.diag(s)).images * self.images

    def __eq__(self, other):
        return (
            isinstance(other, ClassTwoEndo)
            and self.gens == other.gens
            and self.mod == other.mod
            and np.array_equal(self.images.gen_exp, other.images.gen_exp)
            and np.array_equal(self.images.comm, other.images.comm)
        )

    def __hash__(self):
        return hash((self.gens, self.mod, self.images.gen_exp.tobytes(), self.images.comm.tobytes()))

    def __repr__(self):
        body = ", ".join(f"{lab} -> {word}" for lab, word in self.to_json()["images"].items())
        return f"ClassTwoEndo({body})"

    def to_json(self) -> dict:
        labels = self.gens.labels
        return {"images": dict(zip(labels, _format_rows(labels, self.images.gen_exp, self.images.comm)))}

    @classmethod
    def from_json(cls, data: dict, gens: GeneratorSet, mod: Modulus) -> "ClassTwoEndo":
        """Every image word folded to exponents, and the rows made one stack;
        an action or an `images` value that is not a JSON object, or an
        image that is not a string, is a ValueError."""
        images = _json_object(_json_object(data, "an action")["images"], "images")
        for lab in images:
            if lab not in gens._index:
                raise ValueError(f"image for unknown generator {lab!r}")
        for lab in gens.labels:
            if lab not in images:
                raise ValueError(f"missing image for generator {lab!r}")
            if not isinstance(images[lab], str):
                raise ValueError(f"image for generator {lab!r} must be a word string, got {type(images[lab]).__name__}")
        return cls(_parse_words([images[lab] for lab in gens.labels], gens, mod))


def compose(e1: ClassTwoEndo, e2: ClassTwoEndo) -> ClassTwoEndo:
    """The endomorphism u -> e1(e2(u)): e1 maps e2's image stack in one pass."""
    if e1.gens != e2.gens or e1.mod != e2.mod:
        raise ValueError("endomorphisms have different domains")
    return ClassTwoEndo(e1(e2.images))


def invert_auto(e: ClassTwoEndo) -> ClassTwoEndo:
    """Inverse of an automorphism of F/F^3.

    First invert the linear part mod q^2, then cancel the remaining central
    defect: the composite e . f0 fixes every generator up to an element of
    F^2/F^3, and such a map is undone by dividing the defects back out.
    """
    try:
        minv = inv_mod(e.images.gen_exp, e.mod.q2)
    except ValueError:
        raise ValueError("endomorphism is not an automorphism (singular linear part)")
    gens, mod = e.gens, e.mod
    f0 = ClassTwoEndo.linear(gens, mod, minv)
    z = compose(e, f0).defects()
    if not z.is_central.all():
        raise AssertionError("linear correction left a non-central defect")
    result = compose(f0, ClassTwoEndo.times_central(z**-1))
    ident = ClassTwoEndo.identity(gens, mod)
    if compose(e, result) != ident or compose(result, e) != ident:
        raise AssertionError("automorphism inversion failed to verify")
    return result


def quotient_kill(gens_to_kill, u):
    """Image of u (an element or a stack) in the truncated free group on the
    surviving generators.

    Substituting the identity for killed generators keeps the normal form:
    the surviving generators and the pairs of surviving generators are
    just sliced out.  Killing free generators is compatible with the
    q-central series, so this is the image in the class-2 truncation of the
    quotient.  Each killed generator is a label or an int index, as
    `GeneratorSet.index` reads it.
    """
    kill = frozenset(u.gens.index(which) for which in gens_to_kill)
    if not kill:
        return u
    keep, slots, small = _kill_plan(u.gens, kill)
    return type(u)._normal(small, u.mod, u.gen_exp[..., keep], u.comm[..., slots])


@lru_cache(maxsize=256)
def _kill_plan(gens: GeneratorSet, kill: frozenset) -> tuple[np.ndarray, np.ndarray, GeneratorSet]:
    """The surviving generators, the slots of their pairs and their labels,
    worked out once per generator set and set of killed indices."""
    keep = np.array([i for i in range(gens.d) if i not in kill], dtype=np.int64)
    if not len(keep):
        raise ValueError("killing every generator leaves no group")
    rows, cols = _pairs(len(keep))
    slots = _slot(gens.d, keep[rows], keep[cols])
    keep.setflags(write=False)
    slots.setflags(write=False)
    return keep, slots, gens._select(keep)


class KillQuotient:
    """The class-2 quotient of F/F^3 by a central relator w and by the
    generators tau(g_k), k eliminated, of a frame tau: `project(u)` kills
    those generators in tau^-1(u) (`tau_inv` is None for the identity frame)
    and lands in the truncated free group on the kept generators.  The
    relator and a stack of bases go through it in one stacked pass.

    `bases_die` says whether the bases die modulo the relator image, with
    one Howell reduction of the relator image built when asked.  That
    decides their normal closure: the quotient divides by the span of a
    central relator, so a base that dies maps to a central element, and
    every conjugate of it and every commutator [b, u] dies with it.
    """

    def __init__(self, relator: ClassTwoElement, tau_inv: ClassTwoEndo | None, eliminated, bases: ClassTwoStack):
        self.tau_inv = tau_inv
        self.eliminated_labels = tuple(eliminated)
        images = self.project(ClassTwoStack.of(relator.gens, relator.mod, [bases, relator]))
        self.kept_labels = images.gens.labels
        self.base_images, self.relator_image = images[:-1], images[-1]

    def project(self, u):
        """Image of an element or a stack in the truncated free group on the
        kept generators."""
        return quotient_kill(self.eliminated_labels, u if self.tau_inv is None else self.tau_inv(u))

    def bases_die(self) -> bool:
        """Whether every base image lies in the span of the relator image.

        The mixed module (Z/q^2)^d + (Z/q)^P embeds into (Z/q^2)^(d+P) by
        scaling the commutator slots with q, so each element lifts to the
        row (a, q c) mod q^2, and one Howell reduction of the relator
        image's row answers for the whole stack.  A non-central base is
        never in the span, as the relator image's generator part is
        divisible by q; a relator image that is not central is a ValueError.
        """
        w = self.relator_image
        if not w.is_central:
            raise ValueError(f"relator {w!r} is not central (not in F^2/F^3)")
        q, q2 = w.mod.q, w.mod.q2
        row, lifts = (np.concatenate([u.gen_exp, q * u.comm], axis=-1) % q2 for u in (w, self.base_images))
        return not Submodule(row, len(row), q2).residues(lifts).any()


# ---------------------------------------------------------------------------
# word grammar: juxtaposition = product, ^k = integer power, [a,b] =
# commutator, parentheses group, "1" is the identity
# ---------------------------------------------------------------------------

_POWER = r"(?:\s*\^\s*(-?\d+))?"
# one alternative per token kind; the last takes the rest of a word that has
# no token at its position, so it is the last match when there is one
_TOKEN = re.compile(
    rf"\s*(?:({_NAME}){_POWER}|\[\s*({_NAME})\s*,\s*({_NAME})\s*\]{_POWER}|(-?\d+)|([\[\],()^]))"
    r"|(\s*\S[\s\S]*)"
)
# the deepest nesting of ( and [ in a word: each level holds one d-list and
# one P-list on the fold's stack
MAX_NESTING = 100


def _fold_word(text: str, gens: GeneratorSet, mod: Modulus) -> tuple[list[int], list[int]]:
    """The exponents (a mod q^2, c mod q) of one word, folded left to right
    into dense lists over Python ints, reduced only after a power of a
    subword and at the end, so every modulus is exact without a dtype rule.

    The whole word is tokenized first.  A flat factor x^k or [x,y]^k
    carries its exponent; a "^ k" after any other factor is read by one
    lookahead.  A factor joins the word (a, c) by the cocycle
    (a + b, c + e + b (x) a): g_i^k adds k a_j to c_ij for each j > i,
    then k to a_i; a commutator adds +-k to one slot; a subword (b, e),
    being g_1^(b_1) ... g_d^(b_d) times central e, folds as those
    generator powers and then adds e.  "(" and "[" push (the closer they
    expect next, first operand, outer word); "," in "[" stores the first
    operand.  ")" and "]" pop: [u, v] = (0, b (x) a - a (x) b) for
    u = (a, c) and v = (b, e), then (a, c)^n = (n a, n c + C(n, 2) a (x) a)
    for a "^ n", and the subword folds into the outer word.
    """
    found = _TOKEN.findall(text)
    if found and found[-1][-1]:
        raise ValueError(f"cannot tokenize word at {found[-1][-1]!r}")
    d, q, q2 = gens.d, mod.q, mod.q2
    P = d * (d - 1) // 2
    # slot(i, j) = offsets[i] + j for i < j
    offsets = [i * (2 * d - i - 1) // 2 - i - 1 for i in range(d)]

    def times_gen(a: list, c: list, i: int, k: int):
        """(a, c) times g_i^k, written into a and c."""
        o = offsets[i]
        for j in range(i + 1, d):
            c[o + j] += k * a[j]
        a[i] += k

    def cross(x: list, y: list) -> list:
        """x (x) y: x_i y_j over the pairs i < j, in slot order."""
        return [xi * y[j] for i, xi in enumerate(x) for j in range(i + 1, d)]

    def power(pos: int) -> tuple[int, int]:
        """The k of a "^ k" at found[pos] (1 if none) and the position after it."""
        if pos == len(found) or found[pos][6] != "^":
            return 1, pos
        if pos + 1 == len(found):
            raise ValueError("unexpected end of word")
        name, _, _, _, _, num, sym, _ = found[pos + 1]
        if not num:
            # the first lexeme of a flat commutator is its "["
            raise ValueError(f"expected integer exponent, got {name or sym or '['!r}")
        return int(num), pos + 2

    a, c, stack, pos = [0] * d, [0] * P, [], 0
    while pos < len(found):
        name, k, left, right, kc, num, sym, _ = found[pos]
        pos += 1
        if name:
            i = gens.index(name)
            n, pos = (int(k), pos) if k else power(pos)
            times_gen(a, c, i, n)
        elif left:
            i, j = gens.index(left), gens.index(right)
            n, pos = (int(kc), pos) if kc else power(pos)
            # [g_i, g_j] = [g_j, g_i]^-1 sits in slot (i, j) for i < j, and [g_i, g_i] = 1
            if i != j:
                s, n = (offsets[i] + j, -n) if i < j else (offsets[j] + i, n)
                c[s] += n
        elif num:
            if num != "1":
                raise ValueError(f"unexpected integer {num!r} in word")
            pos = power(pos)[1]
        elif sym in "([":
            if len(stack) == MAX_NESTING:
                raise ValueError(f"word nests ( and [ deeper than the bound {MAX_NESTING}")
            stack.append((")" if sym == "(" else ",", None, a, c))
            a, c = [0] * d, [0] * P
        elif sym == "^":
            raise ValueError(f"unexpected token {sym!r}")
        elif not stack:
            raise ValueError(f"trailing input in word: {text!r}")
        else:
            want, first, outer_a, outer_c = stack[-1]
            if sym != want:
                raise ValueError(f"expected {want!r}, got {('sym', sym)}")
            if sym == ",":
                stack[-1] = ("]", a, outer_a, outer_c)
                a, c = [0] * d, [0] * P
                continue
            stack.pop()
            if sym == "]":
                # [u, v] with u's generator exponents `first` and v = (a, c)
                a, c = [0] * d, [s - t for s, t in zip(cross(a, first), cross(first, a))]
            n, pos = power(pos)
            if n != 1:
                half = n * (n - 1) // 2
                a, c = [n * x % q2 for x in a], [(n * y + half * t) % q for y, t in zip(c, cross(a, a))]
            for i, bi in enumerate(a):
                if bi:
                    times_gen(outer_a, outer_c, i, bi)
            a, c = outer_a, [x + y for x, y in zip(outer_c, c)]
    if stack:
        raise ValueError("unexpected end of word")
    return [x % q2 for x in a], [x % q for x in c]


def _parse_words(texts, gens: GeneratorSet, mod: Modulus) -> ClassTwoStack:
    """One stack whose row r is the element the word texts[r] spells."""
    rows = [_fold_word(text, gens, mod) for text in texts]
    gen_exp = np.array([a for a, _ in rows], dtype=np.int64).reshape(len(rows), gens.d)
    comm = np.array([c for _, c in rows], dtype=np.int64).reshape(len(rows), gens.d * (gens.d - 1) // 2)
    return ClassTwoStack._normal(gens, mod, gen_exp, comm)


def parse_word(text: str, gens: GeneratorSet, mod: Modulus) -> ClassTwoElement:
    return _parse_words([text], gens, mod)[0]


def format_word(el: ClassTwoElement) -> str:
    """Render the normal form; parse_word round-trips it."""
    return _format_rows(el.gens.labels, el.gen_exp[None], el.comm[None])[0]


def _format_rows(labels, gen_exp, comm) -> list[str]:
    """The word of each row of N x d generator and N x P commutator
    exponents: its generator powers, then its commutator powers in slot
    order, or "1" for a row with neither.  The nonzeros of all rows are
    read by one np.nonzero per array, in row-major order."""
    parts = [[] for _ in range(len(gen_exp))]
    rows, cols = np.nonzero(gen_exp)
    for r, i, a in zip(rows.tolist(), cols.tolist(), gen_exp[rows, cols].tolist()):
        parts[r].append(labels[i] if a == 1 else f"{labels[i]}^{a}")
    pi, pj = _pairs(len(labels))
    rows, slots = np.nonzero(comm)
    for r, i, j, c in zip(rows.tolist(), pi[slots].tolist(), pj[slots].tolist(), comm[rows, slots].tolist()):
        base = f"[{labels[j]},{labels[i]}]"
        parts[r].append(base if c == 1 else f"{base}^{c}")
    return [" ".join(words) if words else "1" for words in parts]
