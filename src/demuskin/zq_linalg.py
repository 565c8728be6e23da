"""Exact linear algebra over the chain rings Z/p^f and Z/p^(2f), p an odd prime.

Matrices are small dense numpy int64 arrays with entries canonically reduced
to [0, modulus), passed with their modulus; those a value keeps are
read-only.  Submodules are represented by their Howell canonical form,
which is unique per row span, so submodule equality is array equality.  All
operations are pure; every value is immutable after construction.

There is one elimination, `_howell_rows`, under the one dtype rule
`exact_dtype`.  Everything else is read off a Howell form: the part of a
submodule with basis S that A annihilates is C . S for the rows (0, C) of
the form of [S . A | I], the kernel of A is that part of the whole module
for A^T, the inverse of A is the right half of the
form [I | A^-1] of [A | I], the rank mod p is the row count of the form of a
matrix reduced mod p, and freeness holds when every Howell pivot is 1 and
otherwise compares that rank with the size given by the pivots (Howell,
Linear and Multilinear Algebra 19, 1986; Storjohann & Mulders, ESA 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

import numpy as np

# Exhaustive search guards for the isotropic-submodule oracle.
ORACLE_MAX_DIM = 6  # rank 8: (Z/3)^8 takes 18 s and 435 MB
ORACLE_MAX_SPAN = 5**6  # q^d: (Z/5)^6 takes ~2 s, (Z/7)^6 86 s, (Z/9)^6 did not finish in 900 s
_GRID_CELLS = 1 << 18  # bounds the node x vector slice a search level holds at once


def _is_odd_prime(n: int) -> bool:
    return n > 2 and n % 2 == 1 and all(n % k for k in range(3, isqrt(n) + 1, 2))


@dataclass(frozen=True)
class Modulus:
    """The modulus pair q = p^f (and q2 = p^2f) used throughout, p odd."""

    p: int
    f: int

    def __post_init__(self):
        if self.f < 1:
            raise ValueError(f"f must be a positive integer, got {self.f}")
        # exponents mod q^2 are stored in int64 arrays; as |p| >= 2 gives p^64 >= 2^64, f capped
        # at 32 decides the bound, and past it p < 3.04 * 10^9 keeps the trial division short
        if self.p ** (2 * min(self.f, 32)) >= 2**63:
            raise ValueError(f"q^2 = {self.p}^{2 * self.f} does not fit in int64")
        if not _is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")

    @classmethod
    def from_q(cls, q: int) -> "Modulus":
        """The modulus with p^f = q; raises ValueError unless q is an odd
        prime power."""
        return cls(*_prime_power_base(q))

    @property
    def q(self) -> int:
        return self.p ** self.f

    @property
    def q2(self) -> int:
        return self.p ** (2 * self.f)


@lru_cache(maxsize=None)
def _prime_power_base(m: int) -> tuple[int, int]:
    """Decompose m = p^e; raises if m is not a prime power."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    # the least divisor p > 1 of m is prime; m has none up to sqrt(m) iff
    # m itself is prime
    p = next((k for k in range(2, isqrt(m) + 1) if m % k == 0), m)
    n, e = m, 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"modulus {m} is not a prime power")
    return p, e


def exact_dtype(largest: int):
    """Dtype for a kernel whose intermediates stay below `largest` in
    absolute value: int64 while that fits, Python-int object arrays beyond.
    Either way the caller reduces mod m after every product, so the object
    path stays exact at every modulus (Storjohann & Mulders, 1998)."""
    return np.int64 if largest < 2**63 else object


def matmul_mod(a, b, m: int) -> np.ndarray:
    """a @ b mod m as int64, exact for entries in (-m, m): each entry sums
    a.shape[-1] products below m^2."""
    a, b = np.asarray(a), np.asarray(b)
    dt = exact_dtype(a.shape[-1] * m * m)
    out = np.asarray(a.astype(dt, copy=False) @ b.astype(dt, copy=False))
    np.remainder(out, m, out=out)
    return out.astype(np.int64, copy=False)


def integers_mod(values, m: int, what: str = "exponents") -> np.ndarray:
    """Integer values (any shape, any size) reduced to [0, m) as int64; a
    ValueError for anything else, so a float is never truncated."""
    a = np.asarray(values)
    if a is not values or a.dtype.kind not in "iu":
        # numpy reads [True, 2] as int64, so only the entries show a bool;
        # an integer ndarray is taken as it is
        entries = np.asarray(values, dtype=object)
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in entries.flat):
            raise ValueError(f"{what} must be integers")
        if a.dtype.kind not in "iu":
            a = entries
    return np.asarray(np.mod(a, m)).astype(np.int64, copy=False)


def _rows_mod(values, m: int, what: str) -> np.ndarray:
    """`integers_mod` as a 2-D array, a vector read as one row; a ValueError
    unless m is a prime power."""
    _prime_power_base(m)
    arr = integers_mod(values, m, what)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{what} must form a 2-dimensional array")
    return arr


def as_integer(value, what: str) -> int:
    """An integer value as an int; a ValueError for a float, a bool or any
    other type, so nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _valuation(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def matrix_json(array: np.ndarray, modulus: int) -> dict:
    """A (rows x cols) matrix over Z/modulus in the report layout: its
    entries row by row."""
    rows, cols = array.shape
    return {"modulus": int(modulus), "rows": rows, "cols": cols, "entries": array.reshape(-1).tolist()}


def _howell_rows(rows_in, ncols: int, m: int) -> np.ndarray:
    """Howell canonical form of the given rows, entries in [0, m), as a
    (k x ncols) array.

    Pivot columns increase left to right, each pivot is normalized to a power
    of p, entries above a pivot are reduced below it, and annihilator rows are
    folded back in so the span property holds: any span element supported on
    the last columns is a combination of the rows supported there.
    """
    p, e = _prime_power_base(m)
    # a row update subtracts (x // p^v) * pivot row, below m^2
    dt = exact_dtype(m * m)
    work = list(np.asarray(rows_in, dtype=np.int64).astype(dt, copy=False))
    done: list[np.ndarray] = []
    for c in range(ncols):
        best = None
        for idx, row in enumerate(work):
            x = int(row[c])
            if x == 0:
                continue
            v = _valuation(x, p, e)
            if best is None or v < best[0]:
                best = (v, idx)
                if v == 0:
                    break
        if best is None:
            continue
        v, idx = best
        piv = work.pop(idx)
        unit = int(piv[c]) // p ** v
        piv = (piv * pow(unit, -1, m)) % m  # pivot entry becomes p^v
        pk = p ** v
        for j, row in enumerate(work):
            x = int(row[c])
            if x:
                work[j] = (row - (x // pk) * piv) % m
        for j, row in enumerate(done):
            x = int(row[c])
            if x >= pk:
                done[j] = (row - (x // pk) * piv) % m
        if v > 0:
            ann = (piv * (m // pk)) % m  # keeps the span property on later columns
            if ann.any():
                work.append(ann)
        done.append(piv)
    if not done:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(done, dtype=np.int64)


class Submodule:
    """Row span of a matrix over Z/m, held in Howell canonical form."""

    __slots__ = ("modulus", "ambient", "basis", "_pivots", "_free", "_coords")

    def __init__(self, rows, ambient: int, modulus: int):
        self.modulus = int(modulus)
        self.ambient = int(ambient)
        arr = _rows_mod(rows, self.modulus, "submodule entries")
        if arr.size == 0:
            arr = np.zeros((0, self.ambient), dtype=np.int64)
        if arr.shape[1] != self.ambient:
            raise ValueError(
                f"rows have length {arr.shape[1]}, ambient rank is {self.ambient}"
            )
        basis = _howell_rows(arr, self.ambient, self.modulus)
        basis.setflags(write=False)
        self.basis = basis
        # every Howell row is nonzero: its pivot column is its count of
        # leading zeros
        cols = np.logical_and.accumulate(basis == 0, axis=1).sum(axis=1)
        self._pivots = tuple(zip(cols.tolist(), basis[np.arange(len(basis)), cols].tolist()))
        self._free = None  # (is free, rank mod p), computed on first use
        self._coords = False  # coordinate_indices, read on first use

    @classmethod
    def coordinate(cls, idx, ambient: int, modulus: int) -> "Submodule":
        """The span of the coordinate vectors e_j, j in `idx`, with its Howell
        form written down, not eliminated: the unit rows in column order,
        pivots (j, 1), free of rank |idx|.  Repeats count once."""
        self = cls.__new__(cls)
        self.modulus, self.ambient = int(modulus), int(ambient)
        _prime_power_base(self.modulus)
        cols = sorted({as_integer(j, "coordinate index") for j in idx})
        if cols and (cols[0] < 0 or cols[-1] >= self.ambient):
            raise ValueError(f"coordinate indices must lie in [0, {self.ambient}), got {cols}")
        self.basis = np.zeros((len(cols), self.ambient), dtype=np.int64)
        self.basis[np.arange(len(cols)), cols] = 1
        self.basis.setflags(write=False)
        self._pivots, self._free, self._coords = tuple((j, 1) for j in cols), (True, len(cols)), tuple(cols)
        return self

    @classmethod
    def zero(cls, ambient: int, modulus: int) -> "Submodule":
        return cls.coordinate((), ambient, modulus)

    @classmethod
    def full(cls, ambient: int, modulus: int) -> "Submodule":
        return cls.coordinate(range(ambient), ambient, modulus)

    @property
    def coordinate_indices(self) -> tuple[int, ...] | None:
        """The sorted J when this is the span of the coordinate vectors e_j,
        j in J, else None.  In Howell form that means unit pivots, each the
        only nonzero entry of its row; read once per submodule, and known
        without reading for a span built by `coordinate`."""
        if self._coords is False:
            unit = all(val == 1 for _, val in self._pivots) and np.count_nonzero(self.basis) == self.ngens
            self._coords = tuple(c for c, _ in self._pivots) if unit else None
        return self._coords

    @property
    def ngens(self) -> int:
        """Number of Howell basis rows (can exceed the free rank)."""
        return self.basis.shape[0]

    def _free_rank(self) -> int | None:
        """Free rank, or None when the submodule is not free.

        A free submodule of (Z/p^e)^d is a direct summand whose size is
        p^(e r), r its rank mod p; so the test compares log_p of the size
        (read off the Howell pivots) with e times the row count of the
        Howell form of the basis mod p.  Unit pivots are sufficient, and then
        the rows, echelon with pivots 1, are a free basis with no reduction
        mod p; they are not necessary: the span of (3,6,0,2) over Z/9 is free
        on one generator, yet its Howell form pivots on the 3 in the first
        column.
        """
        if self._free is None and all(val == 1 for _, val in self._pivots):
            self._free = (True, self.ngens)
        elif self._free is None:
            p, e = _prime_power_base(self.modulus)
            r = len(_howell_rows(self.basis % p, self.ambient, p))
            size_log = sum(e - _valuation(val, p, e) for _, val in self._pivots)
            self._free = (size_log == e * r, r)
        free, r = self._free
        return r if free else None

    @property
    def is_free(self) -> bool:
        """True iff the submodule is a free Z/m-module."""
        return self._free_rank() is not None

    @property
    def rank(self) -> int:
        """Free rank; raises for non-free submodules."""
        r = self._free_rank()
        if r is None:
            raise ValueError("rank is only defined for free submodules")
        return r

    def free_basis(self, start=()) -> list:
        """`start` greedily extended by those Howell rows that keep it a
        free basis.  A free submodule can have more Howell rows than its
        rank; the result spans it exactly when its length is the rank."""
        out = list(start)
        for row in self.basis:
            trial = Submodule(np.array(out + [row]), self.ambient, self.modulus)
            if trial.is_free and trial.rank == len(out) + 1:
                out.append(row)
        return out

    def residues(self, rows) -> np.ndarray:
        """The residue of each row of a (k x ambient) array after clearing
        every pivot; a row's residue is zero iff the row is contained."""
        m = self.modulus
        dt = exact_dtype(m * m)
        v = np.mod(rows, m).astype(dt, copy=False)
        for row, (c, pk) in zip(self.basis.astype(dt, copy=False), self._pivots):
            v = (v - (v[:, c : c + 1] // pk) * row) % m
        return v.astype(np.int64, copy=False)

    def contains(self, vec) -> bool:
        return not self.residues(np.reshape(vec, (1, self.ambient))).any()

    def contains_submodule(self, other: "Submodule") -> bool:
        if self.ambient != other.ambient or self.modulus != other.modulus:
            raise ValueError("submodules live in different ambient modules")
        return not self.residues(other.basis).any()

    def _right_operand(self, matrix) -> np.ndarray:
        """Integer entries read mod this modulus, with one row per ambient
        coordinate."""
        mat = _rows_mod(matrix, self.modulus, "matrix entries")
        if mat.shape[0] != self.ambient:
            raise ValueError(f"matrix has {mat.shape[0]} rows, ambient rank is {self.ambient}")
        return mat

    def image_under(self, matrix) -> "Submodule":
        """Span of basis @ matrix, for a right action on row vectors."""
        mat = self._right_operand(matrix)
        return Submodule(matmul_mod(self.basis, mat, self.modulus), mat.shape[1], self.modulus)

    def annihilated_by(self, matrix) -> "Submodule":
        """{v in self : v @ matrix = 0}: every v in self is c . S for the
        Howell basis S, so this is the span of C . S for the rows (0, C) of
        the Howell form of [S @ matrix | I], which by the span property of
        that form span every such (0, c)."""
        mat = self._right_operand(matrix)
        m, k, r = self.modulus, self.ngens, mat.shape[1]
        h = _howell_rows(np.hstack([matmul_mod(self.basis, mat, m), np.eye(k, dtype=np.int64)]), r + k, m)
        return Submodule(matmul_mod(h[~h[:, :r].any(axis=1), r:], self.basis, m), self.ambient, m)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.modulus == other.modulus
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and np.array_equal(self.basis, other.basis)
        )

    def __hash__(self):
        return hash((self.modulus, self.ambient, self.basis.tobytes()))

    def __repr__(self):
        return (
            f"Submodule({self.ngens} generators in (Z/{self.modulus})^{self.ambient}, "
            f"basis {self.basis.tolist()})"
        )

    def to_json(self) -> dict:
        return matrix_json(self.basis, self.modulus)


def kernel(a, m: int) -> Submodule:
    """The row-vector kernel {v : v . a^T = 0} of integer entries over Z/m."""
    a = _rows_mod(a, m, "matrix entries")
    return Submodule.full(a.shape[1], m).annihilated_by(a.T)


def inv_mod(a, m: int) -> np.ndarray:
    """The inverse of integer entries over Z/m, read off the Howell form of
    [A | I]: that form is [I | A^-1] exactly when A is invertible, i.e.
    invertible mod p."""
    a = _rows_mod(a, m, "matrix entries")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("only square matrices can be inverted")
    eye = np.eye(n, dtype=np.int64)
    h = _howell_rows(np.hstack([a, eye]), 2 * n, m)
    if h.shape[0] != n or not np.array_equal(h[:, :n], eye):
        raise ValueError("matrix is not invertible (no unit pivot)")
    return h[:, n:]


class BilinearForm:
    """An alternating pairing <u, v> = u . gram . v on (Z/m)^d: the gram is
    antisymmetric with zero diagonal, so <v, u> = -<u, v> and <v, v> = 0.
    The cup product H^1 x H^1 -> H^2 of a Demushkin group is one for odd p
    (Labute, Canad. J. Math. 19, 1967).  `gram` is a read-only array."""

    __slots__ = ("gram", "modulus")

    def __init__(self, gram, modulus: int):
        self.modulus = int(modulus)
        a = _rows_mod(gram, self.modulus, "gram entries")
        if a.shape[0] != a.shape[1]:
            raise ValueError("gram matrix must be square")
        if not np.array_equal(a.T, (-a) % self.modulus) or a.diagonal().any():
            raise ValueError("form is not antisymmetric with zero diagonal")
        a.setflags(write=False)
        self.gram = a

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def is_nondegenerate(self) -> bool:
        """Whether the gram matrix is invertible mod p.  A monomial one, with
        exactly one nonzero entry mod p in each row and in each column, is a
        permutation times a diagonal of units and needs no elimination; any
        other takes the row count of its Howell form mod p."""
        p, _ = _prime_power_base(self.modulus)
        gram = self.gram % p
        nonzero = gram != 0
        monomial = (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
        return bool(monomial) or len(_howell_rows(gram, self.dim, p)) == self.dim

    def __repr__(self):
        return f"BilinearForm({self.gram.tolist()}, mod {self.modulus})"


def orthogonal_complement(form: BilinearForm, s: Submodule) -> Submodule:
    """{v : <v, w> = 0 for every w in s}."""
    if form.dim != s.ambient or form.modulus != s.modulus:
        raise ValueError("form and submodule have mismatched dimensions")
    return kernel(matmul_mod(s.basis, form.gram.T, s.modulus), s.modulus)


def is_totally_isotropic(form: BilinearForm, s: Submodule) -> bool:
    """True iff the form vanishes on s x s (checked on basis rows)."""
    if form.dim != s.ambient or form.modulus != s.modulus:
        raise ValueError("form and submodule have mismatched dimensions")
    m = s.modulus
    return not matmul_mod(matmul_mod(s.basis, form.gram, m), s.basis.T, m).any()


def eigen_split(action, m: int) -> tuple[Submodule, Submodule]:
    """(M+, M-) for an involution with integer entries over Z/m, acting on
    row vectors by v -> v @ action.

    Uses the projectors (1 +- action)/2, so 2 must be invertible (odd modulus).
    """
    a = _rows_mod(action, m, "matrix entries")
    d = a.shape[0]
    if a.shape[1] != d:
        raise ValueError("action matrix must be square")
    if m % 2 == 0:
        raise ValueError("modulus must be odd so that 2 is invertible")
    if not np.array_equal(matmul_mod(a, a, m), np.eye(d, dtype=np.int64)):
        raise ValueError("action matrix is not an involution")
    inv2 = pow(2, -1, m)
    eye = np.eye(d, dtype=np.int64)
    half = inv2 * eye
    plus = Submodule(matmul_mod((eye + a) % m, half, m), d, m)
    minus = Submodule(matmul_mod((eye - a) % m, half, m), d, m)
    return plus, minus


class OracleGuardError(ValueError):
    """An exhaustive search asked for outside ORACLE_MAX_DIM and
    ORACLE_MAX_SPAN."""


def oracle_guard(m: int, d: int):
    """An OracleGuardError unless an exhaustive search of (Z/m)^d lies
    within ORACLE_MAX_DIM and ORACLE_MAX_SPAN."""
    if d > ORACLE_MAX_DIM:
        raise OracleGuardError(f"exhaustive search limited to ambient rank <= {ORACLE_MAX_DIM}; got rank {d}")
    if m**d > ORACLE_MAX_SPAN:
        raise OracleGuardError(
            f"exhaustive search limited to a span of q^d <= {ORACLE_MAX_SPAN} vectors; "
            f"got {m}^{d} = {m**d}"
        )


def _first_units(vecs: np.ndarray, p: int) -> np.ndarray:
    """One-hot along the last axis at each row's first unit entry; all
    False on a row without a unit."""
    units = vecs % p != 0
    return units & (np.cumsum(units, axis=-1) == 1)


@lru_cache(maxsize=16)  # within the guards a table has at most 3,906 lines (5^6): 16 stay under 4 MB
def _line_table(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vectors of (Z/m)^d whose first unit entry is a 1, one per free
    line, in lexicographic order, with the bit of that entry's column
    and the bits of their nonzero columns: read-only, built once per (d, m)."""
    bit = (1 << np.arange(d)).astype(np.min_scalar_type(1 << d))
    vecs = np.indices((m,) * d, dtype=np.int64).reshape(d, m**d).T
    lead = _first_units(vecs, _prime_power_base(m)[0])
    keep = (vecs * lead).sum(axis=1) == 1
    table = vecs[keep], (lead @ bit)[keep], ((vecs != 0) @ bit)[keep]
    for array in table:
        array.setflags(write=False)
    return table


def _isotropic_normal_bases(form: BilinearForm, columns: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every free totally isotropic submodule of (Z/m)^d by its normal
    basis: ranks 0, 1, ... of the search tree, each a nonempty (N, r, d)
    array, in a deterministic order within a rank, and per rank a mask of
    the nodes whose rows all lie in the kernel K = {v : v @ columns = 0}.

    The search is a tree in which each submodule T has one parent, spanned
    by all but the last row of T's normal basis B: B[:, P] = I for the pivot
    set P of T mod p, with pZ entries before each row's pivot (canonical
    augmentation, McKay, J. Algorithms 26, 1998).  A node S grows by each
    v whose first unit entry is a 1 at lead(v) > max P, with v[P] = 0,
    S[:, lead(v)] = 0 and <v, S> = 0 (the form is alternating, so <v, v> = 0
    and <S, v> = -<v, S>).  Those v, their lead bits and supports depend on
    (d, m) alone: they are `_line_table`.  The root has no rows, so rank 1
    is the table itself, read-only; only the pairing with the form and the
    kernel flags are worked out per search.  From rank 1 on, column
    conditions are bit masks on the node x vector grid; only the pairs that
    pass them are paired.  No Submodule (Howell form) is built.

    As a node's parent drops its last row, the masked nodes are exactly the
    tree of K: the masks are the one way to restrict the search.  Over
    Z/p^k every submodule S is a kernel, S = ann(ann(S)) (Z/p^k is
    quasi-Frobenius; Lam, Lectures on Modules and Rings, 1999, §15), so S is
    searched with the columns `kernel(S.basis, m).basis.T`.  The search
    visits every submodule, so OracleGuardError guards it beyond
    ORACLE_MAX_DIM and ORACLE_MAX_SPAN.
    """
    oracle_guard(form.modulus, form.dim)
    m, d = form.modulus, form.dim
    levels, inside = [np.zeros((1, 0, d), dtype=np.int64)], [np.ones(1, dtype=bool)]
    vecs, lead_bit, support = _line_table(d, m)
    if not len(vecs):
        return levels, inside
    left = (vecs @ form.gram) % m  # <v, b> = left[v] . b, and <b, v> = -<v, b>
    in_kernel = ~((vecs @ columns) % m).any(axis=1)
    levels.append(vecs[:, None])
    inside.append(in_kernel)
    piv, used = lead_bit, support  # each node's pivot and nonzero columns
    step = max(1, _GRID_CELLS // len(vecs))  # nodes per slice of the grid
    while True:
        kids = []
        for at in (slice(lo, lo + step) for lo in range(0, len(piv), step)):
            grid = (lead_bit > piv[at, None]) & ((piv[at, None] & support) == 0)
            ni, vj = np.nonzero(grid & ((used[at, None] & lead_bit) == 0))
            orth = ~(np.einsum("krd,kd->kr", levels[-1][at][ni], left[vj]) % m).any(axis=1)
            kids.append((ni[orth] + at.start, vj[orth]))
        ni, vj = (np.concatenate(x) for x in zip(*kids))
        if not len(ni):
            return levels, inside
        levels.append(np.concatenate([levels[-1][ni], vecs[vj, None]], axis=1))
        inside.append(inside[-1][ni] & in_kernel[vj])
        piv, used = piv[ni] | lead_bit[vj], used[ni] | support[vj]


class IsotropicOracle(NamedTuple):
    """What one search of the whole module states about the free totally
    isotropic submodules V, and those inside a kernel K."""

    max_rank: int
    max_rank_in_kernel: int
    maximal_count_in_kernel: int
    # the normal basis of the first V of maximal rank in K without `vec`, or None
    first_missing: np.ndarray | None

    @property
    def all_contain_vec(self) -> bool:
        """Whether every V of maximal rank in K contains `vec`."""
        return self.first_missing is None


def isotropic_oracle(form: BilinearForm, columns, vec) -> IsotropicOracle:
    """One search of (Z/m)^d, read for the whole module and for the kernel
    K = {v : v @ columns = 0} (`columns` a d x k array, a vector read as one
    column): both maximal ranks, the number of maximal V in K, and whether
    each of them contains `vec`.

    No Howell form is taken.  A normal basis B has B[:, P] = I on its pivot
    columns P, so `vec` lies in span(B) iff vec = vec[P] . B mod m.  Guarded
    like the search.
    """
    m, d = form.modulus, form.dim
    cols = integers_mod(columns, m, "kernel columns")
    cols = cols[:, None] if cols.ndim == 1 else cols
    target = integers_mod(vec, m, "vector")
    if cols.ndim != 2 or cols.shape[0] != d or target.shape != (d,):
        raise ValueError(f"columns must have {d} rows and the vector {d} entries")
    levels, inside = _isotropic_normal_bases(form, cols)
    top = max(r for r, mask in enumerate(inside) if mask.any())
    maximal = levels[top][inside[top]]
    coeffs = _first_units(maximal, _prime_power_base(m)[0]) @ target  # vec at each row's pivot
    spanned = np.einsum("nr,nrd->nd", coeffs, maximal) % m
    missing = np.flatnonzero((spanned != target).any(axis=1))
    return IsotropicOracle(
        len(levels) - 1, top, len(maximal), maximal[missing[0]] if len(missing) else None
    )
