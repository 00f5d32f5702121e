"""Exact arithmetic and linear algebra over prime fields F_p.

Vectors are tuples of canonical residues in [0, p-1] and matrices are tuples
of row tuples.  Every public function reduces its integer inputs mod p, so
callers may pass arbitrary integers.  All operations are pure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (desk-scale moduli)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Prime(int):
    """A modulus checked to be prime at construction."""

    def __new__(cls, p: int) -> "Prime":
        if not is_prime(int(p)):
            raise ValueError(f"modulus {p} is not prime")
        return super().__new__(cls, p)


def vec(entries: Iterable[int], p: int) -> Vector:
    return tuple(e % p for e in entries)


def mat(rows: Iterable[Iterable[int]], p: int) -> Matrix:
    return tuple(vec(r, p) for r in rows)


def identity(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def vec_sub(a: Sequence[int], b: Sequence[int], p: int) -> Vector:
    return tuple((x - y) % p for x, y in zip(a, b))


def vec_mat(v: Sequence[int], m: Matrix, p: int) -> Vector:
    """Row vector times matrix."""
    cols = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(cols))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(vec_mat(row, b, p) for row in a)


def rref(rows: Iterable[Iterable[int]], p: int) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (reduced matrix, rank, pivot column indices).  The row space is
    preserved and the result is the unique RREF of the input.
    """
    m = [list(vec(r, p)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    rnk = 0
    for col in range(ncols):
        piv = next((i for i in range(rnk, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rnk], m[piv] = m[piv], m[rnk]
        inv = pow(m[rnk][col], -1, p)
        m[rnk] = [(x * inv) % p for x in m[rnk]]
        for i in range(nrows):
            if i != rnk and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rnk])]
        pivots.append(col)
        rnk += 1
    return tuple(tuple(r) for r in m), rnk, pivots


def rank(rows: Iterable[Iterable[int]], p: int) -> int:
    return rref(rows, p)[1]


class SpanBasis:
    """Row-reduced basis of a linear subspace with cheap membership tests.

    Immutable; `extended` returns a new basis.  Rows are kept in echelon
    form with unit pivots, so membership is a single elimination pass.
    """

    __slots__ = ("p", "dim", "rows", "pivots")

    def __init__(self, p: int, dim: int, rows: Matrix = (), pivots: Vector = ()):
        self.p = p
        self.dim = dim
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence[int]) -> Vector:
        """Residual of v after eliminating against the basis rows."""
        p = self.p
        w = list(vec(v, p))
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if c:
                for j in range(piv, self.dim):
                    w[j] = (w[j] - c * row[j]) % p
        return tuple(w)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def extended(self, v: Sequence[int]) -> "SpanBasis":
        """Basis of span(self ∪ {v}); returns self when v is already inside."""
        res = self.reduce(v)
        piv = next((j for j, x in enumerate(res) if x), None)
        if piv is None:
            return self
        p = self.p
        inv = pow(res[piv], -1, p)
        new_row = tuple((x * inv) % p for x in res)
        rows = [list(r) for r in self.rows]
        for r in rows:
            c = r[piv]
            if c:
                for j in range(self.dim):
                    r[j] = (r[j] - c * new_row[j]) % p
        rows.append(list(new_row))
        order = sorted(range(len(rows)), key=lambda i: (self.pivots + (piv,))[i])
        pivots = tuple(sorted(self.pivots + (piv,)))
        return SpanBasis(p, self.dim, tuple(tuple(rows[i]) for i in order), pivots)


def span_basis(vectors: Iterable[Sequence[int]], p: int, dim: int) -> SpanBasis:
    b = SpanBasis(p, dim)
    for v in vectors:
        b = b.extended(v)
    return b


def in_span(v: Sequence[int], vectors: Sequence[Sequence[int]], p: int) -> bool:
    """Whether v lies in the F_p-linear span of `vectors` (span of ∅ is {0}).

    Implemented by rank comparison via an echelon basis rather than
    coefficient search; the exhaustive coefficient oracle lives in the tests.
    """
    dim = len(v)
    for s in vectors:
        if len(s) != dim:
            raise ValueError(f"dimension mismatch: {len(s)} vs {dim}")
    return span_basis(vectors, p, dim).contains(v)


def in_affine_span(a: Sequence[int], points: Sequence[Sequence[int]], p: int) -> bool:
    """Whether a is an affine combination of `points` (coefficients summing to 1).

    The affine span of the empty set is empty.  Decided by lifting every
    point s to (1, s) and testing (1, a) for linear-span membership.
    """
    if not points:
        return False
    dim = len(a)
    for s in points:
        if len(s) != dim:
            raise ValueError(f"dimension mismatch: {len(s)} vs {dim}")
    lifted = [(1,) + vec(s, p) for s in points]
    return in_span((1,) + vec(a, p), lifted, p)


def tensor_power(v: Sequence[int], m: int, p: int) -> Vector:
    """m-fold tensor power of v, multi-indices in lexicographic order.

    Entry at (j_1,...,j_m) is v_{j_1}···v_{j_m} mod p; the entry index is
    j_1·d^{m-1} + ... + j_m.
    """
    if m < 1:
        raise ValueError("tensor power exponent must be >= 1")
    base = vec(v, p)
    out = base
    for _ in range(m - 1):
        out = tuple((a * b) % p for a in base for b in out)
    return out


def apply_completing(f: Sequence[int], v: Sequence[int], p: int) -> Vector:
    """f·T for T = completing_transform(v, p), in O(d).

    With piv the first nonzero entry of v and c = f_piv / v_piv, the image is
    (c, f_t - c·v_t for t != piv, ascending).
    """
    w = vec(v, p)
    piv = next((j for j, x in enumerate(w) if x), None)
    if piv is None:
        raise ValueError("zero form cannot be normalized")
    c = f[piv] * pow(w[piv], -1, p) % p
    return (c,) + tuple((f[t] - c * w[t]) % p for t in range(len(w)) if t != piv)


def completing_transform(v: Sequence[int], p: int) -> Matrix:
    """Invertible d×d matrix T with v·T = (1, 0, ..., 0).

    Deterministic: the pivot is the first nonzero entry of v.  Column 0 is
    e_piv / v_piv; the remaining columns e_t - (v_t / v_piv)·e_piv (t != piv,
    ascending) span the kernel of v.  Row i is e_i·T.
    """
    return tuple(apply_completing(e, v, p) for e in identity(len(v)))


def mat_inverse(m: Matrix, p: int) -> Matrix | None:
    """Inverse of a square matrix over F_p, or None when singular; RREF of [m | I] is [I | m^-1]."""
    d = len(m)
    red, _, pivots = rref([tuple(row) + e for row, e in zip(m, identity(d))], p)
    if pivots != list(range(d)):
        return None
    return tuple(row[d:] for row in red)


def solve_right(m: Matrix, b: Sequence[int], p: int) -> Vector | None:
    """One solution x of m·x = b (column convention), or None.

    Deterministic: free variables are set to 0, so the solution depends only
    on the RREF pivot structure.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    aug = [list(vec(m[i], p)) + [b[i] % p] for i in range(nrows)]
    red, rnk, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, piv in zip(red[:rnk], pivots):
        x[piv] = row[ncols]
    return tuple(x)
