"""Exact arithmetic and linear algebra over prime fields F_p.

Vectors are tuples of canonical residues in [0, p-1] and matrices are tuples
of row tuples.  Every public function reduces its integer inputs mod p, so
callers may pass arbitrary integers; the incremental `SpanBasis.reduce` is
the exception and takes canonical residues, so its callers
(`verify_witness`, `AffineSubspace` and `in_span` through
`SpanBasis.contains`) pay no reduction per call.  All operations are pure.

Bulk elimination (`rref`, `span_basis`, and through them `rank` and
`solve_right`) runs on one numpy kernel, `_rref_array`:
each pivot is one vectorised row operation over the rows that need it.
`complete_rows` maps a whole system through a completing transform in one
array operation; `apply_completing` is its one-form counterpart.  Both
array routines take their arrays from `residue_array` and are exact for
every prime: below 2^31 they work in int64, where every product of two
residues stays below 2^62; from 2^31 on the same code runs on Python
integers (dtype object).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least number that is a strong pseudoprime to every base above
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test on the prime bases 2, ..., 41.

    Exact for every n < PRIME_BOUND (about 3.3e24); a larger n raises
    ValueError naming it, since the test could not decide it.
    """
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is not below {PRIME_BOUND}, the bound of the exact primality test")
    if n < 2:
        return False
    for a in _WITNESS_BASES:
        if n % a == 0:
            return n == a
    m = n - 1
    s = (m & -m).bit_length() - 1  # m = d * 2^s with d odd
    d = m >> s
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A modulus checked to be prime at construction."""

    def __new__(cls, p: int) -> "Prime":
        if not is_prime(int(p)):
            raise ValueError(f"modulus {p} is not prime")
        return super().__new__(cls, p)


def vec(entries: Iterable[int], p: int) -> Vector:
    return tuple(e % p for e in entries)


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


_INT64_EXACT_BELOW = 1 << 31  # residues below 2^31: products stay below 2^62


def residue_array(rows, p: int) -> np.ndarray:
    """The rows' entries mod p as a 2-D array: int64 below 2^31, where no
    product of two residues reaches 2^62, and Python integers (dtype object)
    from 2^31 on."""
    if p >= _INT64_EXACT_BELOW:
        return np.array(rows, dtype=object) % p
    try:
        return np.array(rows, dtype=np.int64) % p
    except OverflowError:
        return (np.array(rows, dtype=object) % p).astype(np.int64)


def _rref_array(rows: list, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p of a nonempty list of equal-length rows.

    Returns it as a 2-D array (`residue_array`'s dtype) with its pivot
    columns.  Each pivot row is scaled to a unit pivot, and one row
    operation clears the pivot column in the rows that have an entry there.
    """
    m = residue_array(rows, p)
    nrows, ncols = m.shape
    pivots: list[int] = []
    rnk = 0
    for col in range(ncols):
        if rnk == nrows:
            break
        below = np.flatnonzero(m[rnk:, col])
        if not below.size:
            continue
        piv = rnk + int(below[0])
        row = m[piv, col:] * pow(int(m[piv, col]), -1, p) % p
        if piv != rnk:
            m[piv] = m[rnk]
        hit = np.flatnonzero(m[:, col])
        m[hit, col:] = (m[hit, col:] - m[hit, col, None] * row) % p
        m[rnk, col:] = row
        pivots.append(col)
        rnk += 1
    return m, pivots


def rref(rows: Iterable[Iterable[int]], p: int) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (reduced matrix, rank, pivot column indices).  The row space is
    preserved and the result is the unique RREF of the input.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return (), 0, []
    m, pivots = _rref_array(rows, p)
    return tuple(map(tuple, m.tolist())), len(pivots), pivots


def rank(rows: Iterable[Iterable[int]], p: int) -> int:
    return rref(rows, p)[1]


class SpanBasis:
    """Row-reduced basis of a linear subspace with cheap membership tests.

    Immutable.  Rows are kept in echelon form with unit pivots, so
    membership is a single elimination pass.  `reduce` takes vectors of
    canonical residues in [0, p-1]; `contains` accepts any integers.
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
        """Residual of v, a vector of canonical residues, after eliminating against the basis rows."""
        p = self.p
        w = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if c:
                for j in range(piv, self.dim):
                    w[j] = (w[j] - c * row[j]) % p
        return tuple(w)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(vec(v, self.p)))


def span_basis(vectors: Iterable[Sequence[int]], p: int, dim: int) -> SpanBasis:
    """Basis of span(vectors): the nonzero rows of their RREF and its pivots."""
    rows = [tuple(v) for v in vectors]
    if not rows:
        return SpanBasis(p, dim)
    m, pivots = _rref_array(rows, p)
    return SpanBasis(p, dim, tuple(map(tuple, m[: len(pivots)].tolist())), tuple(pivots))


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


def complete_rows(rows, v: Sequence[int], p: int) -> np.ndarray:
    """`apply_completing(f, v, p)` for every row f of a nonempty list, as one
    `residue_array` with the images as rows."""
    m = residue_array(rows, p)
    w = vec(v, p)
    piv = next((j for j, x in enumerate(w) if x), None)
    if piv is None:
        raise ValueError("zero form cannot be normalized")
    rest = [t for t in range(len(w)) if t != piv]
    out = np.empty_like(m)
    out[:, 0] = m[:, piv] * pow(w[piv], -1, p) % p
    out[:, 1:] = (m[:, rest] - out[:, :1] * np.array([w[t] for t in rest], dtype=m.dtype)) % p
    return out


def completing_transform(v: Sequence[int], p: int) -> Matrix:
    """Invertible d×d matrix T with v·T = (1, 0, ..., 0).

    Deterministic: the pivot is the first nonzero entry of v.  Column 0 is
    e_piv / v_piv; the remaining columns e_t - (v_t / v_piv)·e_piv (t != piv,
    ascending) span the kernel of v.  Row i is e_i·T.
    """
    d = len(v)
    return tuple(apply_completing((0,) * i + (1,) + (0,) * (d - 1 - i), v, p) for i in range(d))


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
