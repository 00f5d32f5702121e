import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcs.covering import AffineSubspace
from seqcs.field import (
    PRIME_BOUND,
    Matrix,
    SpanBasis,
    apply_completing,
    complete_rows,
    completing_transform,
    in_affine_span,
    in_span,
    identity,
    is_prime,
    rank,
    rref,
    span_basis,
    vec,
    Prime,
)

PRIME_BELOW_2_31 = 2**31 - 1
PRIME_ABOVE_2_31 = 2**31 + 11


def vec_mat(v, m: Matrix, p: int):
    """Row vector times matrix, entry by entry."""
    cols = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) % p for j in range(cols))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(vec_mat(row, b, p) for row in a)


def mat_inverse(m: Matrix, p: int) -> Matrix | None:
    """Inverse of a square matrix over F_p, or None when singular; RREF of [m | I] is [I | m^-1]."""
    d = len(m)
    red, _, pivots = rref([tuple(row) + e for row, e in zip(m, identity(d))], p)
    if pivots != list(range(d)):
        return None
    return tuple(row[d:] for row in red)


def span_oracle(v, vectors, p):
    """Exhaustive coefficient search: v = sum c_j s_j for some c in F_p^{|S|}."""
    d = len(v)
    for coeffs in product(range(p), repeat=len(vectors)):
        if all(
            sum(c * s[t] for c, s in zip(coeffs, vectors)) % p == v[t] % p
            for t in range(d)
        ):
            return True
    return False


def affine_oracle(a, points, p):
    """Exhaustive search over coefficient tuples summing to 1."""
    d = len(a)
    for coeffs in product(range(p), repeat=len(points)):
        if sum(coeffs) % p != 1:
            continue
        if all(
            sum(c * s[t] for c, s in zip(coeffs, points)) % p == a[t] % p
            for t in range(d)
        ):
            return True
    return False


def reference_rref(rows, p):
    """The pure-Python RREF that the numpy kernel replaced, kept verbatim as an oracle."""
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


def extended(basis: SpanBasis, v) -> SpanBasis:
    """Basis of span(basis ∪ {v}) for v of canonical residues; `basis` itself when v is already inside.

    One new row, cleared from the others at its pivot: the step of the
    reference oracles `reference_span_basis` and the reference walk.
    """
    res = basis.reduce(v)
    piv = next((j for j, x in enumerate(res) if x), None)
    if piv is None:
        return basis
    p = basis.p
    inv = pow(res[piv], -1, p)
    new_row = tuple((x * inv) % p for x in res)
    rows = [list(r) for r in basis.rows]
    for r in rows:
        c = r[piv]
        if c:
            for j in range(basis.dim):
                r[j] = (r[j] - c * new_row[j]) % p
    rows.append(list(new_row))
    order = sorted(range(len(rows)), key=lambda i: (basis.pivots + (piv,))[i])
    pivots = tuple(sorted(basis.pivots + (piv,)))
    return SpanBasis(p, basis.dim, tuple(tuple(rows[i]) for i in order), pivots)


def reference_span_basis(vectors, p, dim):
    """`span_basis` as the loop of `extended` it was, kept as an oracle.

    `extended` takes canonical residues, so each vector is reduced first (the
    old `extended` did that itself).
    """
    b = SpanBasis(p, dim)
    for v in vectors:
        b = extended(b, vec(v, p))
    return b


@st.composite
def elimination_inputs(draw):
    """(p, ncols, rows) with zero rows, duplicate rows and non-canonical entries mixed in."""
    p = draw(st.sampled_from([2, 3, 5, 7, PRIME_BELOW_2_31, PRIME_ABOVE_2_31]))
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(0, p - 1), st.integers(-3, 3), st.integers(-3 * p, 3 * p))
    base = draw(st.lists(st.tuples(*[entry] * ncols), max_size=5))
    extra = draw(st.lists(st.sampled_from(base + [(0,) * ncols]), max_size=3))
    return p, ncols, draw(st.permutations(base + extra))


@settings(max_examples=300)
@given(elimination_inputs())
def test_kernel_matches_the_reference_elimination(instance):
    p, ncols, rows = instance
    red, rnk, pivots = rref(rows, p)
    assert (red, rnk, pivots) == reference_rref(rows, p)
    basis, ref = span_basis(rows, p, ncols), reference_span_basis(rows, p, ncols)
    assert (basis.p, basis.dim, basis.rows, basis.pivots) == (ref.p, ref.dim, ref.rows, ref.pivots)
    # plain Python ints, never numpy scalars, so reports built from them serialize as before
    assert all(type(x) is int for row in red + basis.rows for x in row)
    assert all(type(x) is int for x in pivots + list(basis.pivots))


def test_kernel_edge_cases_match_the_reference():
    cases = [
        ([], 5),
        ([()], 5),
        ([(0, 0, 0), (0, 0, 0)], 3),
        ([(4,), (2,), (0,)], 7),
        ([(1, 2), (1, 2), (2, 4)], 5),
        ([(PRIME_ABOVE_2_31 - 1, 2**70), (-1, 5)], PRIME_ABOVE_2_31),
        ([(PRIME_BELOW_2_31 - 1, PRIME_BELOW_2_31 - 2), (2**64, -(2**64))], PRIME_BELOW_2_31),
    ]
    for rows, p in cases:
        assert rref(rows, p) == reference_rref(rows, p)
        dim = len(rows[0]) if rows else 3
        basis, ref = span_basis(rows, p, dim), reference_span_basis(rows, p, dim)
        assert (basis.rows, basis.pivots, basis.dim) == (ref.rows, ref.pivots, ref.dim)


@settings(max_examples=150)
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(p),
    st.lists(st.tuples(*[st.integers(0, p - 1)] * d), min_size=1, max_size=3),
    st.tuples(*[st.integers(0, p - 1)] * d),
    st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=4, max_size=4)))))
def test_membership_answers_do_not_depend_on_representatives(instance):
    """Adding multiples of p to any coordinate changes no membership answer."""
    p, vectors, v, multiples = instance
    lift = lambda u, k: tuple(x + p * m for x, m in zip(u, multiples[k % len(multiples)]))
    far_vectors = [lift(u, k) for k, u in enumerate(vectors)]
    far_v = lift(v, len(vectors))
    assert in_span(far_v, far_vectors, p) == in_span(v, vectors, p) == span_oracle(v, vectors, p)
    assert in_affine_span(far_v, far_vectors, p) == in_affine_span(v, vectors, p)
    sub = AffineSubspace.from_points(vectors, p)
    assert AffineSubspace.from_points(far_vectors, p) == sub
    assert sub.contains(far_v) == sub.contains(v) == in_affine_span(v, vectors, p)


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division: the oracle for `is_prime` on small n."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_prime_check():
    assert is_prime(2) and is_prime(23) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(ValueError):
        Prime(6)


def test_prime_check_matches_trial_division():
    assert [n for n in range(-3, 10**5) if is_prime(n) != trial_division_is_prime(n)] == []


@pytest.mark.parametrize("n, prime", [
    (3215031751, False),  # strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, False),  # strong pseudoprime to every prime base up to 23
    (2**61 - 1, True),
    (2**31 - 1, True),
    (PRIME_BOUND - 1, False),
])
def test_prime_check_on_large_moduli(n, prime):
    assert is_prime(n) is prime


@pytest.mark.parametrize("n", [PRIME_BOUND, 2**89 - 1])
def test_moduli_past_the_prime_bound_are_refused_by_name(n):
    with pytest.raises(ValueError, match=f"modulus {n} is not below {PRIME_BOUND}"):
        is_prime(n)


def test_rref_identity():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    m, rk, pivots = rref(ident, 5)
    assert m == ident and rk == 3 and pivots == [0, 1, 2]


def test_rref_scalar_multiple_rank_one():
    _, rk, _ = rref([(1, 2), (2, 4)], 5)
    assert rk == 1


def test_rref_dependent_rows_f7():
    # third row is the sum of the first two
    m, rk, pivots = rref([(1, 0, 1), (0, 1, 1), (1, 1, 2)], 7)
    assert rk == 2
    assert pivots == [0, 1]
    assert m[2] == (0, 0, 0)


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        rows = [
            tuple(rng.randrange(p) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ]
        width = len(rows[0])
        rows = [r[:width] + (0,) * (width - len(r)) for r in rows]
        once, rk1, piv1 = rref(rows, p)
        twice, rk2, piv2 = rref(once, p)
        assert once == twice and rk1 == rk2 and piv1 == piv2


def test_in_span_examples():
    assert in_span((0, 0), [], 5)
    assert not in_span((1, 0), [], 5)
    assert in_span((1, 0), [(1, 1), (0, 1)], 5)
    assert in_span((1, 0, 0), [(1, 1, 0), (1, 2, 0)], 7)
    assert not in_span((0, 0, 1), [(1, 1, 0), (1, 2, 0)], 7)


def test_in_span_matches_coefficient_oracle():
    rng = random.Random(5)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 4)
        vectors = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        v = tuple(rng.randrange(p) for _ in range(d))
        assert in_span(v, vectors, p) == span_oracle(v, vectors, p)


ENTRY = st.one_of(st.integers(-30, 30), st.integers(-(2**70), 2**70))  # mostly non-canonical


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(p),
    st.lists(st.tuples(*[ENTRY] * d), max_size=4),
    st.tuples(*[ENTRY] * d),
    st.lists(st.integers(0, p - 1), min_size=4, max_size=4),
    st.booleans()))))
def test_in_span_matches_coefficient_enumeration(instance):
    """in_span equals the exhaustive coefficient search; half the targets are combinations
    of the vectors plus the free draw times p, so both answers occur."""
    p, vectors, free, coeffs, combine = instance
    v = free
    if combine:
        v = tuple(p * x + sum(c * s[t] for c, s in zip(coeffs, vectors)) for t, x in enumerate(free))
    expected = span_oracle(v, vectors, p)
    assert in_span(v, vectors, p) == expected
    if combine:
        assert expected


def test_in_affine_span_examples():
    assert in_affine_span((1, 0), [(1, 0), (0, 1)], 7)  # member point
    assert not in_affine_span((2, 2), [(1, 0), (0, 1)], 7)
    assert in_affine_span((3, 5), [(1, 0), (0, 1)], 7)  # 3·(1,0) - 2·(0,1)
    assert not in_affine_span((0, 0), [], 5)


def test_in_affine_span_matches_oracle():
    rng = random.Random(17)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        d = rng.randint(1, 3)
        points = [tuple(rng.randrange(p) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        a = tuple(rng.randrange(p) for _ in range(d))
        assert in_affine_span(a, points, p) == affine_oracle(a, points, p)


def test_remark_point_membership():
    # the five other points of the six-point configuration over F_7 affinely
    # span the whole plane, so (3,3) is inside (oracle-confirmed)
    points = [(1, 0), (0, 1), (0, 2), (1, 3), (2, 3)]
    assert affine_oracle((3, 3), points, 7) is True
    assert in_affine_span((3, 3), points, 7) is True


def tensor_power(v, m: int, p: int):
    """m-fold tensor power of v, multi-indices in lexicographic order: an oracle
    for the monomial ranks of `tensor_criterion`.

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


def test_tensor_power_examples():
    assert tensor_power((1, 0), 2, 5) == (1, 0, 0, 0)
    assert tensor_power((1, 1), 2, 3) == (1, 1, 1, 1)
    assert tensor_power((1, 2), 2, 5) == (1, 2, 2, 4)


def test_tensor_power_multi_index_order():
    # entry at (j_1, j_2) sits at j_1·d + j_2
    v = (2, 3, 4)
    out = tensor_power(v, 2, 7)
    for j1 in range(3):
        for j2 in range(3):
            assert out[j1 * 3 + j2] == v[j1] * v[j2] % 7


def test_tensor_power_properties():
    rng = random.Random(3)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        d = rng.randint(1, 3)
        v = tuple(rng.randrange(p) for _ in range(d))
        assert tensor_power(v, 1, p) == tuple(x % p for x in v)
        lam = rng.randrange(1, p)
        for m in (2, 3):
            scaled = tensor_power(tuple(lam * x for x in v), m, p)
            plain = tensor_power(v, m, p)
            assert scaled == tuple(pow(lam, m, p) * x % p for x in plain)


def test_completing_transform_identity_case():
    d = 4
    v = (1,) + (0,) * (d - 1)
    assert completing_transform(v, 7) == tuple(
        tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
    )


def test_completing_transform_examples():
    t = completing_transform((0, 1), 5)
    assert vec_mat((0, 1), t, 5) == (1, 0)
    assert mat_inverse(t, 5) is not None

    t2 = completing_transform((2, 3), 7)
    assert vec_mat((2, 3), t2, 7) == (1, 0)
    assert rank(t2, 7) == 2


def test_completing_transform_zero_rejected():
    with pytest.raises(ValueError, match="zero form"):
        completing_transform((0, 0, 0), 5)


def test_completing_transform_random_invertible():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(1, 4)
        v = tuple(rng.randrange(p) for _ in range(d))
        if not any(v):
            continue
        t = completing_transform(v, p)
        assert vec_mat(v, t, p) == (1,) + (0,) * (d - 1)
        assert rank(t, p) == d


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.just(p),
    st.tuples(*[st.integers(0, p - 1)] * d),
    st.tuples(*[st.integers(-2 * p, 2 * p)] * d)))))
def test_apply_completing_is_the_product_with_completing_transform(instance):
    p, v, f = instance
    assume(any(v))
    assert apply_completing(f, v, p) == vec_mat(f, completing_transform(v, p), p)
    assert apply_completing(v, v, p) == (1,) + (0,) * (len(v) - 1)


def test_apply_completing_zero_rejected():
    with pytest.raises(ValueError, match="zero form"):
        apply_completing((1, 2), (0, 0), 5)


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 7, PRIME_BELOW_2_31, PRIME_ABOVE_2_31, 2**61 - 1]).flatmap(
    lambda p: st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.just(p),
        st.lists(st.tuples(*[st.integers(-2 * p, 2 * p) | st.integers(0, 3)] * d), min_size=1, max_size=6),
        st.integers(0, 5)))))
def test_complete_rows_maps_each_row_as_apply_completing(instance):
    """The array map agrees with the per-form map row by row, in int64 below 2^31
    and on Python integers above, with any row of the system as v."""
    p, rows, at = instance
    v = rows[at % len(rows)]
    assume(any(x % p for x in v))
    out = complete_rows(rows, v, p)
    assert out.dtype == (object if p >= 2**31 else np.int64)
    assert [tuple(row) for row in out.tolist()] == [apply_completing(f, v, p) for f in rows]


def test_complete_rows_zero_rejected():
    with pytest.raises(ValueError, match="zero form"):
        complete_rows([(1, 2)], (0, 5), 5)
