import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcs.field import (
    apply_completing,
    completing_transform,
    in_affine_span,
    in_span,
    is_prime,
    mat_inverse,
    rank,
    rref,
    tensor_power,
    vec_mat,
    Prime,
)


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


def test_prime_check():
    assert is_prime(2) and is_prime(23) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(ValueError):
        Prime(6)


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
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
