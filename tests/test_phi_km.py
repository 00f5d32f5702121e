from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from seqcs.analysis import gowers_norm, gowers_norm_direct, lambda_average, tensor_product_table
from seqcs.complexity import CoverCertificate, WitnessCertificate, verify_witness
from seqcs.covering import AffineCover, AffineSubspace, verify_cover
from seqcs.phi_km import (
    _embed_in_slice,
    _parameters,
    _simplex,
    _witness_at,
    binomial_product_table,
    counterexample_family,
    default_weight,
    gray_code_check,
    phase_polynomial_table,
    phi_system,
    phi_witness,
    phi_witness_certificate,
    s_km_points,
)
from seqcs.systems import associated_set


@st.composite
def slice_embeddings(draw):
    """A subspace of F_p^(M-1), spanned by possibly dependent vectors or cut out by a
    hyperplane as the witness covers are, and a slice level z_M in F_p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    M = draw(st.integers(2, 5))
    vector = st.tuples(*[st.integers(0, p - 1)] * (M - 1))
    if draw(st.booleans()):
        sub = AffineSubspace.make(p, draw(vector), draw(st.lists(vector, max_size=M)))
    else:
        normal = draw(vector.filter(any))
        sub = AffineSubspace.from_hyperplane(normal, draw(st.integers(0, p - 1)), p)
    return p, M, sub, draw(st.integers(0, p - 1))


@settings(max_examples=300)
@given(slice_embeddings())
def test_slice_embedding_equals_the_eliminated_subspace(case):
    """The lift built without elimination is the subspace `AffineSubspace.make` gives."""
    p, M, sub, level = case
    got = _embed_in_slice(sub, level, p, M)
    want = AffineSubspace.make(p, sub.basepoint + (level,), [d + (0,) for d in sub.directions])
    assert got == want
    assert (got.basis.rows, got.basis.pivots, got.basis.dim) == (want.basis.rows, want.basis.pivots, want.basis.dim)
    assert got.dim == want.dim


def s_km_size_recurrence(p, k, M):
    """|S_{k,M}| via the slice recurrence, as an independent size oracle."""
    if k < 1:
        return 0
    if M == 0:
        return 1
    return sum(s_km_size_recurrence(p, k - j, M - 1) for j in range(p))


def simplex_size(p, k, M):
    """|S_{k,M}| of checked parameters, counted off the point generator without a list."""
    return sum(1 for _ in _simplex(p, k, M))


def scanned_witness(p, k, M, at=None):
    """Oracle for `_witness_at`: each certificate part collects, by membership
    tests, the remaining simplex points that its cover subspace contains."""
    p, k, M = _parameters(p, k, M)
    points = s_km_points(p, k, M)
    index_of = {z: i for i, z in enumerate(points)}
    seq_pts, covers_geo = phi_witness(p, k, M)
    ell = seq_pts.index(tuple(at) if at is not None else (0,) * M) + 1
    sequence = tuple(index_of[z] for z in seq_pts[:ell])
    covers = []
    for j in range(1, ell + 1):
        prefix_pts = set(seq_pts[:j])
        remaining = [z for z in points if z not in prefix_pts]
        parts = tuple(
            tuple(sorted(index_of[z] for z in remaining if sub.contains(z))) for sub in covers_geo[j - 1]
        )
        covers.append(CoverCertificate(sequence[:j], parts))
    cert = WitnessCertificate(phi_system(p, k, M).digest(), sequence[-1], k - 2, sequence, tuple(covers))
    return seq_pts[:ell], covers_geo[:ell], cert


def test_s_km_examples():
    pts = s_km_points(3, 4, 2)
    assert len(pts) == 8 and (2, 2) not in pts
    assert s_km_points(5, 3, 1) == [(0,), (1,), (2,)]
    assert s_km_points(3, 99, 2) == s_km_points(3, 2 * 2 + 1, 2)
    assert len(s_km_points(3, 99, 2)) == 9


def test_s_km_lexicographic():
    pts = s_km_points(5, 6, 2)
    assert pts == sorted(pts)
    assert len(pts) == 19


def test_s_km_size_recurrence():
    for p in (2, 3, 5):
        for M in (1, 2, 3):
            for k in range(1, min(M * (p - 1) + 1, 7) + 1):
                assert len(s_km_points(p, k, M)) == s_km_size_recurrence(p, k, M)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_s_km_points_match_the_product_filter(p):
    for M in range(5):
        for k in range(-1, M * (p - 1) + 3):
            assert s_km_points(p, k, M) == [z for z in product(range(p), repeat=M) if sum(z) < k]


@pytest.mark.parametrize("p, k, M", [(3, 3, 10**6), (2, 3, 10**9), (3, 10**6, 40)])
def test_s_km_points_refuse_a_huge_simplex(p, k, M):
    with pytest.raises(ValueError, match=f"^M={M}: "):
        s_km_points(p, k, M)
    with pytest.raises(ValueError, match=f"^M={M}: "):
        simplex_size(*_parameters(p, k, M))


def test_descriptor_clamps():
    assert _parameters(3, 99, 2) == (3, 5, 2)
    assert simplex_size(*_parameters(3, 99, 2)) == 9
    with pytest.raises(ValueError, match="^modulus 4 is not prime$"):
        _parameters(4, 3, 2)
    for k, M in [(0, 2), (3, 0)]:
        with pytest.raises(ValueError, match="^need M >= 1 and k >= 1$"):
            _parameters(3, k, M)


def test_phi_system_progression():
    assert phi_system(5, 3, 1).forms == ((1, 0), (1, 1), (1, 2))


def test_phi_system_shapes_and_points():
    sys_ = phi_system(3, 4, 2)
    assert sys_.r == 8 and sys_.d == 3
    assert associated_set(sys_).points == tuple(s_km_points(3, 4, 2))
    assert phi_system(5, 6, 2).r == 19


def test_phi_witness_base_case():
    seq, covers = phi_witness(3, 3, 1)
    assert seq == [(2,), (1,), (0,)]
    assert [len(c) for c in covers] == [2, 1, 0]
    assert all(sub.dim == 0 for cover in covers for sub in cover)


def test_phi_witness_f3_m2_k4():
    seq, covers = phi_witness(3, 4, 2)
    assert len(seq) == 8 and seq[-1] == (0, 0)
    for i in range(1, 9):
        assert len(covers[i - 1]) <= 3
        rest = [z for z in s_km_points(3, 4, 2) if z not in set(seq[:i])]
        report = verify_cover(AffineCover(3, 2, tuple(covers[i - 1]), tuple(rest), tuple(seq[:i])))
        assert report["passed"]


def test_phi_witness_f5_m2_k6():
    seq, covers = phi_witness(5, 6, 2)
    assert len(seq) == 19 and seq[-1] == (0, 0)
    assert max(len(c) for c in covers) <= 5


def test_phi_witness_prefix_truncation_gives_witness_everywhere():
    # the certificate bridge verifies at every truncation point of a small grid
    for p, k, M in [(3, 4, 2), (2, 3, 2), (5, 6, 2)]:
        seq, _ = phi_witness(p, k, M)
        system = phi_system(p, k, M)
        for z in (seq[0], seq[len(seq) // 2], (0,) * M):
            cert = phi_witness_certificate(p, k, M, at=z)
            assert cert.k == k - 2
            assert verify_witness(system, cert).passed


def test_phi_witness_parts_match_the_membership_scan():
    cases = [
        (p, k, M, None)
        for p in (2, 3, 5, 7)
        for M in (1, 2, 3)
        for k in range(2, min(7, M * (p - 1) + 1) + 1)
        if p**M <= 400
    ]
    cases += [(p, 4, 2, z) for p in (3, 5) for z in s_km_points(p, 4, 2)]
    for p, k, M, at in cases:
        built, oracle = _witness_at(phi_system(p, k, M), at), scanned_witness(p, k, M, at)
        assert built == oracle, (p, k, M, at)
        assert built[2].to_json() == oracle[2].to_json()
        assert built[2] == phi_witness_certificate(p, k, M, at)


def test_phi_certificate_full_length():
    cert = phi_witness_certificate(3, 4, 2)
    assert cert.length == 8
    assert verify_witness(phi_system(3, 4, 2), cert).passed


def test_phi_certificate_needs_k_at_least_two():
    with pytest.raises(ValueError):
        phi_witness_certificate(3, 1, 2)


def test_default_weight():
    assert default_weight(3, 4, 2) == (2, 1)
    assert default_weight(5, 6, 2) == (4, 1)
    assert default_weight(2, 4, 3) == (1, 1, 1)
    with pytest.raises(ValueError, match="exceeds"):
        default_weight(3, 7, 1)


def test_weight_validation_messages():
    with pytest.raises(ValueError, match="sum to k-1"):
        counterexample_family(3, 4, 2, (1, 1))
    with pytest.raises(ValueError, match="first weight entry"):
        counterexample_family(3, 3, 2, (0, 2))
    with pytest.raises(ValueError, match="length M"):
        counterexample_family(3, 4, 2, (2, 1, 0))


def test_family_is_unimodular():
    for f in counterexample_family(3, 4, 2, (2, 1)):
        assert f.is_one_bounded()
        assert abs(abs(f.values) - 1).max() < 1e-12


def test_family_average_is_one_grid():
    cases = [(3, 4, 2, (2, 1)), (3, 3, 2, (2, 0)), (2, 3, 2, (1, 1)), (5, 3, 1, (2,)), (7, 4, 1, (3,))]
    for p, k, M, w in cases:
        fam = counterexample_family(p, k, M, w)
        value = lambda_average(phi_system(p, k, M), fam)
        assert abs(value - 1) <= 1e-12, (p, k, M, w, value)


def test_family_origin_norm_strictly_below_one():
    fam = counterexample_family(3, 4, 2, (2, 1))
    f0 = fam[s_km_points(3, 4, 2).index((0, 0))]
    u2 = gowers_norm(f0, 2)
    assert u2 <= 1 - 1e-3
    assert u2 == pytest.approx(3 ** (-1 / 2), abs=1e-12)


def test_family_tensor_level_multiplies_norm():
    fam1 = counterexample_family(3, 4, 2, (2, 1), ell=1)
    fam2 = counterexample_family(3, 4, 2, (2, 1), ell=2)
    f1 = fam1[0]
    f2 = fam2[0]
    assert f2.n == 2 * f1.n
    assert gowers_norm(f2, 2) == pytest.approx(gowers_norm(f1, 2) ** 2, abs=1e-10)
    # the tensor construction agrees with the generic product helper
    assert gowers_norm_direct(tensor_product_table(f1, 2), 2) == pytest.approx(
        gowers_norm(f2, 2), abs=1e-10
    )


def test_gray_code_vanishes():
    assert gray_code_check(3, 4, 2, (2, 1), trials=300, seed=0) == 0
    assert gray_code_check(5, 3, 1, (2,), trials=200, seed=1) == 0
    # weight (1, 0): the polynomial is constant, so the sum telescopes to zero
    assert gray_code_check(3, 2, 2, (1, 0), trials=100, seed=2) == 0


def test_gray_code_detects_degree_bump():
    # raising the first exponent from w_1 - 1 to w_1 makes the degree match the
    # cube dimension and the alternating sum no longer vanishes
    mutated = binomial_product_table(3, 2, (2, 1))
    assert gray_code_check(3, 4, 2, (2, 1), trials=300, seed=0, polynomial=mutated) != 0


def test_binomial_product_table_matches_pointwise_binomials():
    for p, exponents in [(2, (1,)), (3, (2, 1)), (5, (3, 0, 2)), (7, (4, 1))]:
        M = len(exponents)
        table = binomial_product_table(p, M, exponents)
        expected = [0] * p**M
        for x in product(range(p), repeat=M):
            idx = sum(c * p**t for t, c in enumerate(x))
            expected[idx] = prod(comb(c, e) for c, e in zip(x, exponents)) % p
        assert list(table) == expected


def test_phase_polynomial_degrees():
    table = phase_polynomial_table(3, 4, 2, (2, 1))
    # C(x,1)·C(y,1) = x·y as residues
    expected = [(x * y) % 3 for y in range(3) for x in range(3)]
    assert list(table) == expected
