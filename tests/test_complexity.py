import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcs.complexity import (
    CoverCertificate,
    WitnessCertificate,
    admissible_cover,
    complexity_report,
    cs_complexity_at,
    sequential_witness,
    tensor_criterion,
    verify_witness,
)
from seqcs.covering import min_cover_excluding
from seqcs.systems import (
    LinearSystem,
    associated_set,
    change_of_variables,
    random_invertible,
    validate,
)
from seqcs.field import rank
from seqcs.phi_km import phi_system, phi_witness_certificate, s_km_points

from test_field import reference_rref, tensor_power

REMARK_F7 = validate({"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]})
REMARK_F23 = validate({"p": 23, "forms": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 10, 1], [1, 1, 2], [1, 2, 2]]})
PHI31 = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})


def random_system(rng):
    p = rng.choice([3, 5, 7])
    r, d = rng.randint(2, 7), rng.randint(2, 4)
    return LinearSystem(
        validate({"p": p, "forms": [[1] * d]}).p,
        tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(r)),
    )


def test_admissible_cover_empty_target():
    # a query that excludes every form leaves nothing to cover: no parts, even with none allowed
    cert = admissible_cover(PHI31, [0, 1, 2], 0)
    assert cert is not None and cert.parts == () and cert.targets == (0, 1, 2)


def test_admissible_cover_progression_singletons():
    cert = admissible_cover(PHI31, [0], 2)
    assert cert is not None
    assert cert.parts == ((1,), (2,))


def test_admissible_cover_remark_two_parts_infeasible():
    # the five other forms cannot split into two parts both avoiding the last
    assert admissible_cover(REMARK_F7, [5], 2) is None
    assert admissible_cover(REMARK_F7, [5], 3) is not None


def test_admissible_cover_zero_excluded_is_infeasible():
    sys_ = validate({"p": 5, "forms": [[0, 0], [1, 0], [1, 1]]})
    assert admissible_cover(sys_, [0], 3) is None


def test_admissible_cover_zero_form_coverable():
    sys_ = validate({"p": 5, "forms": [[1, 0], [0, 0], [1, 1]]})
    cert = admissible_cover(sys_, [0], 2)
    assert cert is not None
    assert verify_cover_parts(sys_, cert)


def verify_cover_parts(system, cert):
    from seqcs.field import span_basis

    covered = set()
    for part in cert.parts:
        covered |= set(part)
        basis = span_basis([system.forms[x] for x in part], system.p, system.d)
        if any(basis.contains(system.forms[t]) for t in cert.targets):
            return False
    return covered >= {j for j in range(system.r) if j not in cert.targets} - set(cert.targets)


def test_cs_complexity_progressions():
    for p, k in [(5, 3), (5, 4), (7, 5)]:
        sys_ = phi_system(p, k, 1)
        for i in range(sys_.r):
            s, cert = cs_complexity_at(sys_, i)
            assert s == k - 2
            assert len(cert.parts) == s + 1


def test_cs_complexity_single_form():
    sys_ = validate({"p": 5, "forms": [[1, 0]]})
    assert cs_complexity_at(sys_, 0)[0] == 0


def test_cs_complexity_remark_values():
    values = [cs_complexity_at(REMARK_F7, i)[0] for i in range(6)]
    assert values == [1, 1, 1, 1, 1, 2]


def test_cs_complexity_infinite_marker():
    sys_ = validate({"p": 5, "forms": [[1, 0], [2, 0]]})
    assert cs_complexity_at(sys_, 0) == (None, None)
    assert cs_complexity_at(sys_, 1) == (None, None)
    report = complexity_report(sys_, 2)
    assert report.s_cs is None


def test_sequential_witness_length_one_consistency():
    rng = random.Random(59)
    for _ in range(30):
        sys_ = random_system(rng)
        i = rng.randrange(sys_.r)
        k = rng.randint(0, 3)
        s, _ = cs_complexity_at(sys_, i)
        found = sequential_witness(sys_, i, k, 1)
        assert (found is not None) == (s is not None and s <= k)


def test_sequential_witness_rejects_negative_k():
    # no cover has k + 1 = 0 parts, but that is a bad input, not an absent witness
    with pytest.raises(ValueError, match="k must be >= 0"):
        sequential_witness(PHI31, 0, -1, 3)


def test_sequential_witness_remark_lengths():
    lengths = [sequential_witness(REMARK_F7, i, 1, 2).length for i in range(6)]
    assert lengths == [1, 1, 1, 1, 1, 2]
    w5 = sequential_witness(REMARK_F7, 5, 1, 2)
    assert w5.sequence == (0, 5)  # goes through the point with a length-1 witness


def test_sequential_witness_none_for_remark_f23():
    for max_len in (1, 3, 6):
        assert sequential_witness(REMARK_F23, 0, 1, max_len) is None


def test_sequential_witness_monotonicity():
    rng = random.Random(73)
    for _ in range(15):
        sys_ = random_system(rng)
        i = rng.randrange(sys_.r)
        k = rng.randint(0, 2)
        max_len = rng.randint(1, 3)
        found = sequential_witness(sys_, i, k, max_len)
        if found is None:
            continue
        assert sequential_witness(sys_, i, k + 1, max_len) is not None
        assert sequential_witness(sys_, i, k, max_len + 1) is not None


def test_sequential_witness_soundness_randomized():
    rng = random.Random(97)
    checked = 0
    for _ in range(40):
        sys_ = random_system(rng)
        i = rng.randrange(sys_.r)
        k = rng.randint(0, 3)
        cert = sequential_witness(sys_, i, k, 3)
        if cert is None:
            continue
        checked += 1
        assert verify_witness(sys_, cert).passed
    assert checked > 5


def test_verify_witness_round_trip_and_mutations():
    cert = sequential_witness(REMARK_F7, 5, 1, 2)
    assert verify_witness(REMARK_F7, cert).passed

    # drop one form from the part that covers it
    covers = list(cert.covers)
    last = covers[-1]
    victim_part = next(idx for idx, part in enumerate(last.parts) if len(part) > 1)
    new_parts = list(last.parts)
    dropped = new_parts[victim_part][0]
    others = {x for idx, part in enumerate(new_parts) if idx != victim_part for x in part}
    new_parts[victim_part] = new_parts[victim_part][1:]
    covers[-1] = CoverCertificate(last.targets, tuple(new_parts), last.k)
    mutated = WitnessCertificate(cert.system_hash, cert.i, cert.k, cert.sequence, tuple(covers))
    report = verify_witness(REMARK_F7, mutated)
    if dropped in others:
        assert report.passed  # still covered elsewhere
    else:
        assert not report.passed
        assert any(f["kind"] == "uncovered-form" for f in report.failures)

    # wrong hash
    bad_hash = WitnessCertificate("0" * 64, cert.i, cert.k, cert.sequence, cert.covers)
    assert not verify_witness(REMARK_F7, bad_hash).passed

    # insert a target into a part: span now contains it
    first = cert.covers[0]
    poisoned = CoverCertificate(first.targets, ((first.targets[0],) + first.parts[0],) + first.parts[1:], first.k)
    poisoned_cert = WitnessCertificate(cert.system_hash, cert.i, cert.k, cert.sequence, (poisoned,) + cert.covers[1:])
    report = verify_witness(REMARK_F7, poisoned_cert)
    assert any(f["kind"] == "span-contains-target" for f in report.failures)


def test_verify_witness_short_witness_phi62():
    # the two-step sequence (1,1) then (0,0) with five-part covers
    sys_ = phi_system(5, 6, 2)
    points = s_km_points(5, 6, 2)
    i11, i00 = points.index((1, 1)), points.index((0, 0))
    c1 = admissible_cover(sys_, [i11], 5)
    c2 = admissible_cover(sys_, [i11, i00], 5)
    assert c1 is not None and c2 is not None
    cert = WitnessCertificate(sys_.digest(), i00, 4, (i11, i00), (c1, c2))
    assert verify_witness(sys_, cert).passed


def test_tensor_criterion_progressions():
    assert tensor_criterion(PHI31, 4).value == 1
    for p, k in [(5, 3), (5, 4), (5, 5), (7, 5)]:
        assert tensor_criterion(phi_system(p, k, 1), 6).value == k - 2


def test_tensor_criterion_duplicates_never_independent():
    sys_ = validate({"p": 5, "forms": [[1, 0], [1, 0], [1, 1]]})
    result = tensor_criterion(sys_, 5)
    assert result.value is None and "never independent" in result.reason


def test_tensor_criterion_none_within_cap():
    sys_ = validate({"p": 2, "forms": [[1, 0], [0, 1], [1, 1], [1, 1, ]]})
    assert tensor_criterion(sys_, 1).value is None


@st.composite
def tensor_instances(draw):
    """Distinct nonzero forms, many of them multiples of a small palette, so that
    many systems stay dependent up to m = 5 and so reach m >= p."""
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, p - 1)] * d).filter(any)
    palette = draw(st.lists(vector, min_size=1, max_size=3))
    multiple = st.tuples(st.sampled_from(palette), st.integers(1, p - 1)).map(
        lambda vc: tuple(vc[1] * x % p for x in vc[0]))
    forms = draw(st.lists(st.one_of(multiple, vector), min_size=1, max_size=8, unique=True))
    return LinearSystem(p, tuple(forms))


@settings(max_examples=150)
@given(tensor_instances())
def test_tensor_criterion_ranks_equal_tensor_power_ranks(system):
    """The monomial ranks are the ranks of the full tensor powers f^{⊗m}, m <= 5."""
    expected = []
    for k in range(5):
        expected.append((k, rank([tensor_power(f, k + 1, system.p) for f in system.forms], system.p)))
        if expected[-1][1] == system.r:
            break
    result = tensor_criterion(system, 4)
    assert result.ranks == tuple(expected)
    assert result.value == (expected[-1][0] if expected[-1][1] == system.r else None)


def test_tensor_criterion_invariant_under_change_of_variables():
    rng = np.random.default_rng(13)
    for sys_ in (PHI31, REMARK_F7, phi_system(3, 4, 2)):
        base = tensor_criterion(sys_, 4).value
        for _ in range(3):
            moved = change_of_variables(sys_, random_invertible(int(sys_.p), sys_.d, rng))
            assert tensor_criterion(moved, 4).value == base


def test_geometric_consistency_on_golden_systems():
    # cover feasibility on the form side matches the exact affine solver on the
    # associated point side, for normalized translation-invariant systems
    rng = random.Random(7)
    for sys_ in (PHI31, phi_system(3, 4, 2), REMARK_F7, REMARK_F23):
        points = associated_set(sys_).points
        for _ in range(6):
            prefix_len = rng.randint(1, min(3, sys_.r - 1))
            prefix = rng.sample(range(sys_.r), prefix_len)
            rest = [j for j in range(sys_.r) if j not in prefix]
            for max_parts in (1, 2, 3):
                form_side = admissible_cover(sys_, prefix, max_parts) is not None
                geo = min_cover_excluding(
                    int(sys_.p),
                    sys_.d - 1,
                    [points[j] for j in rest],
                    [points[j] for j in prefix],
                    mode="affine-spans",
                    max_count=max_parts,
                )
                assert form_side == (geo is not None), (sys_.forms, prefix, max_parts)


def certificate_is_valid(system, cert) -> bool:
    """Every invariant `verify_witness` checks, decided without it.

    Span membership is one rank comparison by the reference elimination of
    test_field per part and target, with no basis shared between parts.
    """
    r, seq, p = system.r, cert.sequence, system.p
    if cert.system_hash and cert.system_hash != system.digest():
        return False
    if not seq or not all(0 <= j < r for j in seq) or len(set(seq)) != len(seq):
        return False
    if seq[-1] != cert.i or len(cert.covers) != len(seq):
        return False
    for j, cover in enumerate(cert.covers, start=1):
        prefix = seq[:j]
        if tuple(cover.targets) != prefix or len(cover.parts) > cert.k + 1:
            return False
        if not set(range(r)) - set(prefix) <= {x for part in cover.parts for x in part}:
            return False
        for part in cover.parts:
            if not all(0 <= x < r for x in part):
                return False
            rows = [system.forms[x] for x in part]
            rank_of_part = reference_rref(rows, p)[1]
            if any(reference_rref(rows + [system.forms[t]], p)[1] == rank_of_part for t in prefix):
                return False
    return True


def single_entry_mutations(cert, r):
    """(kind, certificate) for every change of one entry of one cover.

    A part index is changed to every other form, set out of range, dropped or
    duplicated; a target is changed to every other form.
    """
    def with_cover(c, cover):
        covers = cert.covers[:c] + (cover,) + cert.covers[c + 1:]
        return WitnessCertificate(cert.system_hash, cert.i, cert.k, cert.sequence, covers)

    def with_part(c, t, part):
        cover = cert.covers[c]
        return with_cover(c, CoverCertificate(cover.targets, cover.parts[:t] + (part,) + cover.parts[t + 1:], cover.k))

    for c, cover in enumerate(cert.covers):
        for t, part in enumerate(cover.parts):
            for e, x in enumerate(part):
                for y in range(-1, r + 1):
                    if y != x:
                        kind = "changed" if 0 <= y < r else "out-of-range"
                        yield kind, with_part(c, t, part[:e] + (y,) + part[e + 1:])
                yield "dropped", with_part(c, t, part[:e] + part[e + 1:])
                yield "duplicated", with_part(c, t, part + (x,))
        for e, x in enumerate(cover.targets):
            for y in range(r):
                if y != x:
                    targets = cover.targets[:e] + (y,) + cover.targets[e + 1:]
                    yield "target-changed", with_cover(c, CoverCertificate(targets, cover.parts, cover.k))


CERTIFIED = {
    "phi332": (phi_system(3, 3, 2), phi_witness_certificate(3, 3, 2, None)),
    "phi532": (phi_system(5, 3, 2), phi_witness_certificate(5, 3, 2, None)),
    "phi342": (phi_system(3, 4, 2), phi_witness_certificate(3, 4, 2, None)),
    "remark-f7-at-5": (REMARK_F7, sequential_witness(REMARK_F7, 5, 1, 2)),
}


def judge_mutations(system, cert, mutations) -> Counter:
    """Assert `verify_witness` agrees with the oracle on each mutation; count the verdicts by kind."""
    verdicts = Counter()
    for kind, mutated in mutations:
        valid = certificate_is_valid(system, mutated)
        assert verify_witness(system, mutated).passed == valid, (kind, mutated)
        if kind in ("out-of-range", "target-changed"):
            assert not valid
        if kind == "duplicated":
            assert valid  # the part is the same set of forms
        verdicts[kind, valid] += 1
    return verdicts


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_verify_witness_judges_every_single_entry_mutation(name):
    """Every mutation is rejected but a duplicated index, which leaves each part
    the same set of forms; no form of these covers lies in two parts, so every
    dropped or changed index uncovers a form or puts a target in a span."""
    system, cert = CERTIFIED[name]
    assert verify_witness(system, cert).passed and certificate_is_valid(system, cert)
    verdicts = judge_mutations(system, cert, single_entry_mutations(cert, system.r))
    assert {kind for kind, valid in verdicts if valid} == {"duplicated"}
    assert {kind for kind, valid in verdicts if not valid} == {"changed", "out-of-range", "dropped", "target-changed"}


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_verify_witness_agrees_with_the_oracle_on_mutated_random_certificates(rng):
    system = random_system(rng)
    cert = sequential_witness(system, rng.randrange(system.r), rng.randint(0, 2), 3)
    assume(cert is not None)
    mutations = list(single_entry_mutations(cert, system.r))
    judge_mutations(system, cert, rng.sample(mutations, min(40, len(mutations))))
