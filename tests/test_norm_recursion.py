"""Property tests: the paired U^k recursion against the direct oracle, and the byte-capped caches.

The direct oracle loops in Python over all size^k shift tuples, so the cases
are the groups with p^n <= 49 and the orders k in {2, 3, 4} for which that
loop has at most 20000 iterations.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from seqcs import analysis
from seqcs.analysis import gowers_norm, gowers_norm_direct, random_one_bounded
from seqcs.phi_km import phi_system

CASES = [
    (p, n, k)
    for p in (2, 3, 5, 7)
    for n in range(1, 6)
    for k in (2, 3, 4)
    if p**n <= 49 and (p**n) ** k <= 20_000
]
FAMILIES = ("phases", "disk", "signs", "sparse")
EXAMPLES = settings(max_examples=40)


@settings(EXAMPLES, max_examples=25)
@given(case=st.sampled_from(CASES), family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**16))
def test_recursion_matches_direct_oracle(case, family, seed):
    p, n, k = case
    f = random_one_bounded(p, n, [seed], family)
    oracle = gowers_norm_direct(f, k)
    assert gowers_norm(f, k) == pytest.approx(oracle, abs=1e-12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_BATCH_BUDGET", 16)  # one shift at a time at every level
        assert gowers_norm(f, k) == pytest.approx(oracle, abs=1e-12)


def negate(h: int, p: int, n: int) -> int:
    digits = [h // p**t % p for t in range(n)]
    return sum((-d % p) * p**t for t, d in enumerate(digits))


@EXAMPLES
@given(p=st.sampled_from([2, 3, 5, 7, 11]), n=st.integers(1, 3))
def test_negation_pairs_pick_one_representative_per_pair(p, n):
    size = p**n
    reps, weights = analysis._negation_pairs(p, n)
    reps = [int(h) for h in reps]
    assert len(set(reps)) == len(reps)
    assert {h for r in reps for h in (r, negate(r, p, n))} == set(range(size))
    for h, w in zip(reps, weights):
        assert negate(h, p, n) == h or negate(h, p, n) not in reps
        assert w == (1 if negate(h, p, n) == h else 2)
    assert reps == [h for h in range(size) if h <= negate(h, p, n)]
    assert weights.sum() == size
    if p == 2:
        assert (weights == 1).all()


@pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_shift_matrix_matches_tuple_arithmetic(p, n):
    points = [tuple(reversed(z)) for z in product(range(p), repeat=n)]  # points[i] encodes to i
    index = {z: i for i, z in enumerate(points)}
    shift = analysis.shift_matrix(p, n)
    for h, hz in enumerate(points):
        for x, xz in enumerate(points):
            assert shift[h, x] == index[tuple((a + b) % p for a, b in zip(xz, hz))]


def bytes_held(cache, nbytes) -> int:
    return sum(nbytes(v) for v in cache.values())


def test_shift_cache_stays_within_its_byte_cap(monkeypatch):
    monkeypatch.setattr(analysis, "_shift_cache", {})
    monkeypatch.setattr(analysis, "_CACHE_BYTE_CAP", 1000)
    groups = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (7, 1), (2, 4)]
    for p, n in groups:
        out = analysis.shift_matrix(p, n)
        assert out[1, 0] == 1
        assert bytes_held(analysis._shift_cache, lambda a: a.nbytes) <= 1000
        if out.nbytes <= 1000:
            assert list(analysis._shift_cache)[-1] == (p, n)
        else:
            assert (p, n) not in analysis._shift_cache
    assert (2, 1) not in analysis._shift_cache  # the oldest entries went first


def test_evaluator_cache_stays_within_its_byte_cap(monkeypatch):
    monkeypatch.setattr(analysis, "_evaluators", {})
    cap = 2000  # phi(p, k, 1) at n = 1 holds p^2 int64 entries per form
    monkeypatch.setattr(analysis, "_CACHE_BYTE_CAP", cap)
    systems = [phi_system(p, k, 1) for p, k in product((3, 5, 7), (2, 3, 4))]
    for system in systems:
        evaluator = analysis.get_evaluator(system, 1)
        assert evaluator.system == system
        assert bytes_held(analysis._evaluators, analysis._evaluator_bytes) <= cap
    assert len(analysis._evaluators) < len(systems)
