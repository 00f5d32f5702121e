"""Property tests: the closure-lattice walk against brute force over subsets.

Brute force only needs subsets of at most dim vectors: every linear span of a
nonempty set is the span of at most dim of its members, and every affine span
of a nonempty point set in F_p^M is the affine span of at most M+1 of them.
Membership is decided by the exhaustive coefficient oracles of test_field.
"""

from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcs.complexity import _admissible_pool
from seqcs.covering import AffineSubspace, SearchGuardExceeded, _span_candidates
from seqcs.field import mat_inverse, mat_mul, rank
from seqcs.phi_km import phi_system, s_km_points
from seqcs.systems import LinearSystem

from test_field import affine_oracle, span_oracle

PRIMES = st.sampled_from([3, 5])
EXAMPLES = settings(max_examples=40)


def maximal_closures(n: int, size_cap: int, spans, avoids_excluded) -> list[frozenset[int]]:
    """Maximal admissible closures by brute force over index subsets of size <= size_cap.

    spans(subset, j) says whether vector j lies in the span of `subset`;
    avoids_excluded(subset) whether that span misses every excluded vector.
    """
    closures = set()
    for size in range(1, size_cap + 1):
        for subset in combinations(range(n), size):
            if avoids_excluded(subset):
                closures.add(frozenset(j for j in range(n) if spans(subset, j)))
    return sorted((c for c in closures if not any(c < other for other in closures)), key=sorted)


@st.composite
def linear_instances(draw):
    p = draw(PRIMES)
    d = draw(st.integers(1, 3))
    forms = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * d), min_size=1, max_size=7))
    excluded = draw(st.lists(st.integers(0, len(forms) - 1), min_size=1, max_size=2, unique=True))
    return LinearSystem(p, tuple(forms)), tuple(sorted(excluded))


@st.composite
def affine_instances(draw):
    p = draw(PRIMES)
    M = draw(st.integers(1, 2))
    grid = list(product(range(p), repeat=M))
    chosen = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=7, unique=True))
    n_points = draw(st.integers(1, len(chosen)))
    return p, M, chosen[:n_points], chosen[n_points:]


@EXAMPLES
@given(linear_instances())
def test_linear_pool_matches_brute_force(instance):
    system, excluded = instance
    pool = _admissible_pool(system, excluded, 10**6)
    forms, p = system.forms, system.p
    if any(not any(forms[t]) for t in excluded):
        assert pool is None
        return
    allowed = [j for j in range(system.r) if j not in excluded]

    def spans(subset, j):
        return span_oracle(forms[allowed[j]], [forms[allowed[s]] for s in subset], p)

    def avoids_excluded(subset):
        return not any(span_oracle(forms[t], [forms[allowed[s]] for s in subset], p) for t in excluded)

    expected = maximal_closures(len(allowed), system.d, spans, avoids_excluded)
    assert pool == [frozenset(allowed[j] for j in c) for c in expected]


@EXAMPLES
@given(affine_instances())
def test_affine_pool_matches_brute_force(instance):
    p, M, points, excluded = instance
    member_sets, pool = _span_candidates(points, excluded, p, M, 10**6)

    def spans(subset, j):
        return affine_oracle(points[j], [points[s] for s in subset], p)

    def avoids_excluded(subset):
        return not any(affine_oracle(a, [points[s] for s in subset], p) for a in excluded)

    assert member_sets == maximal_closures(len(points), M + 1, spans, avoids_excluded)
    for members, sub in zip(member_sets, pool):
        assert {j for j, t in enumerate(points) if sub.contains(t)} == members
        assert not any(sub.contains(a) for a in excluded)


S343_POINTS = [z for z in s_km_points(3, 4, 3) if any(z)]


# Nodes each walk visits, counted before the two walks were merged into one:
# `--node-guard` must still trip at the same node.
@pytest.mark.parametrize("walk, nodes", [
    (lambda guard: _admissible_pool(phi_system(5, 6, 2), (0,), guard), 42),
    (lambda guard: _admissible_pool(phi_system(3, 4, 2), (0, 3), guard), 11),
    (lambda guard: _span_candidates(S343_POINTS, [(0, 0, 0)], 3, 3, guard), 116),
])
def test_node_guard_trips_at_the_same_node(walk, nodes):
    walk(nodes)
    with pytest.raises(SearchGuardExceeded, match=f"passed {nodes - 1} nodes"):
        walk(nodes - 1)


@EXAMPLES
@given(PRIMES.flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=3), st.integers(0, p - 1))))
def test_from_hyperplane_is_the_solution_set(instance):
    p, normal, const = instance
    assume(any(normal))
    sub = AffineSubspace.from_hyperplane(normal, const, p)
    assert sub.dim == len(normal) - 1
    for x in product(range(p), repeat=len(normal)):
        assert sub.contains(x) == (sum(n * c for n, c in zip(normal, x)) % p == const)


@EXAMPLES
@given(PRIMES.flatmap(lambda p: st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(p), st.lists(st.tuples(*[st.integers(0, p - 1)] * d), min_size=d, max_size=d)))))
def test_mat_inverse_agrees_with_rank(instance):
    p, rows = instance
    m = tuple(rows)
    d = len(m)
    inv = mat_inverse(m, p)
    assert (inv is not None) == (rank(m, p) == d)
    if inv is not None:
        identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        assert mat_mul(m, inv, p) == identity == mat_mul(inv, m, p)
