"""Property tests: the closure-lattice walk against brute force over subsets.

Brute force only needs subsets of at most dim vectors: every linear span of a
nonempty set is the span of at most dim of its members, and every affine span
of a nonempty point set in F_p^M is the affine span of at most M+1 of them.
Membership is decided by the exhaustive coefficient oracles of test_field.
The pools that `admissible_cover` filters from a system's memoised lattice of
flats are checked against `closure_pool`, one walk per query.
The walk's visit order is checked against `reference_closure_pool`, the walk
as it was before children were grouped by residual key, when excluded vectors
were a second list; the walk gets them as the tail of its ground set.  The
walk's incremental keys are checked against `residual_key`, each vector
reduced against a basis of the node's closure, as the walk once did it.
"""

from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqcs.complexity import admissible_cover, admissible_flats, flat_lattice
from seqcs.covering import AffineSubspace, SearchGuardExceeded, closure_pool, closure_walk, mask_indices
from seqcs.field import SpanBasis, Vector, completing_transform, rank, span_basis, vec
from seqcs.phi_km import phi_system, s_km_points
from seqcs.systems import LinearSystem, validate

from test_field import PRIME_ABOVE_2_31, affine_oracle, extended, mat_inverse, mat_mul, span_oracle

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
    excluded = draw(st.lists(st.integers(0, len(forms) - 1), max_size=2, unique=True))
    return LinearSystem(p, tuple(forms)), tuple(sorted(excluded))


@st.composite
def affine_instances(draw):
    p = draw(PRIMES)
    M = draw(st.integers(1, 2))
    grid = list(product(range(p), repeat=M))
    chosen = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=7, unique=True))
    n_points = draw(st.integers(1, len(chosen)))
    return p, M, chosen[:n_points], chosen[n_points:]


def as_sets(masks):
    """Bitmask index sets as frozensets, None kept: the form the oracles compare."""
    return None if masks is None else [frozenset(mask_indices(m)) for m in masks]


def linear_pool(system: LinearSystem, excluded, node_guard: int):
    """The parts pool of `admissible_cover`: the system's forms, excluded ones by index."""
    return as_sets(closure_pool(system.forms, excluded, system.p, node_guard))


def affine_pool(points, excluded, p: int, M: int, node_guard: int):
    """The affine-span pool of `min_cover_excluding`: points and excluded points lifted
    to (1, s) in one ground set, the excluded ones as its tail."""
    lifted = [(1,) + tuple(t) for t in list(points) + list(excluded)]
    return as_sets(closure_pool(lifted, range(len(points), len(lifted)), p, node_guard))


@EXAMPLES
@given(linear_instances())
def test_linear_pool_matches_brute_force(instance):
    system, excluded = instance
    pool = linear_pool(system, excluded, 10**6)
    forms, p = system.forms, system.p
    if any(not any(forms[t]) for t in excluded):
        assert pool is None
        return
    assert not any(part & set(excluded) for part in pool)
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
    member_sets = affine_pool(points, excluded, p, M, 10**6)
    assert all(max(members) < len(points) for members in member_sets)

    def spans(subset, j):
        return affine_oracle(points[j], [points[s] for s in subset], p)

    def avoids_excluded(subset):
        return not any(affine_oracle(a, [points[s] for s in subset], p) for a in excluded)

    assert member_sets == maximal_closures(len(points), M + 1, spans, avoids_excluded)
    for members in member_sets:
        sub = AffineSubspace.from_points([points[j] for j in sorted(members)], p)
        assert {j for j, t in enumerate(points) if sub.contains(t)} == members
        assert not any(sub.contains(a) for a in excluded)


@pytest.mark.parametrize("vectors, excluded, pool", [
    # an excluded index that repeats an allowed vector bans every span holding that vector
    ([(1, 0), (0, 1), (1, 0)], {2}, [{1}]),
    ([(0, 0), (1, 2), (2, 1)], {1}, [{0}]),
    # nothing excluded: the whole ground set is the one maximal closure
    ([(1, 0), (0, 1), (1, 1), (0, 0)], set(), [{0, 1, 2, 3}]),
    ([(1, 1), (2, 2)], (), [{0, 1}]),
    # an excluded zero vector lies in every span
    ([(1, 0), (0, 0)], {1}, None),
    ([(0, 0), (0, 0)], {1}, None),
], ids=["duplicate", "duplicate-multiple-and-zero", "none", "none-parallel", "zero", "zero-duplicate"])
def test_excluded_indices(vectors, excluded, pool):
    expected = None if pool is None else [frozenset(c) for c in pool]
    assert as_sets(closure_pool(vectors, excluded, 3)) == expected


S343_POINTS = [z for z in s_km_points(3, 4, 3) if any(z)]
S553_POINTS = [z for z in s_km_points(5, 5, 3) if any(z)]
PHI342_FORMS = phi_system(3, 4, 2).forms
PHI342_WITH_ZERO = LinearSystem(3, PHI342_FORMS[:4] + ((0, 0, 0),) + PHI342_FORMS[4:])


# Nodes each walk visits, counted before the two walks were merged into one
# (the zero-form case before children were grouped by residual key):
# `--node-guard` must still trip at the same node.  A walk whose seeds leave
# the zero form out of their closures visits 23 nodes in the fourth case.  The
# (5,5,3) origin pool, the benchmark's largest walk, was counted before each
# queued closure held its residual keys grouped.
@pytest.mark.parametrize("walk, nodes", [
    (lambda guard: linear_pool(phi_system(5, 6, 2), (0,), guard), 42),
    (lambda guard: linear_pool(phi_system(3, 4, 2), (0, 3), guard), 11),
    (lambda guard: affine_pool(S343_POINTS, [(0, 0, 0)], 3, 3, guard), 116),
    (lambda guard: linear_pool(PHI342_WITH_ZERO, (0, 3), guard), 12),
    (lambda guard: affine_pool(S553_POINTS, [(0, 0, 0)], 5, 3, guard), 455),
])
def test_node_guard_trips_at_the_same_node(walk, nodes):
    walk(nodes)
    with pytest.raises(SearchGuardExceeded, match=f"passed {nodes - 1} nodes"):
        walk(nodes - 1)


def residual_key(basis: SpanBasis, v) -> Vector:
    """v reduced against `basis`, scaled so its first nonzero entry is 1 (zero stays zero).

    For u, v outside span(basis): u lies in span(basis ∪ {v}) exactly when
    both have the same key, since their residuals are then nonzero multiples.
    """
    res = basis.reduce(v)
    lead = next((x for x in res if x), 0)
    if lead in (0, 1):
        return res
    inv = pow(lead, -1, basis.p)
    return tuple(x * inv % basis.p for x in res)


def reference_closure_pool(vectors, excluded, p: int, dim: int, node_guard: int = 10**8):
    """The walk before children were grouped by residual key, kept verbatim as an oracle.

    Each node extends its basis by every vector outside its closure and
    rebuilds the admissibility test and the closure of each extension.
    """
    if any(not any(v) for v in excluded):
        return None

    def admissible(basis: SpanBasis) -> bool:
        return not any(basis.contains(v) for v in excluded)

    def closure_of(basis: SpanBasis) -> frozenset[int]:
        return frozenset(j for j, v in enumerate(vectors) if basis.contains(v))

    seen: dict[frozenset[int], SpanBasis] = {}
    queue: list[frozenset[int]] = []
    for v in vectors:
        basis = extended(SpanBasis(p, dim), v)
        if not admissible(basis):
            continue
        cl = closure_of(basis)
        if cl not in seen:
            seen[cl] = basis
            queue.append(cl)
    maximal: list[frozenset[int]] = []
    visited = 0
    while queue:
        cl = queue.pop()
        visited += 1
        if visited > node_guard:
            raise SearchGuardExceeded(
                f"closure-lattice walk passed {node_guard} nodes ({len(seen)} closures found)"
            )
        basis = seen[cl]
        extendable = False
        for j, v in enumerate(vectors):
            if j in cl:
                continue
            grown = extended(basis, v)
            if not admissible(grown):
                continue
            extendable = True
            ncl = closure_of(grown)
            if ncl not in seen:
                seen[ncl] = grown
                queue.append(ncl)
        if not extendable:
            maximal.append(cl)
    return sorted(maximal, key=sorted)


def indexed_walk(vectors, excluded, p: int, dim: int, node_guard: int):
    """`closure_pool` on the ground set vectors + excluded, the excluded ones by index."""
    tail = range(len(vectors), len(vectors) + len(excluded))
    return as_sets(closure_pool(vectors + excluded, tail, p, node_guard))


def walk_outcome(walk, args, guard):
    """The walk's pool, or its guard message when `guard` trips."""
    try:
        return walk(*args, node_guard=guard)
    except SearchGuardExceeded as exc:
        return str(exc)


@st.composite
def dependent_vectors(draw):
    """Vectors with many dependencies: zero vectors, duplicates and combinations
    of a small palette, over a small prime or one above 2^31, whose residues
    are Python ints past any machine word.  Returns (vectors, more, p, d),
    where `more` draws further vectors of the same kind."""
    p = draw(st.sampled_from([3, 5, 7, PRIME_ABOVE_2_31]))
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, p - 1)] * d)
    palette = draw(st.lists(vector, min_size=1, max_size=3))

    def combine(terms):
        return tuple(sum(c * v[t] for v, c in terms) % p for t in range(d))

    combo = st.lists(st.tuples(st.sampled_from(palette), st.integers(0, p - 1)), min_size=1, max_size=2).map(combine)
    body = draw(st.lists(st.one_of(combo, vector), min_size=1, max_size=7))
    zeros = [(0,) * d] * draw(st.integers(0, 1))
    copies = draw(st.lists(st.sampled_from(body), max_size=8 - len(body)))
    vectors = body + zeros + copies
    order = draw(st.permutations(range(len(vectors))))
    return [vectors[i] for i in order], st.one_of(combo, vector), p, d


@st.composite
def walk_instances(draw):
    """Vectors and excluded vectors from `dependent_vectors`."""
    vectors, more, p, d = draw(dependent_vectors())
    excluded = draw(st.lists(more, max_size=2))
    return vectors, excluded, p, d


@st.composite
def lattice_instances(draw):
    """A system of dependent vectors and several sets of 0 to 3 excluded indices."""
    vectors, _, p, d = draw(dependent_vectors())
    index_sets = st.lists(st.integers(0, len(vectors) - 1), max_size=3, unique=True)
    return LinearSystem(p, tuple(vectors)), draw(st.lists(index_sets, min_size=1, max_size=4))


def lattice_pool(system: LinearSystem, excluded):
    """`admissible_flats` as index sets."""
    return as_sets(admissible_flats(system, excluded))


@settings(max_examples=150)
@given(lattice_instances())
def test_lattice_pool_matches_closure_pool(instance):
    """Every query on one system (its lattice memoised after the first) gives
    the pool of a walk that excludes the query's indices."""
    system, queries = instance
    for excluded in queries:
        assert lattice_pool(system, excluded) == linear_pool(system, excluded, 10**6)


@pytest.mark.parametrize("vectors, excluded, pool", [
    # an excluded zero form lies in every span: no part at all
    ([(1, 0), (0, 0)], {1}, None),
    # every form parallel to the excluded one and no zero form: no flat misses it,
    # and the empty closure is not a part
    ([(1, 2), (2, 1), (1, 2)], {0}, []),
    # the zero-only closure is maximal when every child meets the excluded set
    ([(0, 0), (1, 2), (2, 1)], {1}, [{0}]),
    ([(0, 0), (1, 0), (0, 1), (1, 1)], {1, 2, 3}, [{0}]),
], ids=["zero-excluded", "all-parallel", "zero-only-maximal", "zero-only-maximal-plane"])
def test_lattice_pool_edge_cases(vectors, excluded, pool):
    expected = None if pool is None else [frozenset(c) for c in pool]
    system = LinearSystem(3, tuple(vectors))
    assert lattice_pool(system, excluded) == expected == as_sets(closure_pool(vectors, excluded, 3))


REMARK_F7 = {"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]}


def cover_outcome(system: LinearSystem, guard: int):
    """The cover of every form but form 5, or the guard message."""
    try:
        return admissible_cover(system, (5,), 3, guard)
    except SearchGuardExceeded as exc:
        return str(exc)


# One lattice walk per system visits each flat once: 50 flats for phi(5,6,2)
# and 18 for the F_7 remark system.  A memoised lattice trips the guard alike.
@pytest.mark.parametrize("make, flats", [(lambda: phi_system(5, 6, 2), 50), (lambda: validate(REMARK_F7), 18)],
                         ids=["phi562", "rem1"])
def test_lattice_guard_counts_flats_memoised_or_not(make, flats):
    system = make()
    assert len(flat_lattice(system)) == flats
    for guard in (flats - 1, flats, 10**8):
        fresh = LinearSystem(system.p, system.forms)
        assert cover_outcome(fresh, guard) == cover_outcome(system, guard)
    assert cover_outcome(system, flats - 1).startswith(f"closure-lattice walk passed {flats - 1} nodes")
    assert "closure-lattice" not in str(cover_outcome(system, flats))


@settings(max_examples=150)
@given(walk_instances())
def test_walk_matches_reference_visit_for_visit(instance):
    """Same outcome at every node guard: the same pool, the same smallest
    guard that does not trip, and the same message (closures found so far,
    which depends on the visit order) at every guard below it."""
    guard = 0
    while isinstance(outcome := walk_outcome(indexed_walk, instance, guard), str):
        assert walk_outcome(reference_closure_pool, instance, guard) == outcome
        guard += 1
    assert walk_outcome(reference_closure_pool, instance, guard) == outcome


@settings(max_examples=150)
@given(walk_instances())
def test_walk_keys_group_like_residual_keys(instance):
    """At every node the walk's children are the groups of the vectors outside
    the closure under `residual_key` against a basis of the closure's span,
    in order of first index, less the groups that hold an excluded index;
    and the closure is exactly the set of vectors that reduce to zero."""
    vectors, excluded, p, d = instance
    ground = [vec(v, p) for v in vectors + excluded]
    tail = range(len(vectors), len(ground))
    nodes = closure_walk(ground, tail, p)
    if nodes is None:
        assert any(not any(ground[t]) for t in tail)
        return
    banned = sum(1 << t for t in tail)
    for cl, kids in nodes:
        basis = span_basis([ground[j] for j in mask_indices(cl)], p, d)
        groups: dict[Vector, int] = {}
        for j, v in enumerate(ground):
            key = residual_key(basis, v)
            if any(key):
                groups[key] = groups.get(key, 0) | 1 << j
            else:
                assert cl >> j & 1
        assert not cl & sum(groups.values())
        assert kids == [cl | g for g in groups.values() if not g & banned]


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(p),
    st.lists(st.tuples(*[st.integers(0, p - 1)] * d), max_size=2),
    st.tuples(*[st.integers(0, p - 1)] * d),
    st.tuples(*[st.integers(0, p - 1)] * d)))))
def test_residual_keys_agree_exactly_when_one_vector_spans_the_other(instance):
    p, gens, u, v = instance
    basis = span_basis(gens, p, len(u))
    same_nonzero_key = residual_key(basis, u) == residual_key(basis, v) and any(residual_key(basis, v))
    assert same_nonzero_key == (span_oracle(u, gens + [v], p) and not span_oracle(u, gens, p))


@EXAMPLES
@given(PRIMES.flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=3), st.integers(0, p - 1))))
def test_from_hyperplane_is_the_solution_set(instance):
    p, normal, const = instance
    assume(any(normal))
    sub = AffineSubspace.from_hyperplane(normal, const, p)
    assert sub.dim == len(normal) - 1
    # the closed form is the subspace that elimination builds from the completing transform
    cols = list(zip(*completing_transform(normal, p)))
    built = AffineSubspace.make(p, [const * x for x in cols[0]], cols[1:])
    assert sub == built and (sub.basis.rows, sub.basis.pivots) == (built.basis.rows, built.basis.pivots)
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
