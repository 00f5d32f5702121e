import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from seqcs import covering
from seqcs.covering import (
    AffineCover,
    AffineSubspace,
    SearchGuardExceeded,
    exact_set_cover,
    hyperplane_normals,
    min_cover_excluding,
    verify_cover,
)
from seqcs.field import vec
from seqcs.phi_km import s_km_points


def enumerate_hyperplanes(p: int, M: int, excluding=()) -> list[AffineSubspace]:
    """All affine hyperplanes of F_p^M containing none of the excluded points."""
    if M < 1:
        raise ValueError("ambient dimension must be >= 1")
    excluded = [vec(z, p) for z in excluding]
    out = []
    for normal in hyperplane_normals(p, M):
        for const in range(p):
            if any(sum(n * z for n, z in zip(normal, pt)) % p == const for pt in excluded):
                continue
            out.append(AffineSubspace.from_hyperplane(normal, const, p))
    return out


def simplex_minus_origin(p, k, M):
    return [z for z in s_km_points(p, k, M) if z != (0,) * M]


def test_hyperplane_counts():
    # p·(p^M - 1)/(p - 1) affine hyperplanes in total; those through a fixed
    # point number (p^M - 1)/(p - 1)
    assert len(enumerate_hyperplanes(5, 2)) == 30
    assert len(enumerate_hyperplanes(5, 2, [(0, 0)])) == 24
    assert len(enumerate_hyperplanes(3, 1)) == 3
    assert len(enumerate_hyperplanes(3, 2)) == 12
    assert len(enumerate_hyperplanes(3, 2, [(0, 0)])) == 8


def test_hyperplanes_of_a_line_are_points():
    singles = enumerate_hyperplanes(3, 1)
    assert all(h.dim == 0 for h in singles)
    assert sorted(h.basepoint for h in singles) == [(0,), (1,), (2,)]


def test_hyperplane_membership():
    for h in enumerate_hyperplanes(5, 2, [(0, 0)]):
        assert not h.contains((0, 0))
        assert sum(1 for z in product(range(5), repeat=2) if h.contains(z)) == 5


def test_subspace_canonical_form():
    a = AffineSubspace.make(5, (1, 2), [(1, 1)])
    b = AffineSubspace.make(5, (2, 3), [(2, 2)])  # same line, other basepoint/basis
    assert a == b


def test_min_cover_single_point():
    count, cover = min_cover_excluding(5, 2, [(1, 1)], [], mode="affine-spans")
    assert count == 1
    assert verify_cover(cover)["passed"]


def test_min_cover_s42_f3_is_three_nonzero_lines():
    points = simplex_minus_origin(3, 4, 2)
    count, cover = min_cover_excluding(3, 2, points, [(0, 0)], mode="hyperplanes-only")
    assert count == 3
    assert verify_cover(cover)["passed"]


def test_min_cover_s62_f5_needs_six_lines():
    points = simplex_minus_origin(5, 6, 2)
    assert len(points) == 18
    assert min_cover_excluding(5, 2, points, [(0, 0)], mode="hyperplanes-only", max_count=5) is None
    count, cover = min_cover_excluding(5, 2, points, [(0, 0)], mode="hyperplanes-only")
    assert count == 6
    assert verify_cover(cover)["passed"]


def test_min_cover_infeasible_hyperplane_mode():
    # over F_2^2, every line through the origin-point hits one of the other points
    result = min_cover_excluding(
        2, 2, [(0, 0)], [(0, 1), (1, 0), (1, 1)], mode="hyperplanes-only"
    )
    assert result is None


def test_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        min_cover_excluding(3, 2, [(1, 1)], [(1, 1)])


def test_verify_cover_mutation():
    points = simplex_minus_origin(3, 4, 2)
    count, cover = min_cover_excluding(3, 2, points, [(0, 0)], mode="hyperplanes-only")
    bad_sub = AffineSubspace.make(3, (0, 0), cover.subspaces[0].directions)
    mutated = AffineCover(
        cover.p, cover.M, (bad_sub,) + cover.subspaces[1:], cover.covered, cover.excluded
    )
    report = verify_cover(mutated)
    assert not report["passed"]
    assert any(f["kind"] == "excluded-point-covered" for f in report["failures"])


def test_hyperplane_extension_property_exhaustive_f3():
    # every affine subspace V and point a outside V extend to a hyperplane
    # containing V and avoiding a
    p = 3
    all_points = list(product(range(p), repeat=2))
    subspaces = [AffineSubspace.make(p, pt, []) for pt in all_points]
    subspaces += enumerate_hyperplanes(p, 2)
    for sub in subspaces:
        for a in all_points:
            if sub.contains(a):
                continue
            pool = enumerate_hyperplanes(p, 2, [a])
            covered = [h for h in pool if all(h.contains(z) for z in all_points if sub.contains(z))]
            assert covered, (sub, a)


def test_modes_agree_with_single_excluded_point():
    rng = random.Random(41)
    for trial in range(24):
        p = 3 if trial % 2 == 0 else 5
        universe = [z for z in product(range(p), repeat=2) if z != (0, 0)]
        size = rng.randint(1, 8)
        points = rng.sample(universe, size)
        by_planes = min_cover_excluding(p, 2, points, [(0, 0)], mode="hyperplanes-only")
        by_spans = min_cover_excluding(p, 2, points, [(0, 0)], mode="affine-spans")
        assert by_planes is not None and by_spans is not None
        assert by_planes[0] == by_spans[0], (p, points)


def test_corollary_slice_reduction_f5_m3():
    # hyperplanes of F_5^3 avoiding the origin restrict on the slice z_3 = 0 to
    # nonzero lines (or nothing), so a 5-hyperplane cover of the 3D simplex
    # would induce a 5-line cover of the 2D one; the solver refutes the latter.
    p = 5
    pool3 = enumerate_hyperplanes(p, 3, [(0, 0, 0)])
    slice_points = [z + (0,) for z in product(range(p), repeat=2)]
    line_pool = {
        (line.basepoint, line.directions) for line in enumerate_hyperplanes(p, 2, [(0, 0)])
    }
    for h in pool3:
        members = [z[:2] for z in slice_points if h.contains(z)]
        if not members:
            continue
        assert (0, 0) not in members
        induced = AffineSubspace.from_points(members, p)
        assert induced.dim <= 1
        if induced.dim == 1:
            assert (induced.basepoint, induced.directions) in line_pool
    assert (
        min_cover_excluding(
            p, 2, simplex_minus_origin(p, 6, 2), [(0, 0)], mode="hyperplanes-only", max_count=5
        )
        is None
    )


def test_exact_set_cover_lexicographic_tie_break():
    candidates = [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}), frozenset({2})]
    picked = exact_set_cover(3, candidates)
    # several 2-part covers exist; the earliest candidate indices win
    assert picked == [0, 1]


def test_exact_set_cover_node_guard():
    candidates = [frozenset({i}) for i in range(12)]
    with pytest.raises(SearchGuardExceeded):
        exact_set_cover(12, candidates, node_guard=5)


def test_set_cover_guard_trip_is_pinned():
    # nodes of the set cover behind the (3,4,2) origin cover, sizes 1 to 3 and
    # the extraction together: `--node-guard` must keep tripping at this node
    points = simplex_minus_origin(3, 4, 2)
    min_cover_excluding(3, 2, points, [(0, 0)], mode="hyperplanes-only", node_guard=53)
    with pytest.raises(SearchGuardExceeded, match="set-cover search passed 52 nodes"):
        min_cover_excluding(3, 2, points, [(0, 0)], mode="hyperplanes-only", node_guard=52)


def reference_set_cover(n_elements, candidates, max_parts=None, node_guard=10**8):
    """`exact_set_cover` as it was on frozensets, kept as an oracle.

    The recursion branches on an uncovered element with the fewest holders,
    the least such element index (the frozenset search took whichever of
    them the set's iteration order gave first).
    """
    universe = frozenset(range(n_elements))
    if not universe:
        return []
    per_element = [[] for _ in range(n_elements)]
    for ci, cand in enumerate(candidates):
        for e in cand:
            per_element[e].append(ci)
    if any(not holders for holders in per_element):
        return None
    n_holders = [len(holders) for holders in per_element]
    cap = len(candidates) if max_parts is None else min(max_parts, len(candidates))
    nodes = 0

    def completable(remaining, budget, floor_index):
        nonlocal nodes
        nodes += 1
        if nodes > node_guard:
            raise SearchGuardExceeded(f"set-cover search passed {node_guard} nodes")
        if not remaining:
            return True
        if budget == 0:
            return False
        e = min(remaining, key=lambda e: (n_holders[e], e))
        for ci in per_element[e]:
            if ci < floor_index:
                continue
            if completable(remaining - candidates[ci], budget - 1, floor_index):
                return True
        return False

    best_size = next((size for size in range(1, cap + 1) if completable(universe, size, 0)), None)
    if best_size is None:
        return None
    chosen = []
    remaining = universe
    floor = 0
    for slot in range(best_size):
        budget_left = best_size - slot - 1
        for ci in range(floor, len(candidates)):
            if not candidates[ci] & remaining:
                continue
            if completable(remaining - candidates[ci], budget_left, ci + 1):
                chosen.append(ci)
                remaining = remaining - candidates[ci]
                floor = ci + 1
                break
        else:
            raise AssertionError("extraction failed after feasibility was established")
        if not remaining:
            break
    return chosen


def search_outcome(search, n_elements, sets, max_parts, guard):
    """The search's cover, or its guard message when `guard` trips."""
    try:
        return search(n_elements, sets, max_parts, guard)
    except SearchGuardExceeded as exc:
        return str(exc)


def assert_searches_agree(n_elements, sets, max_parts=None):
    """`exact_set_cover` and `reference_set_cover` return the same cover and trip
    their node guards at the same node: the least guard that lets the bitmask
    search finish, found by bisection, lets the reference finish with the same
    cover, and one node fewer trips both."""
    def trips(guard):
        return isinstance(search_outcome(exact_set_cover, n_elements, sets, max_parts, guard), str)

    low, high = 0, 1
    while trips(high):
        low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        low, high = (mid + 1, high) if trips(mid) else (low, mid)
    for guard in {max(low - 1, 0), low}:
        expected = search_outcome(reference_set_cover, n_elements, sets, max_parts, guard)
        assert search_outcome(exact_set_cover, n_elements, sets, max_parts, guard) == expected
    return search_outcome(exact_set_cover, n_elements, sets, max_parts, low)


@st.composite
def wide_set_families(draw):
    """Up to 10 elements and 12 sets, with repeated sets and many holder-count ties."""
    n = draw(st.integers(0, 10))
    subset = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(frozenset())
    body = draw(st.lists(subset, max_size=9))
    copies = draw(st.lists(st.sampled_from(body), max_size=3)) if body else []
    order = draw(st.permutations(range(len(body) + len(copies))))
    family = body + copies
    return n, [family[i] for i in order], draw(st.sampled_from([None, 0, 1, 2, 3, 4]))


@settings(max_examples=200, deadline=None)
@given(wide_set_families())
# elements 1 and 8 tie on holders, and the frozenset {1, 8} left once the first
# part is taken iterates 8 first
@example((9, [frozenset({0, 2, 3, 4, 5, 6, 7}), frozenset({1}), frozenset({8}), frozenset({1, 8})], None))
def test_bitmask_set_cover_matches_the_frozenset_oracle(instance):
    n, sets, max_parts = instance
    assert_searches_agree(n, sets, max_parts)


def recorded_pool(p, k, M, mode):
    """The member sets that `min_cover_excluding` hands to the set cover for the
    phi_{k,M} origin cover, and the size of the cover it returns."""
    seen = []

    def recording_cover(n_elements, candidates, *args):
        seen.append(list(candidates))
        return exact_set_cover(n_elements, candidates, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "exact_set_cover", recording_cover)
        count, cover = min_cover_excluding(p, M, simplex_minus_origin(p, k, M), [(0,) * M], mode=mode)
    (pool,) = seen
    return pool, count


@pytest.mark.parametrize("p, k, M, mode", [
    *[(p, k, M, mode) for p, k, M in [(5, 4, 3), (5, 6, 2), (3, 4, 3), (7, 4, 2)]
      for mode in ("affine-spans", "hyperplanes-only")],
    (5, 5, 3, "hyperplanes-only"),
])
def test_phikm_origin_covers_match_the_frozenset_oracle(p, k, M, mode):
    pool, count = recorded_pool(p, k, M, mode)
    n_points = len(simplex_minus_origin(p, k, M))
    picked = assert_searches_agree(n_points, pool)
    assert len(picked) == count
    assert [pool[ci] for ci in picked] == [pool[ci] for ci in reference_set_cover(n_points, pool)]


def first_cover(n_elements, sets, max_parts=None):
    """Brute force: the first covering index tuple of `combinations`, by increasing size."""
    for size in range(len(sets) + 1):
        if max_parts is not None and size > max_parts:
            return None
        for combo in combinations(range(len(sets)), size):
            if set().union(*(sets[i] for i in combo)) >= set(range(n_elements)):
                return list(combo)
    return None


@st.composite
def set_families(draw):
    n = draw(st.integers(0, 5))
    subset = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(frozenset())
    body = draw(st.lists(subset, max_size=6))
    copies = draw(st.lists(st.sampled_from(body), max_size=2)) if body else []
    order = draw(st.permutations(range(len(body) + len(copies))))
    family = body + copies
    return n, [family[i] for i in order], draw(st.sampled_from([None, 0, 1, 2, 3]))


@settings(max_examples=300)
@given(set_families())
def test_exact_set_cover_matches_brute_force(instance):
    n, sets, max_parts = instance
    assert exact_set_cover(n, sets, max_parts) == first_cover(n, sets, max_parts)


def affine_subspaces_of_plane(p):
    """Every affine subspace of F_p^2 as a point set: points, lines and the plane."""
    grid = list(product(range(p), repeat=2))
    lines = {
        frozenset(z for z in grid if (a * z[0] + b * z[1]) % p == c)
        for a, b in grid if (a, b) != (0, 0) for c in range(p)
    }
    return [frozenset([z]) for z in grid] + sorted(lines, key=sorted) + [frozenset(grid)]


def brute_force_count(points, excluded, subspaces, max_count):
    """Fewest of `subspaces` missing `excluded` whose union holds `points`, or None."""
    traces = sorted({s & set(points) for s in subspaces if not s & set(excluded)} - {frozenset()}, key=sorted)
    found = first_cover(len(points), [frozenset(points.index(z) for z in t) for t in traces], max_count)
    return None if found is None else len(found)


@st.composite
def plane_instances(draw):
    p = draw(st.sampled_from([3, 5]))
    grid = list(product(range(p), repeat=2))
    chosen = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=8, unique=True))
    n_points = draw(st.integers(1, min(len(chosen), 6)))
    max_count = draw(st.sampled_from([None, 1, 2, 3]))
    return p, chosen[:n_points], chosen[n_points:], max_count


@settings(max_examples=60)
@given(plane_instances(), st.sampled_from(["hyperplanes-only", "affine-spans"]))
def test_min_cover_matches_brute_force(instance, mode):
    p, points, excluded, max_count = instance
    subspaces = affine_subspaces_of_plane(p)
    if mode == "hyperplanes-only":
        subspaces = [s for s in subspaces if len(s) == p]
    expected = brute_force_count(points, excluded, subspaces, max_count)
    result = min_cover_excluding(p, 2, points, excluded, mode=mode, max_count=max_count)
    if expected is None:
        assert result is None
        return
    count, cover = result
    assert count == expected == len(cover.subspaces)
    assert verify_cover(cover)["passed"]


def oracle_hyperplane_pool(p, M, points, excluded):
    """(member set, hyperplane) pairs by `contains`, in the set cover's candidate order."""
    pairs = ((frozenset(i for i, t in enumerate(points) if h.contains(t)), h)
             for h in enumerate_hyperplanes(p, M, excluded))
    return sorted((pair for pair in pairs if pair[0]), key=lambda pair: sorted(pair[0]))


@st.composite
def hyperplane_instances(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    M = draw(st.integers(1, 3))
    grid = list(product(range(p), repeat=M))
    chosen = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=min(len(grid), 8), unique=True))
    n_points = draw(st.integers(1, min(len(chosen), 6)))
    max_count = draw(st.sampled_from([None, 1, 2]))
    return p, M, chosen[:n_points], chosen[n_points:], max_count


@settings(max_examples=150, deadline=None)
@given(hyperplane_instances())
# (2, 2) kills (1,1)·x = 1, the line through (1, 0) and (0, 1); {(1, 0)} is the
# member set of both (0,1)·x = 0 and (1,2)·x = 1
@example((3, 2, [(1, 0), (0, 1), (1, 1)], [(2, 2)], None))
# the origin kills (0,1)·x = 0 though (1, 0) lies on it; (1,0)·x = 1 and
# (1,1)·x = 1 both hold just (1, 0)
@example((2, 2, [(1, 0)], [(0, 0)], None))
def test_hyperplane_pool_matches_the_contains_oracle(instance):
    p, M, points, excluded, max_count = instance
    expected = oracle_hyperplane_pool(p, M, points, excluded)
    seen = []

    def recording_cover(n_elements, candidates, *args):
        seen.append(list(candidates))
        return exact_set_cover(n_elements, candidates, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "exact_set_cover", recording_cover)
        result = min_cover_excluding(p, M, points, excluded, mode="hyperplanes-only", max_count=max_count)
    oracle_sets = [members for members, _ in expected]
    assert seen == [oracle_sets]
    picked = exact_set_cover(len(points), oracle_sets, max_count)
    if picked is None:
        assert result is None
        return
    oracle = AffineCover(p, M, tuple(expected[ci][1] for ci in picked), tuple(points), tuple(excluded))
    count, cover = result
    assert count == len(picked)
    assert cover.to_json() == oracle.to_json()
    assert verify_cover(cover)["passed"]


def test_hyperplane_mode_needs_a_dimension():
    with pytest.raises(ValueError, match="ambient dimension must be >= 1"):
        min_cover_excluding(3, 0, [()], [], mode="hyperplanes-only")


def test_hyperplane_pool_is_refused_past_the_product_guard(monkeypatch):
    """normals × (points + excluded) may reach the guard but not pass it, and the refusal names both sizes."""
    points, excluded = [(1, 0), (0, 1), (1, 1)], [(0, 0)]  # 4 normals in F_3^2, 4 points in all
    monkeypatch.setattr(covering, "HYPERPLANE_PRODUCT_GUARD", 16)
    assert min_cover_excluding(3, 2, points, excluded, mode="hyperplanes-only")[0] == 2
    monkeypatch.setattr(covering, "HYPERPLANE_PRODUCT_GUARD", 15)
    with pytest.raises(ValueError, match="4 hyperplane normals times 4 points"):
        min_cover_excluding(3, 2, points, excluded, mode="hyperplanes-only")
