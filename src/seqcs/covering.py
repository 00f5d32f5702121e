"""Exact covering of point sets in F_p^M by affine subspaces avoiding excluded points.

Candidate pools are finite and complete: either all affine hyperplanes that
miss the excluded points, or the affine spans of subsets of the target set.
Index sets have one format here, from `closure_walk` to `exact_set_cover`:
an int bitmask whose set bits are point or form indices.  Both pools are
such masks, and only the parts a cover picks are built as `AffineSubspace`s;
membership by reduction (`contains`) is left to the checker `verify_cover`.  A hyperplane is normal·x = c, so its
members come from one dot product per point and canonical normal; past
HYPERPLANE_NORMAL_GUARD normals, or HYPERPLANE_PRODUCT_GUARD dot products
over the points and excluded points, the hyperplane pool is refused.
The spans come from `closure_walk`, the one closure-lattice walk of the
package: it enumerates every distinct span without walking all subsets.  It
takes one ground set of vectors and the indices of the excluded ones, and
lists each node with its children as int bitmasks of indices.
`closure_pool` keeps its childless nodes, the maximal admissible closures;
it serves affine spans, which are linear spans of the points lifted to
(1, s): `min_cover_excluding` lifts the points and the excluded points
together, the excluded ones as the tail, and makes one query per cover.
`seqcs.complexity` walks a system's forms once with nothing excluded, which
gives every flat, and filters that lattice for each excluded prefix.  Each
queued closure of the walk carries the residual key of every vector outside
it, the vector reduced modulo the closure's span and scaled to a leading 1;
one group of equal keys is one child span, and a group that holds an
excluded index is inadmissible.  A child's keys come from its parent's by
one elimination step each, so no node reduces against a basis.  Zero
vectors lie in every span, so the walk seeds them into every closure.
Minimum covers are exact: one branch-and-bound recursion over the set bits
of a universe mask tries cover sizes upward, and the first size that succeeds is extracted with
the same recursion.  A node guard, counting nodes at every size tried,
aborts instead of returning an unproven answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .field import Prime, SpanBasis, Vector, is_prime, span_basis, vec, vec_sub
from .systems import InputValidationError, is_integer

NODE_GUARD = 10**8
HYPERPLANE_NORMAL_GUARD = 10**5
HYPERPLANE_PRODUCT_GUARD = 10**7  # about 14 s at 1.4 µs per dot product (2-core Xeon VM)


class SearchGuardExceeded(RuntimeError):
    """The exact search exceeded its node budget; the result is unknown, not infeasible."""


@dataclass(frozen=True)
class AffineSubspace:
    """basepoint + span(directions) in canonical form.

    Directions are the RREF basis of the direction space and the basepoint
    has zero coordinates at the pivot columns, so equal subspaces compare
    equal as dataclasses.  `basis` holds the same rows as a SpanBasis, so a
    membership test is one reduction; build instances with the constructors.
    """

    p: int
    ambient_dim: int
    basepoint: Vector
    directions: tuple[Vector, ...]
    basis: SpanBasis = field(compare=False, repr=False)

    @staticmethod
    def make(p: int, basepoint, directions) -> "AffineSubspace":
        basis = span_basis(directions, p, len(basepoint))
        return AffineSubspace(p, basis.dim, basis.reduce(vec(basepoint, p)), basis.rows, basis)

    @staticmethod
    def from_points(points, p: int) -> "AffineSubspace":
        """Affine span of a nonempty point set."""
        base = points[0]
        dirs = [vec_sub(q, base, p) for q in points[1:]]
        return AffineSubspace.make(p, base, dirs)

    @staticmethod
    def from_hyperplane(normal, const: int, p: int) -> "AffineSubspace":
        """Solution set of normal·x = const as a subspace object.

        Needs no elimination: with L the last column where the normal n is
        nonzero, the rows e_t - (n_t / n_L)·e_L for t != L are the RREF basis
        of its kernel, and (const / n_L)·e_L is zero at every pivot.
        """
        n = vec(normal, p)
        last = max((j for j, x in enumerate(n) if x), default=None)
        if last is None:
            raise ValueError("zero form cannot be normalized")
        inv = pow(n[last], -1, p)
        dim = len(n)
        pivots = tuple(t for t in range(dim) if t != last)
        rows = tuple(
            tuple(1 if j == t else (-n[t] * inv % p if j == last else 0) for j in range(dim)) for t in pivots
        )
        base = tuple(const * inv % p if j == last else 0 for j in range(dim))
        return AffineSubspace(p, dim, base, rows, SpanBasis(p, dim, rows, pivots))

    @property
    def dim(self) -> int:
        return len(self.directions)

    def contains(self, point) -> bool:
        # the basepoint is reduced, so point - basepoint is a direction iff they reduce alike
        return self.basis.reduce(vec(point, self.p)) == self.basepoint

    def to_json(self) -> dict:
        return {"basepoint": list(self.basepoint), "directions": [list(d) for d in self.directions]}


@dataclass(frozen=True)
class AffineCover:
    p: int
    M: int
    subspaces: tuple[AffineSubspace, ...]
    covered: tuple[Vector, ...]
    excluded: tuple[Vector, ...]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "M": self.M,
            "subspaces": [s.to_json() for s in self.subspaces],
            "covered": [list(t) for t in self.covered],
            "excluded": [list(a) for a in self.excluded],
        }


def hyperplane_normals(p: int, M: int):
    """Canonical normal vectors: first nonzero entry 1, lexicographic order.

    Raises ValueError, naming M, before the first one when F_p^M has more
    than HYPERPLANE_NORMAL_GUARD of them, (p^M - 1)/(p - 1).
    """
    count = 0
    for _ in range(M):  # count = 1 + p + ... + p^(t-1) after t rounds; stops early past the guard
        count = count * p + 1
        if count > HYPERPLANE_NORMAL_GUARD:
            raise ValueError(
                f"M={M}: F_{p}^{M} has more than {HYPERPLANE_NORMAL_GUARD} hyperplane normals"
            )
    for v in product(range(p), repeat=M):
        piv = next((j for j, c in enumerate(v) if c), None)
        if piv is not None and v[piv] == 1:
            yield v


def exact_set_cover(
    universe: int,
    candidates: list[int],
    max_parts: int | None = None,
    node_guard: int = NODE_GUARD,
) -> list[int] | None:
    """Minimum cover of the set bits of `universe` by candidate bitmasks; exact and deterministic.

    Elements are indices, held as the set bits of an int; each candidate is
    such a bitmask too, and its bits outside `universe` are ignored.  Returns
    candidate indices of a minimum cover (lexicographically least by
    candidate index among all minimum covers), or None when no cover of size
    <= max_parts exists.  Sizes 1, 2, ... are tried in turn by one recursion,
    which branches on the uncovered element with the fewest holders, the
    least element index among those; the first size that succeeds is the
    minimum, and the same recursion then picks the least candidate for each
    slot.  The elements are relabelled once so that bit b is the element of
    rank b by (holder count, index), which makes the branching element the
    lowest set bit of the uncovered mask.  The node budget counts the nodes
    of every size tried and of the extraction; past it, SearchGuardExceeded
    is raised.
    """
    per_element: dict[int, list[int]] = {e: [] for e in mask_indices(universe)}
    if not per_element:
        return []
    for ci, cand in enumerate(candidates):
        for e in mask_indices(cand & universe):
            per_element[e].append(ci)
    if any(not holders for holders in per_element.values()):
        return None
    order = sorted(per_element, key=lambda e: len(per_element[e]))  # stable: ties by index
    masks = [0] * len(candidates)
    for b, e in enumerate(order):
        for ci in per_element[e]:
            masks[ci] |= 1 << b
    holders = [per_element[e] for e in order]
    full = (1 << len(order)) - 1
    cap = len(candidates) if max_parts is None else min(max_parts, len(candidates))
    nodes = 0

    def completable(remaining: int, budget: int, floor_index: int) -> bool:
        """Whether <= budget candidates of index >= floor_index cover `remaining`."""
        nonlocal nodes
        nodes += 1
        if nodes > node_guard:
            raise SearchGuardExceeded(f"set-cover search passed {node_guard} nodes")
        if not remaining:
            return True
        if budget == 0:
            return False
        branch = holders[(remaining & -remaining).bit_length() - 1]
        if budget == 1:
            # each child is a leaf node: it succeeds exactly when the candidate covers the rest
            for ci in branch:
                if ci < floor_index:
                    continue
                nodes += 1
                if nodes > node_guard:
                    raise SearchGuardExceeded(f"set-cover search passed {node_guard} nodes")
                if not remaining & ~masks[ci]:
                    return True
            return False
        for ci in branch:
            if ci < floor_index:
                continue
            if completable(remaining & ~masks[ci], budget - 1, floor_index):
                return True
        return False

    best_size = next((size for size in range(1, cap + 1) if completable(full, size, 0)), None)
    if best_size is None:
        return None

    chosen: list[int] = []
    remaining = full
    floor = 0
    for slot in range(best_size):
        budget_left = best_size - slot - 1
        for ci in range(floor, len(candidates)):
            if not masks[ci] & remaining:
                continue
            if completable(remaining & ~masks[ci], budget_left, ci + 1):
                chosen.append(ci)
                remaining &= ~masks[ci]
                floor = ci + 1
                break
        else:
            raise AssertionError("extraction failed after feasibility was established")
        if not remaining:
            break
    return chosen


def mask_indices(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, ascending: an index set stored as an int bitmask."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def closure_walk(vectors, excluded, p: int, node_guard: int = NODE_GUARD):
    """Every node of the closure-lattice walk, in visit order, as (closure, children).

    `excluded` is a set of indices into `vectors`.  The closure of a span is
    the set of indices whose vector lies in it, held as an int bitmask; the
    span is admissible when it holds no excluded vector.  The walk visits
    each admissible closure once and lists its admissible children (the
    closures one vector larger), also as bitmasks.  Every span of a subset
    shows up as the closure of some chain of single-vector extensions, so
    the walk reaches every admissible closure while visiting only distinct
    ones; with nothing excluded its nodes are all the flats of the matroid
    that the vectors represent.

    A queued closure cl carries the residual key of each vector v outside
    it, excluded vectors included: v reduced modulo span(cl) to the part off
    the span's pivot columns, scaled so its first nonzero entry is 1.  Two
    vectors outside cl share a key exactly when they span the same child,
    so a node's children are its groups of equal keys, taken in order of
    their first index, and a child is inadmissible exactly when its group
    holds an excluded index.  A new child found through a key k, whose
    leading 1 is at column c, gets each remaining key r as r - r[c]·k,
    rescaled: that is r reduced modulo the child's span, with c its new
    pivot column.  Keys are built once, when a closure is first queued, and
    dropped when it is visited.  Zero vectors lie in every span, so every
    closure holds them; the seeds are the groups of the vectors themselves,
    with the zero-only closure placed at its first zero index.  The empty
    closure is never a node.

    Entries may be any integers: they are reduced mod p once, here.  Returns
    None when an excluded vector is zero, hence inside every span.  Raises
    SearchGuardExceeded past `node_guard` visits.
    """
    vectors = [vec(v, p) for v in vectors]
    banned = 0
    for t in excluded:
        if not any(vectors[t]):
            return None
        banned |= 1 << t

    def scaled(r: Vector) -> Vector:
        """r scaled so its first nonzero entry is 1; r is nonzero."""
        lead = next(x for x in r if x)
        if lead == 1:
            return r
        inv = pow(lead, -1, p)
        return tuple(x * inv % p for x in r)

    def children(keys: list[tuple[int, Vector]]) -> list[tuple[int, Vector]]:
        """(group, key) of each admissible child, in order of first index; the
        child's closure is the parent's joined with the group."""
        groups: dict[Vector, int] = {}
        for j, key in keys:
            groups[key] = groups.get(key, 0) | 1 << j
        return [(g, key) for key, g in groups.items() if not g & banned]

    seen: set[int] = set()
    pending: dict[int, list[tuple[int, Vector]]] = {}
    queue: list[int] = []

    def push(cl: int, keys: list[tuple[int, Vector]], kids: list[tuple[int, Vector | None]]) -> None:
        for g, k in kids:
            ncl = cl | g
            if ncl in seen:
                continue
            seen.add(ncl)
            queue.append(ncl)
            if k is None:  # the zero-only closure: its span is still {0}
                pending[ncl] = keys
                continue
            c = k.index(1)
            child = []
            for j, r in keys:
                if not g >> j & 1:
                    a = r[c]
                    child.append((j, scaled(tuple((x - a * y) % p for x, y in zip(r, k))) if a else r))
            pending[ncl] = child

    zeros = sum(1 << j for j, v in enumerate(vectors) if not any(v))
    keys = [(j, scaled(v)) for j, v in enumerate(vectors) if not zeros >> j & 1]
    seeds = children(keys) + ([(zeros, None)] if zeros else [])
    push(zeros, keys, sorted(seeds, key=lambda kid: kid[0] & -kid[0]))  # by lowest index
    nodes: list[tuple[int, list[int]]] = []
    while queue:
        cl = queue.pop()
        if len(nodes) >= node_guard:
            raise SearchGuardExceeded(
                f"closure-lattice walk passed {node_guard} nodes ({len(seen)} closures found)"
            )
        keys = pending.pop(cl)
        kids = children(keys)
        push(cl, keys, kids)
        nodes.append((cl, [cl | g for g, _ in kids]))
    return nodes


def closure_pool(vectors, excluded, p: int, node_guard: int = NODE_GUARD):
    """Maximal admissible closures of `vectors`, as int bitmasks sorted by `mask_indices`.

    The childless nodes of `closure_walk(vectors, excluded, ...)`: `excluded`
    is a set of indices into `vectors`, and no returned closure holds one.
    Returns None when an excluded vector is zero; raises SearchGuardExceeded
    past `node_guard` visits.
    """
    nodes = closure_walk(vectors, excluded, p, node_guard)
    if nodes is None:
        return None
    return sorted((cl for cl, kids in nodes if not kids), key=mask_indices)


def point_set_from_json(raw) -> tuple[Prime, int, list[Vector], list[Vector]]:
    """(p, M, points, excluded) from a point-set description, collecting all violations.

    Coordinates may be arbitrary integers; they are reduced mod p on load.
    """
    if not isinstance(raw, dict):
        raise InputValidationError(["point set is not a JSON object"])
    violations: list[str] = []
    p, M = raw.get("p"), raw.get("M")
    if not is_integer(p):
        violations.append("modulus missing or not an integer")
    elif not is_prime(p):
        violations.append(f"modulus not prime: {p}")
    if not is_integer(M) or M < 1:
        violations.append("M missing or not a positive integer")
        M = None
    lists = {"points": raw.get("points"), "excluded": raw.get("excluded", [])}
    for key, pts in lists.items():
        if not isinstance(pts, list):
            violations.append(f"{key} missing or not a list")
            continue
        for n, t in enumerate(pts):
            if not isinstance(t, list) or not all(is_integer(x) for x in t):
                violations.append(f"{key}[{n}] is not a list of integers")
            elif M is not None and len(t) != M:
                violations.append(f"{key}[{n}] has {len(t)} coordinates, not M={M}")
    if violations:
        raise InputValidationError(violations)
    prime = Prime(p)
    points = [vec(t, prime) for t in lists["points"]]
    excluded = [vec(t, prime) for t in lists["excluded"]]
    return prime, M, points, excluded


def min_cover_excluding(
    p: int,
    M: int,
    points,
    excluded,
    mode: str = "affine-spans",
    max_count: int | None = None,
    node_guard: int = NODE_GUARD,
) -> tuple[int, AffineCover] | None:
    """Exact minimum cover of `points` by affine subspaces missing every excluded point.

    mode "hyperplanes-only" draws candidates from the hyperplanes
    normal·x = c, mode "affine-spans" from affine spans of subsets of
    `points`.  Candidates stay member sets until the set cover picks them;
    only the picked ones become subspaces.  Returns (count, cover) or None
    when no finite cover exists.
    """
    if max_count is not None and max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")
    prime = Prime(p)
    pts = [vec(t, prime) for t in points]
    exc = [vec(a, prime) for a in excluded]
    overlap = set(pts) & set(exc)
    if overlap:
        raise ValueError(f"points and excluded overlap: {sorted(overlap)}")
    if not pts:
        cover = AffineCover(prime, M, (), (), tuple(exc))
        return 0, cover
    if mode == "hyperplanes-only":
        if M < 1:
            raise ValueError("ambient dimension must be >= 1")
        # normal·x = c is a candidate when some point and no excluded point has the value c
        normals = list(hyperplane_normals(prime, M))
        products = len(normals) * (len(pts) + len(exc))
        if products > HYPERPLANE_PRODUCT_GUARD:
            raise ValueError(
                f"{len(normals)} hyperplane normals times {len(pts) + len(exc)} points and excluded points"
                f" need {products} dot products, above the guard {HYPERPLANE_PRODUCT_GUARD}"
            )
        planes: list[tuple[int, Vector, int]] = []
        for normal in normals:
            values = [sum(n * x for n, x in zip(normal, t)) % prime for t in pts]
            missed = set(values).difference(sum(n * x for n, x in zip(normal, a)) % prime for a in exc)
            for const in sorted(missed):
                planes.append((sum(1 << i for i, v in enumerate(values) if v == const), normal, const))
        planes.sort(key=lambda plane: mask_indices(plane[0]))
        member_sets = [members for members, _, _ in planes]

        def subspace(ci: int) -> AffineSubspace:
            _, normal, const = planes[ci]
            return AffineSubspace.from_hyperplane(normal, const, prime)
    elif mode == "affine-spans":
        # affine spans are linear spans of the points lifted to (1, s)
        lifted = [(1,) + t for t in pts + exc]
        member_sets = closure_pool(lifted, range(len(pts), len(lifted)), prime, node_guard)

        def subspace(ci: int) -> AffineSubspace:
            return AffineSubspace.from_points([pts[i] for i in mask_indices(member_sets[ci])], prime)
    else:
        raise ValueError(f"unknown mode: {mode}")
    picked = exact_set_cover((1 << len(pts)) - 1, member_sets, max_count, node_guard)
    if picked is None:
        return None
    cover = AffineCover(prime, M, tuple(subspace(ci) for ci in picked), tuple(pts), tuple(exc))
    return len(picked), cover


def verify_cover(cover: AffineCover) -> dict:
    """Re-check both cover invariants by membership tests; lists every violation."""
    failures = []
    for t in cover.covered:
        if not any(s.contains(t) for s in cover.subspaces):
            failures.append({"kind": "uncovered", "point": list(t)})
    for a in cover.excluded:
        for si, s in enumerate(cover.subspaces):
            if s.contains(a):
                failures.append({"kind": "excluded-point-covered", "point": list(a), "subspace": si})
    return {"passed": not failures, "failures": failures}
