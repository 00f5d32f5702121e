"""Cover-based complexity of linear-form systems, with machine-checkable certificates.

A cover certificate splits the forms outside a target prefix into parts whose
linear spans avoid every prefix form.  A witness certificate chains such
covers along an ordered sequence of forms.  Searches are exact: candidate
parts are the maximal admissible closures (a part can always be grown to the
full intersection of its span with the allowed forms, so restricting to
maximal closures loses no covers), and the set-cover step is branch and bound.
The closures are flats of the matroid the forms represent.  `flat_lattice`
enumerates them once per system with `covering.closure_walk`, nothing
excluded, and memoises them on the frozen `LinearSystem` as bitmasks with the
bitmasks of their children.  A query depends on its excluded forms alone,
one form in `complexity_report` and one prefix in `sequential_witness`:
`admissible_flats` filters the lattice for it, and `exact_set_cover` covers
the forms outside it, all as int bitmasks of form indices; only the parts a
cover picks become index tuples.  The same walk yields the affine-span pools
of `seqcs.covering` from lifted points, one walk per query there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .covering import NODE_GUARD, SearchGuardExceeded, closure_walk, exact_set_cover, mask_indices
from .field import SpanBasis, rank, span_basis, vec
from .systems import InputValidationError, LinearSystem, is_integer, read_json

TENSOR_ENTRY_GUARD = 10**7


@dataclass(frozen=True)
class CoverCertificate:
    targets: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {"targets": list(self.targets), "parts": [list(c) for c in self.parts]}


@dataclass(frozen=True)
class WitnessCertificate:
    system_hash: str
    i: int
    k: int
    sequence: tuple[int, ...]
    covers: tuple[CoverCertificate, ...]

    @property
    def length(self) -> int:
        return len(self.sequence)

    def to_json(self) -> dict:
        return {
            "system_hash": self.system_hash,
            "i": self.i,
            "k": self.k,
            "sequence": list(self.sequence),
            "covers": [c.to_json() for c in self.covers],
        }

    @staticmethod
    def from_json(raw) -> "WitnessCertificate":
        """Certificate from its JSON form, collecting every structural violation.

        Index ranges are left to `verify_witness`: an out-of-range index is a
        failed certificate, not a malformed file.
        """
        if not isinstance(raw, dict):
            raise InputValidationError(["certificate is not a JSON object"])
        violations: list[str] = []
        if not isinstance(raw.get("system_hash"), str):
            violations.append("system_hash missing or not a string")
        for key in ("i", "k"):
            if not is_integer(raw.get(key)):
                violations.append(f"{key} missing or not an integer")

        def index_list(val, where: str) -> None:
            if not isinstance(val, list) or not all(is_integer(x) for x in val):
                violations.append(f"{where} missing or not a list of integers")

        index_list(raw.get("sequence"), "sequence")
        covers = raw.get("covers")
        if not isinstance(covers, list):
            violations.append("covers missing or not a list")
            covers = []
        for n, c in enumerate(covers):
            if not isinstance(c, dict):
                violations.append(f"covers[{n}] is not an object")
                continue
            index_list(c.get("targets"), f"covers[{n}].targets")
            parts = c.get("parts")
            if not isinstance(parts, list):
                violations.append(f"covers[{n}].parts missing or not a list")
                continue
            for t, part in enumerate(parts):
                index_list(part, f"covers[{n}].parts[{t}]")
        if violations:
            raise InputValidationError(violations)
        seq = tuple(raw["sequence"])
        covers = tuple(CoverCertificate(tuple(c["targets"]), tuple(tuple(x) for x in c["parts"])) for c in covers)
        return WitnessCertificate(raw["system_hash"], raw["i"], raw["k"], seq, covers)

    @staticmethod
    def load(path: str) -> "WitnessCertificate":
        return read_json(path, WitnessCertificate.from_json)


def flat_lattice(system: LinearSystem, node_guard: int = NODE_GUARD):
    """Every flat of the system's forms as (mask, child masks), sorted by `mask_indices`.

    The nodes of one `closure_walk` of the forms with nothing excluded: each
    flat's index set as an int bitmask, and the bitmasks of its children.
    Memoised on the instance, which is frozen, as `LinearSystem.digest` is.
    A memo of more flats than `node_guard` is walked again, so the guard
    trips, with the same message, whether or not the lattice is already
    known.
    """
    flats = system._flats
    if flats is None or len(flats) > node_guard:
        nodes = closure_walk(system.forms, (), system.p, node_guard)
        flats = tuple(sorted(((cl, tuple(kids)) for cl, kids in nodes), key=lambda flat: mask_indices(flat[0])))
        object.__setattr__(system, "_flats", flats)
    return flats


def admissible_flats(system: LinearSystem, excluded, node_guard: int = NODE_GUARD):
    """Maximal flats of the forms that miss every excluded form, as int bitmasks
    sorted by `mask_indices`.

    `excluded` holds form indices.  One bitmask filter over `flat_lattice`:
    a flat F is kept when it misses the excluded set E and each of its
    children meets E.  A flat misses E exactly when its span holds no
    excluded form, and it is maximal among those exactly when no child
    misses E, so this is `closure_pool(system.forms, excluded, ...)` without
    a walk per query.  Returns None when an excluded form is zero, hence
    inside every span.
    """
    if any(not any(x % system.p for x in system.forms[t]) for t in excluded):
        return None
    banned = sum(1 << t for t in set(excluded))
    return [
        mask
        for mask, kids in flat_lattice(system, node_guard)
        if not mask & banned and all(kid & banned for kid in kids)
    ]


def admissible_cover(
    system: LinearSystem,
    excluded,
    max_parts: int | None,
    node_guard: int = NODE_GUARD,
) -> CoverCertificate | None:
    """Cover of the forms outside `excluded` by <= max_parts admissible parts, or None.

    Exact: None is returned only when no such cover exists.  Deterministic:
    the lexicographically least minimum-size cover under the sorted part order.
    With max_parts None the size is unbounded.  The parts are the bitmasks of
    `admissible_flats`; only the picked ones become index tuples.
    """
    targets = tuple(excluded)
    universe = ((1 << system.r) - 1) & ~sum(1 << t for t in set(targets))
    if not universe:
        return CoverCertificate(targets, ())
    pool = admissible_flats(system, targets, node_guard)
    if pool is None:
        return None
    picked = exact_set_cover(universe, pool, max_parts, node_guard)
    if picked is None:
        return None
    parts = tuple(mask_indices(pool[ci]) for ci in picked)
    return CoverCertificate(targets, parts)


def cs_complexity_at(
    system: LinearSystem, i: int, node_guard: int = NODE_GUARD
) -> tuple[int | None, CoverCertificate | None]:
    """Least k admitting a (k+1)-part admissible cover of the other forms at i:
    max(parts - 1, 0) of a minimum cover, with that cover.

    Returns (None, None) when no finite value exists (for instance when some
    other form is a scalar multiple of form i, so every part holding it is
    inadmissible).
    """
    cert = admissible_cover(system, (i,), None, node_guard)
    return (None, None) if cert is None else (max(len(cert.parts) - 1, 0), cert)


def sequential_witness(
    system: LinearSystem,
    i: int,
    k: int,
    max_len: int,
    node_guard: int = NODE_GUARD,
) -> WitnessCertificate | None:
    """Shortest witness sequence of distinct forms ending at i, each prefix
    admitting a (k+1)-part admissible cover; None when none exists with
    length <= max_len.

    Complete over sequences of distinct indices (repeating a form never
    helps: only the prefix set matters).  Deterministic: iterative deepening
    with depth-first search in ascending index order.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    r = system.r
    cache: dict[int, tuple[tuple[int, ...], ...] | None] = {}  # by the prefix's set of forms, as a bitmask

    def prefix_parts(prefix: tuple[int, ...]):
        key = sum(1 << j for j in prefix)
        if key not in cache:
            cert = admissible_cover(system, prefix, k + 1, node_guard)
            cache[key] = cert.parts if cert is not None else None
        return cache[key]

    def dfs(prefix: list[int], ell: int):
        depth = len(prefix)
        if depth == ell:
            return list(prefix)
        candidates = (i,) if depth == ell - 1 else tuple(
            j for j in range(r) if j != i and j not in prefix
        )
        for j in candidates:
            prefix.append(j)
            if prefix_parts(tuple(prefix)) is not None:
                found = dfs(prefix, ell)
                if found is not None:
                    return found
            prefix.pop()
        return None

    for ell in range(1, min(max_len, r) + 1):  # distinct forms: no sequence is longer than r
        seq = dfs([], ell)
        if seq is not None:
            covers = tuple(CoverCertificate(tuple(seq[:j]), prefix_parts(tuple(seq[:j]))) for j in range(1, ell + 1))
            return WitnessCertificate(system.digest(), i, k, tuple(seq), covers)
    return None


@dataclass
class WitnessReport:
    passed: bool
    failures: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"passed": self.passed, "failures": self.failures}


def verify_witness(system: LinearSystem, cert: WitnessCertificate) -> WitnessReport:
    """Re-check every certificate invariant by span membership tests.

    A part's basis is built once per call and shared by every cover that
    repeats the part (as the same set of indices); nothing outlives the call.
    """
    failures: list[dict] = []
    bases: dict[frozenset[int], SpanBasis] = {}
    r = system.r
    if cert.system_hash and cert.system_hash != system.digest():
        failures.append({"kind": "system-hash-mismatch"})
    seq = cert.sequence
    if not seq:
        failures.append({"kind": "empty-sequence"})
        return WitnessReport(False, failures)
    if any(j < 0 or j >= r for j in seq):
        failures.append({"kind": "index-out-of-range", "sequence": list(seq)})
        return WitnessReport(False, failures)
    if len(set(seq)) != len(seq):
        failures.append({"kind": "repeated-form-in-sequence"})
    if seq[-1] != cert.i:
        failures.append({"kind": "sequence-does-not-end-at-target", "i": cert.i})
    if len(cert.covers) != len(seq):
        failures.append({"kind": "cover-count-mismatch", "covers": len(cert.covers)})
        return WitnessReport(False, failures)
    reduced = {j: vec(system.forms[j], system.p) for j in seq}  # reduced once, not per part
    for j in range(1, len(seq) + 1):
        cover = cert.covers[j - 1]
        prefix = seq[:j]
        if tuple(cover.targets) != prefix:
            failures.append({"kind": "target-mismatch", "prefix": j})
            continue
        if len(cover.parts) > cert.k + 1:
            failures.append({"kind": "too-many-parts", "prefix": j, "parts": len(cover.parts)})
        uncovered = set(range(r)) - set(prefix)
        for part in cover.parts:
            uncovered -= set(part)
        for missing in sorted(uncovered):
            failures.append({"kind": "uncovered-form", "prefix": j, "form": missing})
        for t, part in enumerate(cover.parts):
            if any(x < 0 or x >= r for x in part):
                failures.append({"kind": "part-index-out-of-range", "prefix": j, "part": t})
                continue
            key = frozenset(part)
            basis = bases.get(key)
            if basis is None:
                basis = bases[key] = span_basis([system.forms[x] for x in key], system.p, system.d)
            for target in prefix:
                if not any(basis.reduce(reduced[target])):
                    failures.append(
                        {"kind": "span-contains-target", "prefix": j, "part": t, "target": target}
                    )
    return WitnessReport(not failures, failures)


@dataclass(frozen=True)
class TensorCriterionResult:
    value: int | None
    reason: str
    ranks: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"value": self.value, "reason": self.reason, "ranks": [list(kv) for kv in self.ranks]}


def tensor_criterion(system: LinearSystem, k_max: int) -> TensorCriterionResult:
    """Least k <= k_max making the (k+1)-fold tensor powers of the forms
    linearly independent; duplicates or zero forms can never become independent.

    The columns of f^{⊗m} whose multi-indices are the same multiset are
    equal, so the rank is taken over one column per multiset: the distinct
    monomials f^α, unweighted (multinomial weights vanish mod p once m >= p).
    Each level's monomials are the previous level's times one variable at
    least their largest, reduced mod p at every product.  The entry guard
    counts the monomial entries made, r·C(d+k, k+1) at level k, summed over
    the levels.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    forms, p, d = system.forms, system.p, system.d
    if len(set(forms)) != len(forms):
        return TensorCriterionResult(None, "never independent (duplicate forms)", ())
    if any(not any(f) for f in forms):
        return TensorCriterionResult(None, "never independent (zero form)", ())
    ranks: list[tuple[int, int]] = []
    rows = [tuple(x % p for x in f) for f in forms]  # the degree-1 monomials
    tops = range(d)  # the largest variable of each monomial, in combinations_with_replacement order
    made = 0
    for k in range(k_max + 1):
        made += system.r * comb(d + k, k + 1)
        if made > TENSOR_ENTRY_GUARD:
            raise SearchGuardExceeded(f"tensor powers at k={k} exceed the entry budget")
        if k:
            rows = [tuple(v * f[j] % p for v, top in zip(row, tops) for j in range(top, d))
                    for f, row in zip(forms, rows)]
            tops = [j for top in tops for j in range(top, d)]
        rk = rank(rows, p)
        ranks.append((k, rk))
        if rk == system.r:
            return TensorCriterionResult(k, "independent", tuple(ranks))
    return TensorCriterionResult(None, f"none <= {k_max}", tuple(ranks))


@dataclass
class ComplexityReport:
    per_index: list[tuple[int | None, CoverCertificate | None]]
    s_cs: int | None
    tensor: TensorCriterionResult

    def to_json(self) -> dict:
        return {
            "per_index": [
                {"i": i, "s_cs": s, "certificate": c.to_json() if c else None}
                for i, (s, c) in enumerate(self.per_index)
            ],
            "s_cs": self.s_cs,
            "tensor_criterion": self.tensor.to_json(),
        }


def complexity_report(system: LinearSystem, k_max: int = 6, node_guard: int = NODE_GUARD) -> ComplexityReport:
    per_index = [cs_complexity_at(system, i, node_guard) for i in range(system.r)]
    values = [s for s, _ in per_index]
    s_cs = None if any(v is None for v in values) else max(values)
    return ComplexityReport(per_index, s_cs, tensor_criterion(system, k_max))
