"""Linear-form systems over F_p: validation, translation invariance, point sets.

A system is an ordered list of r linear forms in d variables, stored as the
rows of an r×d matrix over F_p.  Forms are ordered because certificates refer
to form indices; duplicate and zero forms are allowed but flagged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product

from .field import (
    Matrix,
    Prime,
    Vector,
    is_prime,
    mat_mul,
    rank,
    solve_right,
    span_basis,
    vec,
)


class InputValidationError(ValueError):
    """Raised on malformed input files; carries one message per violation."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class SystemValidationError(InputValidationError):
    """Raised on malformed system descriptions."""


def is_integer(x) -> bool:
    """Whether a JSON value is an integer (booleans excluded)."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class LinearSystem:
    p: Prime
    forms: tuple[Vector, ...]
    labels: tuple[str, ...] | None = None

    @property
    def r(self) -> int:
        return len(self.forms)

    @property
    def d(self) -> int:
        return len(self.forms[0])

    def canonical_json(self) -> str:
        """Canonical serialization used for hashing; labels excluded."""
        return json.dumps(
            {"forms": [list(f) for f in self.forms], "p": int(self.p)},
            sort_keys=True,
            separators=(",", ":"),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def to_json(self) -> dict:
        out = {"p": int(self.p), "forms": [list(f) for f in self.forms]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out


@dataclass(frozen=True)
class AssociatedSet:
    """Points of F_p^M read off a normalized translation-invariant system.

    points[i] is the restriction of normalized form i to the columns after
    the leading all-ones column, so indices agree with form indices.
    """

    p: Prime
    M: int
    points: tuple[Vector, ...]


def validate(raw: dict) -> LinearSystem:
    """Build a LinearSystem from a raw description, collecting all violations.

    Entries may be arbitrary integers; they are reduced mod p on load.
    """
    if not isinstance(raw, dict):
        raise SystemValidationError(["system is not a JSON object"])
    violations: list[str] = []
    p_raw = raw.get("p")
    if not is_integer(p_raw):
        violations.append("modulus missing or not an integer")
    elif not is_prime(p_raw):
        violations.append(f"modulus not prime: {p_raw}")
    forms_raw = raw.get("forms")
    if not isinstance(forms_raw, list) or not forms_raw:
        violations.append("forms missing or empty")
        forms_raw = []
    width = None
    for i, row in enumerate(forms_raw):
        if not isinstance(row, list) or not row:
            violations.append(f"form {i} is not a nonempty list")
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            violations.append(f"ragged row {i}: length {len(row)} != {width}")
        for j, e in enumerate(row):
            if not is_integer(e):
                violations.append(f"entry ({i},{j}) is not an integer")
    labels_raw = raw.get("labels")
    if labels_raw is not None:
        if not isinstance(labels_raw, list) or not all(isinstance(s, str) for s in labels_raw):
            violations.append("labels must be a list of strings")
        elif len(labels_raw) != len(forms_raw):
            violations.append(f"labels length {len(labels_raw)} != number of forms {len(forms_raw)}")
    if violations:
        raise SystemValidationError(violations)
    p = Prime(p_raw)
    forms = tuple(vec(row, p) for row in forms_raw)
    labels = tuple(labels_raw) if labels_raw is not None else None
    return LinearSystem(p, forms, labels)


def system_flags(system: LinearSystem) -> dict:
    """Data-quality flags: indices of zero forms and groups of duplicate forms."""
    zero = [i for i, f in enumerate(system.forms) if not any(f)]
    groups: dict[Vector, list[int]] = {}
    for i, f in enumerate(system.forms):
        groups.setdefault(f, []).append(i)
    dups = [idx for idx in groups.values() if len(idx) > 1]
    return {"zero_forms": zero, "duplicate_forms": dups}


def load_system(path: str) -> LinearSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return validate(json.load(fh))


def normalize_translation_invariant(
    system: LinearSystem,
) -> tuple[LinearSystem, Matrix] | None:
    """Change of variables R making the first matrix column all ones.

    Returns (Ψ·R, R) with R invertible, or None when the all-ones vector is
    not in the column space of Ψ.  Deterministic: the first column of R is
    the RREF solution with free variables zero, completed to a basis by the
    first standard basis vectors that extend it.
    """
    p = system.p
    d = system.d
    ones = tuple(1 for _ in range(system.r))
    c = solve_right(system.forms, ones, p)
    if c is None:
        return None
    cols: list[Vector] = [c]
    basis = span_basis([c], p, d)
    for t in range(d):
        if basis.rank == d:
            break
        e_t = tuple(1 if j == t else 0 for j in range(d))
        extended = basis.extended(e_t)
        if extended is not basis:
            basis = extended
            cols.append(e_t)
    transform = tuple(tuple(cols[j][i] for j in range(len(cols))) for i in range(d))
    return change_of_variables(system, transform), transform


def associated_set(system: LinearSystem) -> AssociatedSet:
    """Point set of a translation-invariant system after normalization.

    Raises ValueError when the system is not translation invariant.
    """
    normalized = normalize_translation_invariant(system)
    if normalized is None:
        raise ValueError("not translation invariant")
    norm, _ = normalized
    points = tuple(f[1:] for f in norm.forms)
    return AssociatedSet(norm.p, norm.d - 1, points)


def image_is_translation_invariant(system: LinearSystem) -> bool:
    """Oracle by image enumeration: Im(Ψ) closed under adding a constant.

    Exponential in d; intended for cross-checks on tiny systems only.
    """
    p = system.p
    image = set()
    for x in product(range(p), repeat=system.d):
        image.add(tuple(sum(f[j] * x[j] for j in range(system.d)) % p for f in system.forms))
    ones = tuple(1 for _ in range(system.r))
    return all(tuple((y[i] + 1) % p for i in range(len(y))) in image for y in image)


def change_of_variables(system: LinearSystem, transform: Matrix) -> LinearSystem:
    return LinearSystem(system.p, mat_mul(system.forms, transform, system.p), system.labels)


def random_invertible(p: int, d: int, rng) -> Matrix:
    """Uniform-ish invertible d×d matrix over F_p from a seeded generator."""
    while True:
        m = tuple(tuple(int(rng.integers(0, p)) for _ in range(d)) for _ in range(d))
        if rank(m, p) == d:
            return m


def reattach_ones(points: AssociatedSet) -> Matrix:
    """Rebuild the normalized matrix from an associated set (round-trip check)."""
    return tuple((1,) + pt for pt in points.points)
