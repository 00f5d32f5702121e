"""Linear-form systems over F_p: validation, translation invariance, point sets.

A system is an ordered list of r linear forms in d variables, stored as the
rows of an r×d matrix over F_p.  Forms are ordered because certificates refer
to form indices; duplicate and zero forms are allowed but flagged.

A system encodes its forms to compact JSON once, in the row blocks of
`row_blocks`, and keeps the text: its digest hashes the blocks joined, and
`to_json` hands them to the report writer with the forms (`FormRows`), which
writes them one row per line by splitting that text, so a system written into
a report twice is still encoded once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product

from .field import (
    Matrix,
    Prime,
    Vector,
    is_prime,
    mat_mul,
    rank,
    solve_right,
    vec,
)


PIECE_ITEMS = 1 << 13  # items per row block; `json`'s encoder holds one string per item until it joins them
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def row_blocks(rows):
    """The compact JSON of a list of rows, cut into blocks of whole rows.

    Yields each block as it is encoded.  A block holds at most PIECE_ITEMS
    items, or one longer row, and is the text between the brackets of its
    rows' compact JSON, so the blocks joined by `,` are the compact text of
    `rows` without its brackets.
    """
    start = held = 0
    for end, row in enumerate(rows):
        if held and held + len(row) > PIECE_ITEMS:
            yield compact_json(rows[start:end])[1:-1]
            start, held = end, 0
        held += len(row)
    if start < len(rows):
        yield compact_json(rows[start:])[1:-1]


class FormRows(list):
    """A system's forms as a list of lists (`LinearSystem.to_json`) that
    carries the system's `row_blocks`, so a writer splits the text it
    already has into rows instead of encoding the rows again.  The blocks
    describe the rows as built: to write edited forms, edit a plain copy."""

    __slots__ = ("blocks",)

    def __init__(self, forms, blocks: tuple[str, ...]):
        super().__init__(map(list, forms))
        self.blocks = blocks


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
    """An ordered system of linear forms over F_p, optionally labelled.

    Instances are frozen, so each memoises what it derives from its forms:
    the compact JSON of the forms in row blocks (`form_blocks`), the digest
    and the flats.  The blocks live as long as the system.
    """

    p: Prime
    forms: tuple[Vector, ...]
    labels: tuple[str, ...] | None = None
    _blocks: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)
    # the flats of the forms, memoised by `complexity.flat_lattice`
    _flats: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.forms)

    @property
    def d(self) -> int:
        return len(self.forms[0])

    def form_blocks(self) -> tuple[str, ...]:
        """`row_blocks` of the forms, encoded once per instance."""
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(row_blocks(self.forms)))
        return self._blocks

    def canonical_json(self) -> str:
        """Canonical serialization used for hashing; labels excluded.

        The bytes of `json.dumps({"forms": ..., "p": p}, sort_keys=True,
        separators=(",", ":"))`, joined from `form_blocks`.
        """
        return '{"forms":[' + ",".join(self.form_blocks()) + '],"p":' + str(int(self.p)) + "}"

    def digest(self) -> str:
        """SHA-256 of `canonical_json`, computed once per instance."""
        if self._digest is None:
            digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return self._digest

    def to_json(self) -> dict:
        """Plain JSON data: p, the forms as a list of lists carrying
        `form_blocks` (`FormRows`), and the labels when there are any."""
        out = {"p": int(self.p), "forms": FormRows(self.forms, self.form_blocks())}
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

    @staticmethod
    def from_normalized(norm: LinearSystem) -> "AssociatedSet":
        """Points of a system whose first column is all ones (see normalize_translation_invariant)."""
        return AssociatedSet(norm.p, norm.d - 1, tuple(f[1:] for f in norm.forms))


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


def read_json(path: str, parse):
    """`parse` of the JSON value in the file at `path`.

    A file that `json` cannot decode is an input error: a `JSONDecodeError`
    as `json` raised it, and text that is not UTF-8, nested past the
    recursion limit or holding an integer past Python's digit limit as an
    InputValidationError.  Only the decoding is guarded, so a fault in
    `parse` still surfaces.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:
            raise InputValidationError([f"{path}: not decodable as JSON: {exc}"]) from None
    return parse(raw)


def load_system(path: str) -> LinearSystem:
    return read_json(path, validate)


def normalize_translation_invariant(
    system: LinearSystem,
) -> tuple[LinearSystem, Matrix] | None:
    """Change of variables R making the first matrix column all ones.

    Returns (Ψ·R, R) with R invertible, or None when the all-ones vector is
    not in the column space of Ψ.  Deterministic: the first column of R is
    the RREF solution c with free variables zero, and the others are e_t for
    every t except the last index L where c is nonzero, in order of t; R is
    invertible because c_L != 0.
    """
    p = system.p
    d = system.d
    ones = tuple(1 for _ in range(system.r))
    c = solve_right(system.forms, ones, p)
    if c is None:
        return None
    last = max(j for j, x in enumerate(c) if x)  # c != 0, since Ψ·c is all ones
    cols = [c] + [tuple(1 if j == t else 0 for j in range(d)) for t in range(d) if t != last]
    transform = tuple(tuple(col[i] for col in cols) for i in range(d))
    return change_of_variables(system, transform), transform


def associated_set(system: LinearSystem) -> AssociatedSet:
    """Point set of a translation-invariant system after normalization.

    Raises ValueError when the system is not translation invariant.
    """
    normalized = normalize_translation_invariant(system)
    if normalized is None:
        raise ValueError("not translation invariant")
    return AssociatedSet.from_normalized(normalized[0])


def image_is_translation_invariant(system: LinearSystem) -> bool:
    """Oracle by image enumeration: Im(Ψ) closed under adding a constant.

    Exponential in d; intended for cross-checks on tiny systems only.
    """
    p = system.p
    image = set()
    for x in product(range(p), repeat=system.d):
        image.add(tuple(sum(f[j] * x[j] for j in range(system.d)) % p for f in system.forms))
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
