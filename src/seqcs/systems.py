"""Linear-form systems over F_p: validation, translation invariance, point sets.

A system is an ordered list of r linear forms in d variables, stored as the
rows of an r×d matrix over F_p.  Forms are ordered because certificates refer
to form indices; duplicate and zero forms are allowed but flagged.

A system keeps its forms in one store, `LinearSystem.rows`: a read-only
array of canonical residues, reduced once when the system is built, in the
narrowest unsigned dtype that holds p - 1 (dtype object past uint64), whose
slices the kernels of `seqcs.field` take as they are.  `forms`, the rows as
int tuples, is made once per instance for code that walks forms one at a
time.  The forms are encoded to compact JSON once, in the row blocks of
`row_blocks`, and the text is kept: the digest hashes the blocks joined, and
`to_json` hands them to the report writer with the forms (`FormRows`), which
writes them one row per line by splitting that text, so a system written into
a report twice is still encoded once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .field import Matrix, Prime, Vector, is_prime, rank, residue_array, solve_right


PIECE_ITEMS = 1 << 13  # items per row block; `json`'s encoder holds one string per item until it joins them
compact_json = json.JSONEncoder(separators=(",", ":")).encode


def row_blocks(rows: np.ndarray):
    """The compact JSON of a 2-D array's rows, cut into blocks of whole rows.

    Yields each block as it is encoded.  A block holds at most PIECE_ITEMS
    items, or one longer row, and is the text between the brackets of its
    rows' compact JSON, so the blocks joined by `,` are the compact text of
    `rows.tolist()` without its brackets.
    """
    step = max(1, PIECE_ITEMS // rows.shape[1])
    for start in range(0, len(rows), step):
        yield compact_json(rows[start : start + step].tolist())[1:-1]


class FormRows(list):
    """A system's forms as a list of lists (`LinearSystem.to_json`) that
    carries the system's `row_blocks`, so a writer splits the text it
    already has into rows instead of encoding the rows again.  The blocks
    describe the rows as built: to write edited forms, edit a plain copy."""

    __slots__ = ("blocks",)

    def __init__(self, rows: list, blocks: tuple[str, ...]):
        super().__init__(rows)
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


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """An ordered system of linear forms over F_p, optionally labelled.

    Built from any integer rows, which become the store `rows`.  Instances
    are frozen, so each memoises what it derives from its forms: the int
    tuples (`forms`), the compact JSON of the forms in row blocks
    (`form_blocks`), the digest and the flats.  The blocks live as long as
    the system.
    """

    p: Prime
    rows: np.ndarray
    labels: tuple[str, ...] | None = None
    _forms: tuple[Vector, ...] | None = field(default=None, init=False, repr=False)
    _blocks: tuple[str, ...] | None = field(default=None, init=False, repr=False)
    _digest: str | None = field(default=None, init=False, repr=False)
    # the flats of the forms, memoised by `complexity.flat_lattice`
    _flats: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # uint8, uint16, uint32 or uint64, the narrowest that holds p - 1, and object past uint64
        rows = residue_array(self.rows, self.p).astype(np.min_scalar_type(self.p - 1), copy=False)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def r(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    @property
    def forms(self) -> tuple[Vector, ...]:
        """The rows as int tuples, made once per instance."""
        if self._forms is None:
            object.__setattr__(self, "_forms", tuple(map(tuple, self.rows.tolist())))
        return self._forms

    def form_blocks(self) -> tuple[str, ...]:
        """`row_blocks` of the forms, encoded once per instance."""
        if self._blocks is None:
            object.__setattr__(self, "_blocks", tuple(row_blocks(self.rows)))
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
        out = {"p": int(self.p), "forms": FormRows(self.rows.tolist(), self.form_blocks())}
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

    Entries may be arbitrary integers; the system's store reduces them mod p.
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
    return LinearSystem(Prime(p_raw), forms_raw, tuple(labels_raw) if labels_raw is not None else None)


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
    invertible because c_L != 0.  So Ψ·R needs no product: its column 0 is
    Ψ·c, all ones, and the others are Ψ's columns t != L in order.
    """
    d = system.d
    c = solve_right(system.forms, (1,) * system.r, system.p)
    if c is None:
        return None
    last = max(j for j, x in enumerate(c) if x)  # c != 0, since Ψ·c is all ones
    transform = tuple((c[i],) + tuple(int(i == t) for t in range(d) if t != last) for i in range(d))
    normalized = tuple((1,) + f[:last] + f[last + 1 :] for f in system.forms)
    return LinearSystem(system.p, normalized, system.labels), transform


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


def random_invertible(p: int, d: int, rng) -> Matrix:
    """Uniform-ish invertible d×d matrix over F_p from a seeded generator."""
    while True:
        m = tuple(tuple(int(rng.integers(0, p)) for _ in range(d)) for _ in range(d))
        if rank(m, p) == d:
            return m


def reattach_ones(points: AssociatedSet) -> Matrix:
    """Rebuild the normalized matrix from an associated set (round-trip check)."""
    return tuple((1,) + pt for pt in points.points)
