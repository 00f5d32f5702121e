"""Multidimensional arithmetic-progression systems x + z·t and their witnesses.

The point set is the simplex of exponent vectors z in [0,p-1]^M with integer
digit sum below k; the system has one form per point, in M+1 variables, with
leading column all ones.  This module builds the full witness sequence
through the simplex (slice by slice in the last coordinate, descending) with
its form-level certificate, each part the set of simplex points that its
cover subspace holds by construction (`phikm --verify` re-checks the parts
with `verify_witness`), and constructs the unimodular product-of-binomials
function family whose average over the system is exactly 1.

The simplex is enumerated once per system: the witness recursion slices the
lexicographic point list it is given, and its sequence and parts are indices
into that list, so a certificate is built from the system `phi_system` made.
"""

from __future__ import annotations

from itertools import product
from math import comb, prod

import numpy as np

from .analysis import FunctionTable, digit_matrix, encode_point, phase_table, tensor_product_table
from .complexity import CoverCertificate, WitnessCertificate
from .covering import AffineSubspace
from .field import Prime, SpanBasis
from .systems import LinearSystem

SIMPLEX_ENTRY_GUARD = 10**6


def _parameters(p: int, k: int, M: int) -> tuple[Prime, int, int]:
    """(p, k, M) checked, with k clamped to M(p-1)+1, past which the simplex stops growing."""
    if M < 1 or k < 1:
        raise ValueError("need M >= 1 and k >= 1")
    prime = Prime(p)
    return prime, min(k, M * (prime - 1) + 1), M


def _simplex(p: int, k: int, M: int):
    """The points of `s_km_points`, made one at a time.

    Depth first: the next point raises the last coordinate that can still
    grow with the digit sum below k and zeroes the ones after it, so no tuple
    outside the simplex is made.  Raises ValueError, naming M, before the
    points would hold more than SIMPLEX_ENTRY_GUARD coordinates.
    """
    if k < 1:
        return
    fits = SIMPLEX_ENTRY_GUARD // max(M, 1)  # points that stay within the guard
    z, total = [0] * M if fits else [], 0
    for _ in range(fits):
        yield tuple(z)
        j = M - 1
        while j >= 0 and (z[j] == p - 1 or total + 1 >= k):
            total -= z[j]
            z[j] = 0
            j -= 1
        if j < 0:
            return
        z[j] += 1
        total += 1
    raise ValueError(f"M={M}: the simplex for p={p}, k={k} holds more than {SIMPLEX_ENTRY_GUARD} coordinates")


def s_km_points(p: int, k: int, M: int) -> list[tuple[int, ...]]:
    """Points z in [0,p-1]^M with z_1+...+z_M < k (sum in Z), lexicographic.

    Raises ValueError when they would hold more than SIMPLEX_ENTRY_GUARD
    coordinates.
    """
    return list(_simplex(p, k, M))


def phi_system(p: int, k: int, M: int) -> LinearSystem:
    """One form x + z_1·t_1 + ... + z_M·t_M per simplex point, in point order."""
    p, k, M = _parameters(p, k, M)
    return LinearSystem(p, tuple((1,) + z for z in s_km_points(p, k, M)))


def _slice_hyperplane(p: int, M: int, level: int) -> AffineSubspace:
    normal = (0,) * (M - 1) + (1,)
    return AffineSubspace.from_hyperplane(normal, level, p)


def _embed_in_slice(sub: AffineSubspace, level: int, p: int, M: int) -> AffineSubspace:
    """`sub` (in F_p^(M-1)) lifted into the slice z_M = level, in canonical form.

    A zero last coordinate keeps the directions in RREF with the same
    pivots, and the lifted basepoint is still zero at every pivot, so the
    lift needs no elimination.
    """
    dirs = tuple(d + (0,) for d in sub.directions)
    return AffineSubspace(p, M, sub.basepoint + (level,), dirs, SpanBasis(p, M, dirs, sub.basis.pivots))


def _witness_rec(p: int, M: int, points: list[tuple[int, ...]]):
    """Sequence, per-prefix covers and their parts on `points`, a simplex
    s_km_points(p, k, M) in lexicographic order.

    The sequence and each parts[j][t] (ascending) are indices into `points`;
    parts[j][t] lists the points outside seq[:j+1] in covers[j][t].  Slice
    z_M = m, the points whose last coordinate is m, is the (M-1)-simplex for
    k-m lifted by m; an embedded subspace's part is its own part in the slice.
    """
    if M == 0:
        return [0], [[]], [[]]
    slices = [[] for _ in range(1 + max(z[-1] for z in points))]
    for i, z in enumerate(points):
        slices[z[-1]].append(i)
    slices = [tuple(lift) for lift in slices]
    seq, covers, parts = [], [], []
    for level in range(len(slices) - 1, -1, -1):
        lift = slices[level]
        sub_seq, sub_covers, sub_parts = _witness_rec(p, M - 1, [points[i][:-1] for i in lift])
        below = [_slice_hyperplane(p, M, m) for m in range(level)]
        for point, cover, cover_parts in zip(sub_seq, sub_covers, sub_parts):
            seq.append(lift[point])
            covers.append([_embed_in_slice(s, level, p, M) for s in cover] + below)
            parts.append([tuple(lift[i] for i in part) for part in cover_parts] + slices[:level])
    return seq, covers, parts


def phi_witness(p: int, k: int, M: int):
    """Ordering of the whole simplex ending at the origin, with per-prefix covers.

    Every prefix of the sequence leaves a remainder coverable by at most k-1
    affine subspaces, none containing any prefix point, so truncating at any
    point yields a witness sequence ending there.  Slices in the last
    coordinate are consumed from p-1 down to 0; within a slice the order is
    the (M-1)-dimensional construction.
    """
    p, k, M = _parameters(p, k, M)
    points = s_km_points(p, k, M)
    seq, covers, _ = _witness_rec(int(p), M, points)
    return [points[i] for i in seq], covers


def _witness_at(system: LinearSystem, at=None):
    """`phi_witness` truncated to end at `at`, and its certificate of parameter k-2,
    for the system that `phi_system` built.

    The simplex's k, clamped as `phi_system` clamps it, is one more than its
    largest digit sum.  The forms have a leading ones column, so a part of
    points off the prefix spans no prefix form when its cover subspace avoids
    the prefix points.
    """
    points = [form[1:] for form in system.forms]
    k, M = 1 + max(map(sum, points)), system.d - 1
    if k < 2:
        raise ValueError("certificates need k >= 2 (cover size k-1 >= 1 part)")
    target = tuple(at) if at is not None else (0,) * M
    if target not in points:
        raise ValueError(f"{target} is not a simplex point")
    seq, covers_geo, parts = _witness_rec(int(system.p), M, points)
    ell = seq.index(points.index(target)) + 1
    sequence = tuple(seq[:ell])
    covers = tuple(CoverCertificate(sequence[:j], tuple(parts[j - 1])) for j in range(1, ell + 1))
    cert = WitnessCertificate(system.digest(), sequence[-1], k - 2, sequence, covers)
    return [points[i] for i in sequence], covers_geo[:ell], cert


def phi_witness_certificate(p: int, k: int, M: int, at=None) -> WitnessCertificate:
    """Form-level witness for the progression system, truncated to end at `at`."""
    return _witness_at(phi_system(p, k, M), at)[2]


def default_weight(p: int, k: int, M: int) -> tuple[int, ...]:
    """Lexicographically largest valid weight: greedy digits summing to k-1."""
    if k < 2:
        raise ValueError("weights need k >= 2")
    rem = k - 1
    w = []
    for _ in range(M):
        take = min(p - 1, rem)
        w.append(take)
        rem -= take
    if rem > 0:
        raise ValueError(f"k-1={k - 1} exceeds M(p-1)={M * (p - 1)}")
    return tuple(w)


def _validate_weight(p: int, k: int, M: int, w) -> tuple[int, ...]:
    w = tuple(w)
    if len(w) != M:
        raise ValueError(f"weight must have length M={M}")
    if any(not 0 <= wi <= p - 1 for wi in w):
        raise ValueError("weight entries must lie in [0, p-1]")
    if sum(w) != k - 1:
        raise ValueError(f"weight digits must sum to k-1={k - 1}")
    if w[0] <= 0:
        raise ValueError("first weight entry must be positive")
    return w


def binomial_product_table(p: int, M: int, exponents) -> np.ndarray:
    """Residue table x ↦ Π_i C(x_i, e_i) mod p on F_p^M (binomials over Z)."""
    cols = [np.array([comb(v, e) % p for v in range(p)], dtype=np.int64) for e in exponents]
    out = np.ones(p**M, dtype=np.int64)
    for col, digits in zip(cols, digit_matrix(np.arange(p**M), p, M)):
        out = out * col[digits] % p
    return out


def _signed_binomial(w, z) -> int:
    """(-1)^{|z|}·C(w_1,z_1)···C(w_M,z_M) over Z."""
    return (-1) ** sum(z) * prod(comb(wi, zi) for wi, zi in zip(w, z))


def phase_polynomial_table(p: int, k: int, M: int, w) -> np.ndarray:
    """The degree-(k-2) product of binomials: exponents (w_1 - 1, w_2, ..., w_M)."""
    w = _validate_weight(p, k, M, w)
    return binomial_product_table(p, M, (w[0] - 1,) + w[1:])


def counterexample_family(p: int, k: int, M: int, w=None, ell: int = 1, points=None) -> list[FunctionTable]:
    """Unimodular tuple (f_z) with Λ over the progression system exactly 1.

    f_z = e_p((-1)^{|z|}·C(w_1,z_1)···C(w_M,z_M)·P) at ell=1; higher ell takes
    coordinatewise products on F_p^{ell·M}.  Ordered like s_km_points, or
    like `points` when given: the simplex points a caller already holds,
    such as the forms of `phi_system(p, k, M)` without their ones column.
    """
    p, k, M = _parameters(p, k, M)
    w = _validate_weight(p, k, M, w if w is not None else default_weight(p, k, M))
    poly = phase_polynomial_table(p, k, M, w)
    tables = []
    for z in s_km_points(p, k, M) if points is None else points:
        base = phase_table(p, M, (_signed_binomial(w, z) % p) * poly % p)
        tables.append(base if ell == 1 else tensor_product_table(base, ell))
    return tables


def gray_code_check(
    p: int, k: int, M: int, w=None, trials: int = 1000, seed: int = 0, polynomial=None
) -> int:
    """Max canonical residue of the alternating binomial-weighted sum of the
    phase polynomial over sampled combinatorial cubes; 0 when the polynomial
    degree stays below the cube dimension.

    `polynomial` overrides the table (used to confirm that bumping the degree
    breaks the vanishing).
    """
    p, k, M = _parameters(p, k, M)
    w = _validate_weight(p, k, M, w if w is not None else default_weight(p, k, M))
    poly = polynomial if polynomial is not None else phase_polynomial_table(p, k, M, w)
    rng = np.random.default_rng(seed)
    signed_coef = {z: _signed_binomial(w, z) % p for z in product(*(range(wi + 1) for wi in w))}
    worst = 0
    for _ in range(trials):
        x = rng.integers(0, p, M)
        steps = rng.integers(0, p, (M, M))
        sigma = 0
        for z, coef in signed_coef.items():
            pt = x.copy()
            for i in range(M):
                pt = pt + z[i] * steps[i]
            sigma += coef * int(poly[encode_point(pt, p)])
        worst = max(worst, sigma % p)
    return worst
