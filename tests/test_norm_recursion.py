"""Property tests: the paired U^k recursion against the direct oracle, the batched oracle
against the loop it replaced, and the byte-capped shift-matrix cache.

The direct oracle sums over every point (x, h_1, ..., h_k), so the recursion
cases are the groups F_p^n and the orders k in {2, 3, 4} with at most 6·10^6
such points, (p^n)^(k+1) <= 6·10^6.  The loop oracle takes one Python
iteration per shift tuple, so its cases have p^n <= 343 and at most 2401 tuples.
"""

import logging
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcs import analysis
from seqcs.analysis import (
    DEFAULT_POINT_GUARD,
    EnumerationGuardExceeded,
    FunctionTable,
    digit_matrix,
    gowers_norm,
    gowers_norm_direct,
    random_one_bounded,
)

log = logging.getLogger(__name__)

CASES = [
    (p, n, k)
    for p in (2, 3, 5, 7)
    for n in range(1, 9)
    for k in (2, 3, 4)
    if (p**n) ** (k + 1) <= 6_000_000
]
ORACLE_CASES = [
    (p, n, k)
    for p in (2, 3, 5, 7)
    for n in range(1, 9)
    for k in (1, 2, 3, 4)
    if p**n <= 343 and (p**n) ** k <= 2401
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


@settings(EXAMPLES, max_examples=20)
@given(
    case=st.sampled_from(CASES),
    rows=st.integers(2, 3),
    path=st.sampled_from(["at-once", "top-at-once", "per-shift"]),
    seed=st.integers(0, 2**16),
)
def test_batch_rows_match_direct_oracle(case, rows, path, seed):
    """Each row of a multi-row batch gets its own norm, with all shifts at once at every
    level, at the top level only, or one shift at a time at every level."""
    p, n, k = case
    tables = [random_one_bounded(p, n, [seed, j], FAMILIES[j % 4]) for j in range(rows)]
    kernel = analysis._norm_kernel(p, n, k)
    budget = {"at-once": analysis._BATCH_BUDGET, "top-at-once": rows * len(kernel[1]) * p**n, "per-shift": 16}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_BATCH_BUDGET", budget[path])
        norms = analysis._gowers_rows(np.stack([f.values for f in tables]), k, kernel)
    for f, norm in zip(tables, norms):
        assert norm == pytest.approx(gowers_norm_direct(f, k), abs=1e-12)


def reference_gowers_norm_direct(f: FunctionTable, k: int, point_guard: int = DEFAULT_POINT_GUARD) -> float:
    """The loop oracle that the batched gowers_norm_direct replaced, kept verbatim."""
    if k < 1:
        raise ValueError("k must be >= 1")
    size = f.size
    if size ** (k + 1) > point_guard:
        raise EnumerationGuardExceeded("direct norm enumeration exceeds the guard")
    p, n = f.p, f.n
    perms: dict[int, np.ndarray] = {}

    def perm_for(shift_elt: int) -> np.ndarray:
        if shift_elt not in perms:
            idx = np.arange(size, dtype=np.int64)
            digits = digit_matrix(idx, p, n)
            sdig = digit_matrix(np.array([shift_elt]), p, n)
            out = np.zeros(size, dtype=np.int64)
            mult = 1
            for t in range(n):
                out += ((digits[t] + sdig[t][0]) % p) * mult
                mult *= p
            perms[shift_elt] = out
        return perms[shift_elt]

    def add_elt(a: int, b: int) -> int:
        out = 0
        mult = 1
        for _ in range(n):
            out += ((a % p) + (b % p)) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    reals: list[float] = []
    for hs in product(range(size), repeat=k):
        prod = np.ones(size, dtype=np.complex128)
        for bits in range(1 << k):
            corner = 0
            for t in range(k):
                if bits >> t & 1:
                    corner = add_elt(corner, hs[t])
            gathered = f.values[perm_for(corner)]
            if bin(bits).count("1") % 2:
                gathered = gathered.conj()
            prod *= gathered
        reals.append(float(prod.sum().real))
    raw = math.fsum(reals) / size ** (k + 1)
    if raw < 0:
        log.debug("clamping negative direct U^%d power average %.3e to 0", k, raw)
        raw = 0.0
    return raw ** (1.0 / (1 << k))


@pytest.mark.parametrize(
    "p, k, family",
    # every prime meets every order and every family
    [(p, k, FAMILIES[(i + k) % 4]) for i, p in enumerate((2, 3, 5, 7)) for k in (1, 2, 3, 4)],
)
@settings(EXAMPLES, max_examples=2)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_batched_oracle_equals_the_loop_oracle(p, k, family, data, seed):
    n = data.draw(st.sampled_from([n for q, n, j in ORACLE_CASES if (q, j) == (p, k)]), label="n")
    f = random_one_bounded(p, n, [seed], family)
    expected = reference_gowers_norm_direct(f, k)
    assert gowers_norm_direct(f, k) == expected
    # one tuple per block, then two blocks with a shorter last one
    for block in (1, f.size**k // 2 + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_BATCH_BUDGET", block * f.size)
            assert gowers_norm_direct(f, k) == expected


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
