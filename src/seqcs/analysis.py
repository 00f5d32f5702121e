"""Exact enumeration of form averages and Gowers uniformity norms on F_p^n.

Group elements of F_p^n are encoded as integers in [0, p^n): digit t of the
index (base p, digit 0 least significant) is coordinate t of the point.
encode_point (digits to index) and digit_matrix (index to digits) are the
only conversions; both take integers or integer arrays.  gowers_norm_direct
keeps its own index arithmetic on purpose (an addition table built with
numpy's unravel_index/ravel_multi_index): it is the independent oracle for
the U^k recursion, so it must not share the encoding it checks.  It takes
blocks of shift tuples at a time and still sums every one of the 2^k corners.
Averages enumerate every assignment; there is no sampling and no Fourier
shortcut.  A form's action (the index of its value at every assignment) is
gathered from tables on F_p^b, for digit groups of b coordinates with
p^(2b) <= _TABLE_BUDGET: ADD = shift_matrix(p, b), the cached table the U^k
recursion uses too, and MUL[c] (x ↦ c·x); no digit of an assignment is
decoded.  Sums use numpy's pairwise reduction per chunk of _CHUNK
assignments and an exact compensated sum of the chunk totals.  Uncached,
a chunk builds one form's action at a time, gathers it into the running
product and drops it, so its memory does not grow with the number of
forms.  Results are bit-stable at that fixed chunk size, cached or not;
another chunk size moves the pairwise rounding and can change the last bits.

The U^k recursion derives along one shift h of each pair {h, −h} and counts
it twice when h ≠ −h: Δ_{−h}f(x) = conj(Δ_h f(x − h)), and every U^j power
average is invariant under translation and conjugation.  The leaf value
|E_x Δ_{h_1}…Δ_{h_m} f(x)|² (m = k − 1) is symmetric in the shifts, so the
recursion sums over nondecreasing tuples of representatives only, each
weighted by its number of orderings m!/∏c! (c the lengths of its runs of
equal shifts) times its pair weights; these integer weights add up to
(p^n)^m exactly.  It walks the tuples depth first, and _BATCH_BUDGET keeps
every working array cache-sized.  Its sums over x are einsum reductions
(numpy's own loops, no BLAS), so their order is fixed for a given array shape.

The norm checks (`gvn_check`, `reduction.numeric_step_check`) run in trial
blocks: `_trial_blocks` draws the tuples of consecutive trials into one
(trials, r, p^n) array of at most _BATCH_BUDGET entries, one trial at least.
The U^k norms of a block's tables at one position are one `_u_power_batch`
call, whose row sums may take another path than a lone row's, so a norm
agrees with `gowers_norm` to roundoff.  Each trial's average is its own
`LambdaEvaluator.average` call, bit for bit what a lone tuple gets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .field import is_prime
from .systems import InputValidationError, LinearSystem, is_integer

log = logging.getLogger(__name__)

DEFAULT_POINT_GUARD = 10**8
UK_CAP = 8
_CHUNK = 1 << 18
_BATCH_BUDGET = 1 << 15
_TABLE_BUDGET = 1 << 18
_CACHE_BYTE_CAP = 256 << 20


class EnumerationGuardExceeded(RuntimeError):
    """The requested enumeration exceeds the configured size guard."""


@dataclass(frozen=True)
class FunctionTable:
    """Dense table of a complex function on F_p^n."""

    p: int
    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.p**self.n,):
            raise ValueError(f"expected {self.p ** self.n} values, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.p**self.n

    def is_one_bounded(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values)) <= 1 + tol)

    def conjugate(self) -> "FunctionTable":
        return FunctionTable(self.p, self.n, self.values.conj())

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    @staticmethod
    def from_json(raw) -> "FunctionTable":
        """A table from its JSON description, collecting every violation.

        The description is an object with a prime p, an integer n >= 1 and
        p^n values, each a pair [real, imaginary] of finite numbers.
        """
        if not isinstance(raw, dict):
            raise InputValidationError(["function table is not a JSON object"])
        violations: list[str] = []
        p, n, values = raw.get("p"), raw.get("n"), raw.get("values")
        if not is_integer(p):
            violations.append("p missing or not an integer")
        elif not is_prime(p):
            violations.append(f"p not prime: {p}")
        if not is_integer(n) or n < 1:
            violations.append("n missing or not a positive integer")
        if not isinstance(values, list):
            violations.append("values missing or not a list")
        else:
            for i, pair in enumerate(values):
                if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite_real, pair))):
                    violations.append(f"values[{i}] is not a pair of finite real numbers")
            # p^n >= 2^n, so a large n is a mismatch without computing p^n
            if not violations and (n > len(values).bit_length() or p**n != len(values)):
                violations.append(f"values has {len(values)} entries, not p^n = {p}^{n}")
        if violations:
            raise InputValidationError(violations)
        return FunctionTable(p, n, np.array([complex(re, im) for re, im in values]))

    @staticmethod
    def constant(p: int, n: int, value: complex = 1.0) -> "FunctionTable":
        return FunctionTable(p, n, np.full(p**n, value, dtype=np.complex128))

    @staticmethod
    def indicator(p: int, n: int, points) -> "FunctionTable":
        vals = np.zeros(p**n, dtype=np.complex128)
        for pt in points:
            vals[encode_point(pt, p)] = 1.0
        return FunctionTable(p, n, vals)


def _is_finite_real(x) -> bool:
    """Whether a JSON value is a finite real number (booleans excluded)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def encode_point(point, p: int) -> int:
    """Index of a point, by Horner's rule over its coordinates reduced mod p.

    Each coordinate may be an int or an integer array; with arrays the result
    is the array of indices, elementwise (broadcast like +).
    """
    idx = 0
    for t in reversed(range(len(point))):
        idx = idx * p + (point[t] % p)
    return idx


def digit_matrix(indices: np.ndarray, p: int, n: int) -> list[np.ndarray]:
    """Digit arrays [coordinate 0, ..., coordinate n-1] of encoded group elements."""
    digits = []
    rem = np.asarray(indices).copy()
    for _ in range(n):
        digits.append(rem % p)
        rem //= p
    return digits


def phase_table(p: int, n: int, residues: np.ndarray) -> FunctionTable:
    """e_p of an array of residues: exp(2πi·residues/p)."""
    vals = np.exp(2j * np.pi * (np.asarray(residues) % p) / p)
    return FunctionTable(p, n, vals)


def character_table(p: int, n: int, frequency) -> FunctionTable:
    """x ↦ e_p(<frequency, x>)."""
    return quadratic_table(p, n, [[0] * n] * n, frequency)


def quadratic_table(p: int, n: int, quad, linear=None) -> FunctionTable:
    """x ↦ e_p(Σ_{s<=t} quad[s][t]·x_s·x_t + <linear, x>)."""
    idx = np.arange(p**n)
    digits = digit_matrix(idx, p, n)
    acc = np.zeros(p**n, dtype=np.int64)
    for s in range(n):
        for t in range(s, n):
            c = quad[s][t] % p
            if c:
                acc += c * digits[s] * digits[t]
    if linear is not None:
        for t in range(n):
            acc += (linear[t] % p) * digits[t]
    return phase_table(p, n, acc)


def tensor_product_table(f: FunctionTable, ell: int) -> FunctionTable:
    """ell-fold product function on F_p^{ell·n}: (y_1,..,y_ell) ↦ Π f(y_j)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    # p^(n·ell) >= 2^(n·ell), so a large ell is refused without computing the power
    if f.n * ell >= DEFAULT_POINT_GUARD.bit_length() or f.size**ell > DEFAULT_POINT_GUARD:
        raise EnumerationGuardExceeded(
            f"ell = {ell}: the product table would have p^(n·ell) = {f.p}^{f.n * ell} entries,"
            f" above the guard {DEFAULT_POINT_GUARD}"
        )
    vals = f.values
    for _ in range(ell - 1):
        vals = np.kron(f.values, vals)
    return FunctionTable(f.p, f.n * ell, vals)


def _residues(rng, p: int, count: int) -> list[int]:
    return [int(rng.integers(0, p)) for _ in range(count)]


def _disk(p: int, n: int, rng) -> np.ndarray:
    radius = np.sqrt(rng.random(p**n))  # the radii are drawn before the angles
    return radius * np.exp(2j * np.pi * rng.random(p**n))


def _quadratic_phase(p: int, n: int, rng) -> np.ndarray:
    quad = [_residues(rng, p, n) for _ in range(n)]
    return quadratic_table(p, n, quad, _residues(rng, p, n)).values


# family name -> (p, n, rng) -> the p^n values of a random 1-bounded table
TABLE_FAMILIES = {
    "phases": lambda p, n, rng: np.exp(2j * np.pi * rng.random(p**n)),
    "disk": _disk,
    "signs": lambda p, n, rng: (rng.integers(0, 2, p**n) * 2 - 1).astype(np.complex128),
    "sparse": lambda p, n, rng: (rng.random(p**n) < 1.0 / p).astype(np.complex128),
    "character": lambda p, n, rng: character_table(p, n, _residues(rng, p, n)).values,
    "quadratic-phase": _quadratic_phase,
}


def random_one_bounded(p: int, n: int, seed, family: str = "phases") -> FunctionTable:
    """Deterministic-from-seed 1-bounded random table of a TABLE_FAMILIES family."""
    if family not in TABLE_FAMILIES:
        raise ValueError(f"unknown family: {family}")
    return FunctionTable(p, n, TABLE_FAMILIES[family](p, n, np.random.default_rng(seed)))


# ---------------------------------------------------------------------------
# form averages


class LambdaEvaluator:
    """Average of Π f_i(ψ_i(x)) over all assignments, with precomputed form actions.

    The per-form index arrays (form applied to the digit-encoded assignment
    grid) are the hot path; they are cached whenever the grid is small enough
    and recomputed per chunk otherwise, one form at a time, so an uncached
    chunk holds one action, not r.  Each norm check (`gvn_check`,
    `reduction.numeric_step_check`, `lambda_average`) builds its own
    evaluator; none is kept across checks.  `value` takes FunctionTables and
    checks them; the trial-block loops call `average` on one trial's rows of
    a block, unchecked, and get the same bits as `value` on that tuple.
    """

    def __init__(self, system: LinearSystem, n: int, point_guard: int = DEFAULT_POINT_GUARD):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        p, d = int(system.p), system.d
        # p^(n·d) >= 2^(n·d), so a large n is refused without computing p^n
        if n * d >= point_guard.bit_length() or p ** (n * d) > point_guard:
            raise EnumerationGuardExceeded(
                f"(p^n)^d = ({p}^{n})^{d} assignment points exceed the guard {point_guard}"
            )
        self.system = system
        self.n = n
        self.group_size = p**n
        self.total = self.group_size**d
        # the digit-group tables of every form action: ADD, and MUL[c], MUL[c⁻¹] per coefficient c ∉ {0, 1}
        b = _group_width(p, n)
        self._radix, self._blocks = p**b, n // b
        self._add = shift_matrix(p, b)
        digits = digit_matrix(np.arange(self._radix, dtype=np.int64), p, b)
        self._muls = {
            c: tuple(encode_point([e * x for x in digits], p) for e in (c, pow(c, -1, p)))
            for c in {c for form in system.forms for c in form} - {0, 1}
        }
        self._cached_actions = None
        if self.total * system.r <= 1 << 23:
            self._cached_actions = self._actions(0, self.total)

    def _actions(self, start: int, stop: int) -> list[np.ndarray]:
        """Each form's `_action` on the assignments start, ..., stop - 1."""
        return [self._action(form, start, stop) for form in self.system.forms]

    def _action(self, form, start: int, stop: int) -> np.ndarray:
        """The form's action on the assignments start, ..., stop - 1, by row gathers.

        The assignment index is read in digit groups of b coordinates (radix
        Q = p^b, b from _group_width): group g is coordinate block g % B of
        variable g // B, with B = n / b blocks per variable.  Indices in a
        run of Q consecutive assignments differ only in the lowest group, so
        over a run a form with coefficient c there adds c·u, u = 0, ..., Q - 1,
        to the run's value w in that block: w + c·u = c·(c⁻¹·w + u) is row
        c⁻¹·w of ADD = shift_matrix(p, b) mapped through MUL[c] (x ↦ c·x),
        which is row w of ADD itself when c = 1, and a zero coefficient
        repeats w.  The groups are added from the highest down, each on the
        range [lo // Q, ceil(hi / Q)) of the group above it, with the
        unaligned edges sliced off.
        """
        q, blocks = self._radix, self._blocks
        acts = np.zeros(1, dtype=np.int64)  # the one run above the highest group
        for g in reversed(range(self.system.d * blocks)):
            c, scale = form[g // blocks], q ** (g % blocks)
            lo, hi = start // q**g, -(-stop // q**g)
            w = acts // scale % q if blocks > 1 else acts  # the run's value in the group's block
            if c == 1:
                runs = self._add.take(w, axis=0)
            elif c:
                mul, inverse = self._muls[c]
                runs = mul.take(self._add.take(inverse.take(w), axis=0))
            else:
                runs = np.broadcast_to(w[:, None], (len(w), q))
            if blocks > 1:  # the run's other blocks pass through
                runs = runs * scale + (acts - w * scale)[:, None]
            acts = runs.ravel()[lo % q : lo % q + hi - lo]
        return acts

    def stack(self, tables) -> np.ndarray:
        """The tables' values as one (r, p^n) array, after checking their count and group."""
        if len(tables) != self.system.r:
            raise ValueError(f"expected {self.system.r} tables, got {len(tables)}")
        for f in tables:
            if f.p != int(self.system.p) or f.n != self.n:
                raise ValueError("table group mismatch")
        return np.stack([f.values for f in tables])

    def value(self, tables, conjugated=None) -> complex:
        return self.average(self.stack(tables), conjugated)

    def average(self, rows, conjugated=None) -> complex:
        """The average for the value rows of one tuple, in form order, unchecked."""
        flags = conjugated if conjugated is not None else [False] * len(rows)
        reals: list[float] = []
        imags: list[float] = []
        cached, forms = self._cached_actions, self.system.forms
        for start in range(0, self.total, _CHUNK):
            stop = min(start + _CHUNK, self.total)
            prod = np.ones(stop - start, dtype=np.complex128)
            for i, row in enumerate(rows):
                acts = cached[i][start:stop] if cached is not None else self._action(forms[i], start, stop)
                gathered = row.take(acts)
                if flags[i]:
                    np.conjugate(gathered, out=gathered)
                prod *= gathered
                del acts, gathered  # uncached, a form's action is dropped before the next one is built
            s = prod.sum()
            reals.append(float(s.real))
            imags.append(float(s.imag))
        return complex(math.fsum(reals), math.fsum(imags)) / self.total


def _group_width(p: int, n: int) -> int:
    """Coordinates per digit group: the largest divisor b of n whose p^b × p^b
    tables fit _TABLE_BUDGET entries, or 1 when none does."""
    return max(b for b in range(1, n + 1) if n % b == 0 and (b == 1 or p ** (2 * b) <= _TABLE_BUDGET))


def lambda_average(
    system: LinearSystem,
    tables,
    conjugated=None,
    point_guard: int = DEFAULT_POINT_GUARD,
) -> complex:
    """Exact mean of Π f_i(ψ_i(x_1..x_d)) over all assignments in (F_p^n)^d."""
    return LambdaEvaluator(system, tables[0].n, point_guard).value(tables, conjugated)


# ---------------------------------------------------------------------------
# uniformity norms

_shift_cache: dict = {}


def shift_matrix(p: int, n: int) -> np.ndarray:
    """SHIFT[h, x] = index of x + h; cached per group.

    Built one row at a time, so the only size × size array is the result.
    The cache holds at most _CACHE_BYTE_CAP bytes and evicts its oldest
    entries first; a matrix larger than the cap on its own is not cached.
    The bytes held are summed from the cache's contents, so a cache emptied
    from outside is accounted correctly.
    """
    key = (p, n)
    out = _shift_cache.get(key)
    if out is None:
        size = p**n
        if size * size > 1 << 24:
            raise EnumerationGuardExceeded(f"shift matrix for group of size {size} too large")
        xd = digit_matrix(np.arange(size, dtype=np.int64), p, n)
        out = np.empty((size, size), dtype=np.int64)
        for h in range(size):
            out[h] = encode_point([x + c for x, c in zip(xd, digit_matrix(h, p, n))], p)
        if out.nbytes <= _CACHE_BYTE_CAP:
            while _shift_cache and sum(a.nbytes for a in _shift_cache.values()) + out.nbytes > _CACHE_BYTE_CAP:
                del _shift_cache[next(iter(_shift_cache))]
            _shift_cache[key] = out
    return out


def _negation_pairs(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One representative h <= −h of each pair {h, −h} in F_p^n, weighted by the pair's size."""
    idx = np.arange(p**n, dtype=np.int64)
    neg = encode_point([-x for x in digit_matrix(idx, p, n)], p)
    reps = idx[idx <= neg]
    return reps, np.where(reps == neg[reps], 1, 2)


def _segments(last: np.ndarray, end: int, cap: int):
    """Blocks (a, b, count): the first `count` prefixes times the rep indices a..b-1.

    `last` holds the last index of each prefix, nondecreasing, so the prefixes
    that index j extends (last <= j) are the first parents[j].  A block takes
    the indices a..b-1 with the prefixes of b-1.  Its pairs with j < last are
    dropped by the caller: they cost work but save calls, so a block is widened
    only while it holds at most `cap` pairs and at least half of them are kept.
    A chunk holds at most `cap` prefixes, so one index always fits.
    """
    parents = np.searchsorted(last, np.arange(end), side="right").tolist()
    a = int(last[0])
    while a < end:
        b, kept = a + 1, parents[a]
        while b < end and parents[b] * (b + 1 - a) <= min(cap, 2 * (kept + parents[b])):
            kept += parents[b]
            b += 1
        yield a, b, parents[b - 1]
        a = b


def _u_power_batch(
    batch: np.ndarray, k: int, shift: np.ndarray, reps: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """‖g‖_{U^k}^{2^k} (k >= 2) for each row g of `batch`, summed over nondecreasing shift tuples.

    ‖g‖_{U^k}^{2^k} = E_{h_1..h_m} |E_x Δ_{h_1}…Δ_{h_m} g(x)|² with m = k − 1 and
    Δ_h g(x) = g(x+h)·conj(g(x)).  The leaf value is symmetric in the shifts, and
    Δ_{−h}g is a translate of conj(Δ_h g), so the sum runs over nondecreasing
    tuples i_1 <= ... <= i_m of indices into `reps`, each weighted by its number
    of orderings m!/∏c! (c the lengths of its runs of equal indices) times
    ∏ weights[i_t].  These weights are exact integers that add up to size^m;
    the orderings factor is built level by level, t/c for the t-th index when
    it is the c-th of its run.

    The walk is depth first.  It holds a chunk of the rows derived along
    prefixes of one length as a (prefixes, rows, size) array sorted by last
    index, so each `_segments` block is one broadcast gather; a leaf block's
    sums over x are one einsum.  Every working array holds at most
    _BATCH_BUDGET entries, or one prefix when a prefix alone is larger.
    """
    nrows, size = batch.shape
    m = k - 1
    cap = max(1, _BATCH_BUDGET // (nrows * size))
    gather = shift[reps]
    end = len(reps)
    index = np.arange(end)
    acc = np.zeros(nrows)

    def walk(rows, last, run, coef, t):
        """Extend each prefix of length t in `rows` by every index from its last on."""
        nonlocal acc
        conj = rows.conj()
        # runs[p, j]: the run that index j ends on prefix p; coefs: the weight of p + (j), 0 for j < last
        runs = np.where(last[:, None] == index, run[:, None] + 1, 1)
        coefs = coef[:, None] * weights * (t + 1) // runs * (last[:, None] <= index)
        leaf = t + 1 == m
        if not leaf:
            buf = np.empty((min(cap, int((end - last).sum())), nrows, size), dtype=np.complex128)
            fill, meta = 0, []
        for a, b, count in _segments(last, end, cap):
            grown = np.take(rows[:count], gather[a:b], axis=2)  # (count, nrows, b - a, size)
            if leaf:
                sums = np.einsum("pryx,prx->pry", grown, conj[:count])
                acc += np.einsum("pry,py->r", sums.real**2 + sums.imag**2, coefs[:count, a:b])
                continue
            keep = coefs[:count, a:b].T > 0  # children in order of their last index
            kept = int(keep.sum())
            if fill + kept > len(buf):
                walk(buf[:fill], *map(np.concatenate, zip(*meta)), t + 1)
                fill, meta = 0, []
            grown = grown.transpose(2, 0, 1, 3)
            out = buf[fill : fill + kept]
            if kept == keep.size:
                np.multiply(grown, conj[:count], out=out.reshape(grown.shape))
            else:
                out[...] = (grown * conj[:count])[keep]
            meta.append((np.nonzero(keep)[0] + a, runs[:count, a:b].T[keep], coefs[:count, a:b].T[keep]))
            fill += kept
        if not leaf and fill:
            walk(buf[:fill], *map(np.concatenate, zip(*meta)), t + 1)

    one = np.zeros(1, dtype=np.int64)
    walk(batch[None], one, one, one + 1, 0)
    return acc / float(size) ** (m + 2)  # the leaves are |size · mean|²


def _norm_kernel(p: int, n: int, k: int, point_guard: int = DEFAULT_POINT_GUARD):
    """The shift matrix and ±h pairs of the U^k recursion on F_p^n, once its
    arguments pass: k >= 2, n >= 1, k <= UK_CAP and p^n <= point_guard."""
    if k < 2:
        raise ValueError("uniformity norm defined here for k >= 2")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k > UK_CAP:
        raise EnumerationGuardExceeded(f"k={k} above cap {UK_CAP}")
    if p**n > point_guard:
        raise EnumerationGuardExceeded("group too large for norm enumeration")
    return (shift_matrix(p, n), *_negation_pairs(p, n))


def _gowers_rows(rows: np.ndarray, k: int, kernel) -> list[float]:
    """U^k norm of each row of `rows`, with the `_norm_kernel` of their group.

    The 2^k-power average is real and nonnegative in exact arithmetic;
    negative roundoff is clamped to zero before taking the root.  A sum that
    overflows float64 is refused with a ValueError, not reported as inf or NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a non-finite sum
        raws = _u_power_batch(rows, k, *kernel)
    if not np.isfinite(raws).all():
        raise ValueError(
            f"the U^{k} norm overflows float64: it multiplies 2^{k} table values, "
            f"and the largest |value| is {np.abs(rows).max():.3g}"
        )
    norms = []
    for raw in raws.tolist():
        if raw < 0:
            log.debug("clamping negative U^%d power average %.3e to 0", k, raw)
            raw = 0.0
        norms.append(raw ** (1.0 / (1 << k)))
    return norms


def gowers_norm(f: FunctionTable, k: int, point_guard: int = DEFAULT_POINT_GUARD) -> float:
    """U^k norm (k >= 2) via the multiplicative-derivative recursion."""
    return _gowers_rows(f.values[None, :], k, _norm_kernel(f.p, f.n, k, point_guard))[0]


def gowers_norm_direct(f: FunctionTable, k: int, point_guard: int = DEFAULT_POINT_GUARD) -> float:
    """Independent oracle: the full 2^k-fold corner sum over x, h_1, ..., h_k.

    Blocks of h-tuples in itertools.product order, one row sum per tuple, and its
    own addition table add[a, x] = index of a + x; no recursion, no ±h pairing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    size = f.size
    if size ** (k + 1) > point_guard:
        raise EnumerationGuardExceeded("direct norm enumeration exceeds the guard")
    shape = (f.p,) * f.n + (1,)  # the unit axis lets F_p^0 unravel too
    digits = np.unravel_index(np.arange(size), shape, order="F")
    add = np.empty((size, size), dtype=np.intp)
    for a in range(size):  # row by row, so the only size × size array is add
        add[a] = np.ravel_multi_index([(x + x[a]) % f.p for x in digits], shape, order="F")
    block = max(1, _BATCH_BUDGET // size)
    reals: list[float] = []
    for start in range(0, size**k, block):
        hs = np.unravel_index(np.arange(start, min(start + block, size**k)), (size,) * k)
        prod = np.ones((len(hs[0]), size), dtype=np.complex128)
        for bits in range(1 << k):
            corner = np.zeros(len(hs[0]), dtype=np.intp)
            for t in range(k):
                if bits >> t & 1:
                    corner = add[corner, hs[t]]
            gathered = f.values[add[corner]]
            prod *= gathered.conj() if bin(bits).count("1") % 2 else gathered
        reals.extend(prod.sum(axis=1).real.tolist())
    raw = math.fsum(reals) / size ** (k + 1)
    if raw < 0:
        log.debug("clamping negative direct U^%d power average %.3e to 0", k, raw)
        raw = 0.0
    return raw ** (1.0 / (1 << k))


# ---------------------------------------------------------------------------
# generalized von Neumann harness

@dataclass
class GvnReport:
    system_hash: str
    i: int
    k: int
    ell: int
    n: int
    exponent: float
    family: str
    trials: int
    seed: int
    tolerance: float
    records: list[dict]
    max_violation: float
    passed: bool

    def to_json(self) -> dict:
        # `asdict` without its deep copy, which costs about 1 ms on a 100-trial report
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _draw_trials(system: LinearSystem, n: int, family: str, seed: int, start: int, stop: int) -> np.ndarray:
    """The tuples of trials start, ..., stop - 1 as a (stop - start, r, p^n) array.

    Trial t draws its r tables in form order from one generator,
    default_rng(SeedSequence(seed, spawn_key=(t,))), the t-th child of
    SeedSequence(seed).spawn.  "random" cycles phases, disk, signs, sparse
    over the forms, and a TABLE_FAMILIES name draws every table from that
    family.  "ones" gives constant tables; "character-lead" draws a
    character, then phase tables.
    """
    p, r = int(system.p), system.r
    out = np.ones((stop - start, r, p**n), dtype=np.complex128)
    if family == "ones":
        return out
    if family == "character-lead":
        names = ["character"] + ["phases"] * (r - 1)
    elif family == "random":
        names = [("phases", "disk", "signs", "sparse")[j % 4] for j in range(r)]
    elif family in TABLE_FAMILIES:
        names = [family] * r
    else:
        raise ValueError(f"unknown family: {family}")
    draws = [TABLE_FAMILIES[name] for name in names]
    for t, tup in enumerate(out, start):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        for j, draw in enumerate(draws):
            tup[j] = draw(p, n, rng)
    return out


def _trial_blocks(system: LinearSystem, n: int, family: str, seed: int, trials: int):
    """`_draw_trials` over trials 0, ..., trials - 1, in blocks of at most
    _BATCH_BUDGET entries (one trial at least), so memory does not grow with trials."""
    per_block = max(1, _BATCH_BUDGET // (system.r * int(system.p) ** n))
    for start in range(0, trials, per_block):
        yield _draw_trials(system, n, family, seed, start, min(trials, start + per_block))


def check_trials(trials: int, seed: int) -> None:
    """Refuse a trial count below 1 or a negative seed by name."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_tolerance(tol: float) -> None:
    """Refuse a NaN, infinite or negative tolerance by name."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def gvn_check(
    system: LinearSystem,
    i: int,
    k: int,
    ell: int,
    n: int,
    family: str = "random",
    trials: int = 100,
    seed: int = 0,
    tables=None,
    tol: float = 1e-9,
    point_guard: int = DEFAULT_POINT_GUARD,
) -> GvnReport:
    """Check |Λ(f_1..f_r)| <= ‖f_i‖_{U^{k+1}}^{2^{1-ell}} over drawn tuples.

    With `tables` given (family "counterexample"/"fixed"), the supplied tuple
    is evaluated once instead of sampling.
    """
    check_trials(trials, seed)
    check_tolerance(tol)
    for name, value in (("k", k), ("ell", ell)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    exponent = 2.0 ** (1 - ell)
    evaluator = LambdaEvaluator(system, n, point_guard)
    fixed = tables is not None
    n_trials = 1 if fixed else trials
    blocks = [evaluator.stack(tables)[None]] if fixed else _trial_blocks(system, n, family, seed, trials)
    kernel = _norm_kernel(int(system.p), n, k + 1, point_guard)
    records = []
    for block in blocks:
        for tup, norm in zip(block, _gowers_rows(block[:, i], k + 1, kernel)):
            lam = abs(evaluator.average(tup))
            records.append({"abs_lambda": lam, "norm": norm, "slack": norm**exponent - lam})
    max_violation = max(0.0, -min(rec["slack"] for rec in records))
    return GvnReport(
        system_hash=system.digest(),
        i=i,
        k=k,
        ell=ell,
        n=n,
        exponent=exponent,
        family="fixed" if fixed else family,
        trials=n_trials,
        seed=seed,
        tolerance=tol,
        records=records,
        max_violation=max_violation,
        passed=max_violation <= tol,
    )
