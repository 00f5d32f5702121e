import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seqcs.analysis as analysis
from seqcs.analysis import (
    EnumerationGuardExceeded,
    FunctionTable,
    LambdaEvaluator,
    character_table,
    digit_matrix,
    encode_point,
    gowers_norm,
    gowers_norm_direct,
    gvn_check,
    lambda_average,
    quadratic_table,
    random_one_bounded,
    tensor_product_table,
)
from seqcs.systems import LinearSystem, validate

PHI31 = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})


class _FormCoordinates:
    """A form's n coordinates over decoded assignments, each built when encode_point indexes it."""

    def __init__(self, form, digits: list[np.ndarray], n: int):
        self.form, self.digits, self.n = form, digits, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, t: int) -> np.ndarray:
        coord = None
        for j, c in enumerate(self.form):
            if c:
                term = self.digits[j * self.n + t]
                if coord is None:
                    coord = c * term  # a new array, so += below never writes into digits
                else:
                    coord += term if c == 1 else c * term
        return np.zeros_like(self.digits[t]) if coord is None else coord


def reference_actions(evaluator, start, stop):
    """Oracle of LambdaEvaluator._actions: every form's coordinates built digit by digit."""
    p, d, n = int(evaluator.system.p), evaluator.system.d, evaluator.n
    # digit j·n + t of an assignment index is coordinate t of variable j
    digits = digit_matrix(np.arange(start, stop, dtype=np.int64), p, d * n)
    return [encode_point(_FormCoordinates(form, digits, n), p) for form in evaluator.system.forms]


def lambda_oracle(system, tables):
    """Pure-python enumeration of the form average (independent of numpy path)."""
    p, n = tables[0].p, tables[0].n
    size = p**n
    d = system.d

    def decode(idx):
        return [(idx // p**t) % p for t in range(n)]

    total = 0j
    for assign in product(range(size), repeat=d):
        digits = [decode(v) for v in assign]
        term = 1 + 0j
        for i, form in enumerate(system.forms):
            out = 0
            for t in range(n):
                acc = sum(form[j] * digits[j][t] for j in range(d)) % p
                out += acc * p**t
            term *= complex(tables[i].values[out])
        total += term
    return total / size**d


def test_lambda_constant_functions():
    ones = [FunctionTable.constant(5, 1) for _ in range(3)]
    assert lambda_average(PHI31, ones) == pytest.approx(1.0)


def test_lambda_indicator_progressions():
    # only the trivial progression (0,0,0) lies inside {0}: 1 of 25 assignments
    ind = FunctionTable.indicator(5, 1, [(0,)])
    value = lambda_average(PHI31, [ind] * 3)
    assert value == pytest.approx(1 / 25, abs=1e-15)
    assert lambda_oracle(PHI31, [ind] * 3) == pytest.approx(1 / 25, abs=1e-15)


def test_lambda_matches_oracle_random():
    rng = random.Random(3)
    for _ in range(12):
        p = rng.choice([2, 3, 5])
        r, d = rng.randint(1, 4), rng.randint(1, 3)
        sys_ = LinearSystem(
            validate({"p": p, "forms": [[1] * d]}).p,
            tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(r)),
        )
        tables = [random_one_bounded(p, 1, [50, _, j], "disk") for j in range(r)]
        assert lambda_average(sys_, tables) == pytest.approx(lambda_oracle(sys_, tables), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_lambda_matches_oracle_on_larger_groups(n, monkeypatch):
    import seqcs.analysis as mod

    rng = random.Random(60 + n)
    for trial in range(8):
        p = rng.choice([2, 3] if n == 3 else [2, 3, 5])
        d = rng.randint(1, 3 if p**n < 10 else 2)
        r = rng.randint(1, 4)
        sys_ = LinearSystem(
            validate({"p": p, "forms": [[1] * d]}).p,
            tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(r)),
        )
        tables = [random_one_bounded(p, n, [61, trial, j], "disk") for j in range(r)]
        expected = lambda_oracle(sys_, tables)
        evaluator = LambdaEvaluator(sys_, n)
        assert evaluator.value(tables) == pytest.approx(expected, abs=1e-12)
        # the uncached path recomputes the form actions chunk by chunk
        evaluator._cached_actions = None
        with monkeypatch.context() as mp:
            mp.setattr(mod, "_CHUNK", 7)
            assert evaluator.value(tables) == pytest.approx(expected, abs=1e-12)


def test_encode_point_and_digit_matrix_round_trip():
    for p, n in [(2, 1), (2, 4), (3, 3), (5, 2), (7, 3)]:
        idx = np.arange(p**n)
        digits = digit_matrix(idx, p, n)
        expected = [[i // p**t % p for i in range(p**n)] for t in range(n)]
        assert [list(col) for col in digits] == expected
        assert np.array_equal(encode_point(digits, p), idx)
        for i in range(p**n):
            point = tuple(int(c) for c in digit_matrix(i, p, n))
            assert point == tuple(col[i] for col in expected)
            assert encode_point(point, p) == i
            # digits are reduced mod p on the way in
            assert encode_point(tuple(c - p for c in point), p) == i


def test_lambda_conjugation_flags():
    tables = [random_one_bounded(5, 1, [1, j], "phases") for j in range(3)]
    flipped = [t.conjugate() for t in tables]
    a = lambda_average(PHI31, tables, conjugated=[True, True, True])
    b = lambda_average(PHI31, flipped)
    assert a == pytest.approx(b, abs=1e-15)


def test_lambda_phase_invariance():
    tables = [random_one_bounded(5, 1, [2, j], "disk") for j in range(3)]
    rotated = [
        FunctionTable(5, 1, t.values * np.exp(2j * np.pi * 0.37 * (j + 1)))
        for j, t in enumerate(tables)
    ]
    assert abs(lambda_average(PHI31, tables)) == pytest.approx(
        abs(lambda_average(PHI31, rotated)), abs=1e-13
    )


def test_lambda_guard():
    with pytest.raises(EnumerationGuardExceeded):
        lambda_average(PHI31, [FunctionTable.constant(5, 1)] * 3, point_guard=10)


def test_gowers_constant_is_one():
    f = FunctionTable.constant(3, 2)
    for k in (2, 3, 4):
        assert gowers_norm(f, k) == pytest.approx(1.0, abs=1e-12)


def test_gowers_character_u2_is_one():
    f = character_table(5, 1, [1])
    assert gowers_norm(f, 2) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.mean(f.values)) < 1e-12  # but its plain average vanishes


def test_gowers_quadratic_phase_value():
    # the U^2 norm of a nondegenerate quadratic phase on F_5 is 5^(-1/4)
    f = quadratic_table(5, 1, [[1]])
    expected = 5 ** (-1 / 4)
    assert gowers_norm(f, 2) == pytest.approx(expected, abs=1e-12)
    assert gowers_norm_direct(f, 2) == pytest.approx(expected, abs=1e-12)
    # and its U^3 norm is 1: the third derivative of a quadratic is constant
    assert gowers_norm(f, 3) == pytest.approx(1.0, abs=1e-12)


def test_gowers_indicator_direct_value():
    # additive quadruples inside {0} in F_3: only the trivial one out of 27
    f = FunctionTable.indicator(3, 1, [(0,)])
    assert gowers_norm_direct(f, 2) == pytest.approx((1 / 27) ** 0.25, abs=1e-12)


def test_gowers_norm_k_validation():
    f = FunctionTable.constant(3, 1)
    with pytest.raises(ValueError):
        gowers_norm(f, 1)
    with pytest.raises(EnumerationGuardExceeded):
        gowers_norm(f, 9)
    with pytest.raises(ValueError):
        gowers_norm_direct(f, 0)
    with pytest.raises(EnumerationGuardExceeded):
        gowers_norm_direct(f, 3, point_guard=3**4 - 1)
    assert gowers_norm_direct(f, 3, point_guard=3**4) == pytest.approx(1.0, abs=1e-12)


def test_norm_checks_need_a_group_and_a_trial():
    """F_p^0 and an empty trial list are refused by name, not met by a crash."""
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            LambdaEvaluator(PHI31, n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            gvn_check(PHI31, 0, 1, 1, n, trials=2)
    with pytest.raises(ValueError, match="n must be >= 1"):
        gowers_norm(FunctionTable(3, 0, np.ones(1)), 2)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            gvn_check(PHI31, 0, 1, 1, 1, trials=trials)


def test_gowers_oracle_equivalence():
    cases = [(2, 1, 2), (3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3), (5, 1, 2), (5, 2, 2)]
    for idx, (p, n, k) in enumerate(cases):
        for t in range(10):
            f = random_one_bounded(p, n, [77, idx, t], ("phases", "disk", "signs", "sparse")[t % 4])
            a = gowers_norm(f, k)
            b = gowers_norm_direct(f, k)
            assert abs(a - b) <= 1e-10, (p, n, k, t)


def test_gowers_nesting():
    for t in range(8):
        f = random_one_bounded(3, 2, [5, t], "disk")
        u2, u3 = gowers_norm(f, 2), gowers_norm(f, 3)
        assert u2 <= u3 + 1e-12
        assert u3 <= 1 + 1e-12


def test_tensor_multiplicativity():
    for t in range(5):
        f = random_one_bounded(3, 1, [21, t], "phases")
        for ell in (2, 3):
            g = tensor_product_table(f, ell)
            assert g.n == ell
            for k in (2, 3):
                assert gowers_norm(g, k) == pytest.approx(gowers_norm(f, k) ** ell, abs=1e-10)


def test_tensor_product_table_values():
    f = FunctionTable(2, 1, np.array([1.0, 1j]))
    g = tensor_product_table(f, 2)
    for y2 in range(2):
        for y1 in range(2):
            assert g.values[encode_point((y1, y2), 2)] == pytest.approx(
                f.values[y1] * f.values[y2]
            )


def test_random_tables_deterministic_and_bounded():
    a = random_one_bounded(5, 1, 42, "phases")
    b = random_one_bounded(5, 1, 42, "phases")
    assert np.array_equal(a.values, b.values)
    assert np.allclose(np.abs(a.values), 1.0)
    disk = random_one_bounded(5, 2, 1, "disk")
    assert np.max(np.abs(disk.values)) <= 1.0
    signs = random_one_bounded(5, 1, 1, "signs")
    assert set(np.round(signs.values.real)) <= {-1.0, 1.0}
    sparse = random_one_bounded(5, 2, 1, "sparse")
    assert set(np.round(sparse.values.real)) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        random_one_bounded(5, 1, 0, "nope")
    with pytest.raises(ValueError, match="unknown family: nope"):
        analysis._draw_trials(PHI31, 1, "nope", 0, 0, 1)


def test_gvn_check_progression_families():
    for family in ("random", "character", "quadratic-phase"):
        report = gvn_check(PHI31, 0, 1, 1, 1, family=family, trials=25, seed=11)
        assert report.passed, family
        assert report.exponent == 1.0
        assert len(report.records) == 25
    rep = gvn_check(PHI31, 1, 1, 2, 1, trials=10, seed=11)
    assert rep.exponent == 0.5 and rep.passed


def test_gvn_report_serializes():
    report = gvn_check(PHI31, 0, 1, 1, 1, trials=3, seed=0)
    blob = report.to_json()
    assert list(blob) == ["system_hash", "i", "k", "ell", "n", "exponent", "family", "trials", "seed", "tolerance",
                          "records", "max_violation", "passed"]
    assert blob["trials"] == 3 and blob["passed"] is True and blob["tolerance"] == 1e-9
    assert all("slack" in rec for rec in blob["records"])


def test_norm_recursion_chunked_path_matches(monkeypatch):
    import seqcs.analysis as mod

    f = random_one_bounded(5, 1, [91], "disk")
    full = gowers_norm(f, 3)
    monkeypatch.setattr(mod, "_BATCH_BUDGET", 16)  # force blocks of one shift
    assert gowers_norm(f, 3) == pytest.approx(full, abs=1e-13)


def test_lambda_chunked_path_matches(monkeypatch):
    import seqcs.analysis as mod

    tables = [random_one_bounded(5, 1, [92, j], "phases") for j in range(3)]
    full = lambda_average(PHI31, tables)
    monkeypatch.setattr(mod, "_CHUNK", 7)
    chunked = mod.LambdaEvaluator(PHI31, 1).value(tables)
    assert chunked == pytest.approx(full, abs=1e-14)


def test_chunked_lambda_holds_one_form_action_at_a_time(monkeypatch):
    """Uncached, a chunk's peak is the product and one form's gather, not r actions:
    below 6 complex chunks at r = 24, with the cached evaluator's bits."""
    import seqcs.analysis as mod

    rng = random.Random(93)
    p, n, d, r = 3, 2, 5, 24
    system = LinearSystem(p, tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(r)))
    monkeypatch.setattr(mod, "_CHUNK", 1 << 14)
    cached = LambdaEvaluator(system, n)
    assert cached._cached_actions is not None and cached.total > 3 * mod._CHUNK
    rows = np.stack([random_one_bounded(p, n, [93, j], "disk").values for j in range(r)])
    flags = [j % 3 == 0 for j in range(r)]
    chunked = LambdaEvaluator(system, n)
    chunked._cached_actions = None
    chunked.average(rows, flags)  # warm numpy's own first-call allocations
    tracemalloc.start()
    try:
        value = chunked.average(rows, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * mod._CHUNK * 16
    expected = cached.average(rows, flags)
    assert (value.real, value.imag) == (expected.real, expected.imag)


def test_form_actions_follow_the_digit_formula(monkeypatch):
    """Cached and chunked actions are exactly the base-p formula, zero form and coefficient 2 included."""
    import seqcs.analysis as mod

    system = validate({"p": 3, "forms": [[1, 2, 0], [0, 0, 0], [2, 1, 1], [1, 1, 1]]})
    p, n, d = 3, 2, 3
    idx = np.arange(p ** (n * d))
    expected = [
        sum((sum(c * (idx // p ** (j * n + t) % p) for j, c in enumerate(form)) % p) * p**t for t in range(n))
        for form in system.forms
    ]
    cached = LambdaEvaluator(system, n)._cached_actions
    monkeypatch.setattr(mod, "_CHUNK", 7)
    evaluator = LambdaEvaluator(system, n)
    chunks = [evaluator._actions(s, min(s + 7, evaluator.total)) for s in range(0, evaluator.total, 7)]
    for i, want in enumerate(expected):
        assert cached[i].dtype == np.int64 and np.array_equal(cached[i], want)
        assert np.array_equal(np.concatenate([chunk[i] for chunk in chunks]), want)


def test_form_actions_hold_one_coordinate_at_a_time():
    """At n = 8 the peak is the r actions and a few temporaries of one form:
    the row gathers decode no digit arrays, and the addition table was cached
    when the evaluator was built."""
    system = validate({"p": 2, "forms": [[1, 0], [1, 1]]})
    n = 8
    evaluator = LambdaEvaluator(system, n)
    tracemalloc.start()
    try:
        evaluator._actions(0, evaluator.total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array_bytes = 8 * evaluator.total
    assert peak < (system.r + 6) * array_bytes


@st.composite
def action_instances(draw):
    """A system over F_p with zero columns and zero forms, a group F_p^n, a table
    budget that may force digit groups narrower than n, and an assignment range
    [start, stop) with unaligned edges."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    forms = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * d), min_size=1, max_size=4))
    zero_columns = draw(st.sets(st.integers(0, d - 1), max_size=d - 1))
    forms = [tuple(0 if j in zero_columns else c for j, c in enumerate(form)) for form in forms]
    if draw(st.booleans()):
        forms.insert(draw(st.integers(0, len(forms))), (0,) * d)
    budget = draw(st.sampled_from([1, p**2, p**4, p**8, analysis._TABLE_BUDGET]))
    total = p ** (n * d)
    start = draw(st.integers(0, total - 1))
    stop = draw(st.integers(start + 1, min(total, start + 3000)))
    return LinearSystem(p, tuple(forms)), n, budget, start, stop


@settings(max_examples=200)
@given(action_instances())
def test_form_actions_match_the_digit_oracle(instance):
    """Row gathers give the digit-by-digit actions exactly, on every range and group width."""
    system, n, budget, start, stop = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_TABLE_BUDGET", budget)
        # a guard at the group's size keeps large groups uncached and chunk-built
        evaluator = LambdaEvaluator(system, n, point_guard=int(system.p) ** (n * system.d))
        actions = evaluator._actions(start, stop)
    expected = reference_actions(evaluator, start, stop)
    for i, want in enumerate(expected):
        assert actions[i].dtype == np.int64 and np.array_equal(actions[i], want), (i, system.forms[i])
        if evaluator._cached_actions is not None:
            assert np.array_equal(evaluator._cached_actions[i][start:stop], want)


def test_group_width_is_the_largest_divisor_within_the_budget(monkeypatch):
    assert [analysis._group_width(5, n) for n in (1, 2, 3, 4)] == [1, 2, 3, 2]
    assert analysis._group_width(2, 8) == 8 and analysis._group_width(7, 3) == 3
    monkeypatch.setattr(analysis, "_TABLE_BUDGET", 3**4)
    assert [analysis._group_width(3, n) for n in (1, 2, 3, 4, 6)] == [1, 2, 1, 2, 2]
    monkeypatch.setattr(analysis, "_TABLE_BUDGET", 1)
    assert analysis._group_width(2, 4) == 1  # p × p tables when nothing fits


def test_huge_groups_are_refused_without_their_size():
    """n and ell far beyond the guard are refused by a bit-length bound, naming p^n or ell."""
    for n in (10**6, 10**9):
        with pytest.raises(EnumerationGuardExceeded, match=rf"\(5\^{n}\)\^2 assignment points"):
            LambdaEvaluator(PHI31, n)
    with pytest.raises(EnumerationGuardExceeded, match=r"ell = 1000000: .* 3\^1000000 entries"):
        tensor_product_table(FunctionTable.constant(3, 1), 10**6)
    with pytest.raises(EnumerationGuardExceeded, match=r"ell = 17: .* 3\^17 entries"):
        tensor_product_table(FunctionTable.constant(3, 1), 17)  # 3^17 > 1e8 > 3^16
    assert tensor_product_table(FunctionTable.constant(2, 1), 20).size == 2**20


def reference_one_bounded(p: int, n: int, seed, family: str = "phases") -> FunctionTable:
    """Oracle of random_one_bounded for the first four families: the if-chain before the registry."""
    rng = np.random.default_rng(seed)
    size = p**n
    if family == "phases":
        vals = np.exp(2j * np.pi * rng.random(size))
    elif family == "disk":
        radius = np.sqrt(rng.random(size))
        vals = radius * np.exp(2j * np.pi * rng.random(size))
    elif family == "signs":
        vals = (rng.integers(0, 2, size) * 2 - 1).astype(np.complex128)
    elif family == "sparse":
        vals = (rng.random(size) < 1.0 / p).astype(np.complex128)
    else:
        raise ValueError(f"unknown family: {family}")
    return FunctionTable(p, n, vals)


_GVN_FAMILIES = ("phases", "disk", "signs", "sparse")


def reference_draw(system, n: int, family: str, seed: int, trial: int):
    """Oracle of _draw_trials for one trial: the if-chain of families before the
    registry, every table of trial t from the generator SeedSequence(seed).spawn(t + 1)[t]."""
    p, r = int(system.p), system.r
    if family == "ones":
        return [FunctionTable.constant(p, n) for _ in range(r)]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(trial + 1)[trial])
    if family == "character-lead":
        freq = [int(rng.integers(0, p)) for _ in range(n)]
        return [character_table(p, n, freq)] + [reference_one_bounded(p, n, rng, "phases") for _ in range(1, r)]
    tables = []
    for j in range(system.r):
        if family == "random":
            tables.append(reference_one_bounded(p, n, rng, _GVN_FAMILIES[j % len(_GVN_FAMILIES)]))
        elif family in _GVN_FAMILIES:
            tables.append(reference_one_bounded(p, n, rng, family))
        elif family == "character":
            freq = [int(rng.integers(0, p)) for _ in range(n)]
            tables.append(character_table(p, n, freq))
        elif family == "quadratic-phase":
            quad = [[int(rng.integers(0, p)) for _ in range(n)] for _ in range(n)]
            lin = [int(rng.integers(0, p)) for _ in range(n)]
            tables.append(quadratic_table(p, n, quad, lin))
        else:
            raise ValueError(f"unknown family: {family}")
    return tables


DRAW_FAMILIES = ("random", "phases", "disk", "signs", "sparse", "character", "quadratic-phase", "ones",
                 "character-lead")


def test_table_families_are_the_registry_in_order():
    assert ("random", *analysis.TABLE_FAMILIES, "ones", "character-lead") == DRAW_FAMILIES


@settings(max_examples=300)
@given(
    st.sampled_from(DRAW_FAMILIES),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 2),
    st.integers(1, 6),
    st.integers(0, 2**128 - 1),
    st.integers(0, 64),
)
def test_draw_trials_matches_the_reference_drawer(family, p, n, r, seed, trial):
    """Every family draws bit for bit the tables of the reference drawer, on this machine."""
    system = LinearSystem(p, tuple((1, j) for j in range(r)))
    got = analysis._draw_trials(system, n, family, seed, trial, trial + 1)
    want = reference_draw(system, n, family, seed, trial)
    assert got.shape == (1, r, p**n) and len(want) == r
    for j, table in enumerate(want):
        assert np.array_equal(got[0, j], table.values), (family, j)


def test_seed_and_trial_words_do_not_collide():
    """Under the old [seed, t, j] rule, table 0 of seed 3·2^32 + 5, trial 7 was table 7
    of seed 5, trial 3 (SeedSequence pads short entropy with zero words).  Now the two
    trials share no table."""
    system = LinearSystem(5, tuple((1, j) for j in range(8)))
    late = analysis._draw_trials(system, 1, "phases", 3 * 2**32 + 5, 7, 8)[0]
    early = analysis._draw_trials(system, 1, "phases", 5, 3, 4)[0]
    assert not any(np.array_equal(a, b) for a in late for b in early)


REMARK_F7 = validate({"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]})


def drawn_tables(system, n, family, seed, trial):
    rows = analysis._draw_trials(system, n, family, seed, trial, trial + 1)[0]
    return [FunctionTable(int(system.p), n, row) for row in rows]


@pytest.mark.parametrize("system, i, k, ell, n, family", [
    (PHI31, 0, 1, 1, 2, "random"),
    (REMARK_F7, 5, 1, 2, 1, "disk"),
    (REMARK_F7, 0, 2, 1, 1, "character"),
])
def test_gvn_trials_equal_one_trial_runs(system, i, k, ell, n, family):
    """Trial t of a batched run has the Λ of its tuple alone bit for bit, and its norm to 1e-12 relative
    (the U^k sums of a batch of rows may take the per-shift path where one row does not)."""
    report = gvn_check(system, i, k, ell, n, family=family, trials=12, seed=3)
    first = gvn_check(system, i, k, ell, n, family=family, trials=1, seed=3).records[0]
    assert first["abs_lambda"] == report.records[0]["abs_lambda"]
    assert first["norm"] == pytest.approx(report.records[0]["norm"], rel=1e-12)
    for t, rec in enumerate(report.records):
        tables = drawn_tables(system, n, family, 3, t)
        assert rec["abs_lambda"] == abs(lambda_average(system, tables))
        assert rec["norm"] == pytest.approx(gowers_norm(tables[i], k + 1), rel=1e-12)


def test_gvn_trial_blocks_match_the_unblocked_run(monkeypatch):
    whole = gvn_check(REMARK_F7, 5, 2, 2, 1, family="random", trials=20, seed=4).records
    blocks = []
    draw = analysis._draw_trials
    monkeypatch.setattr(analysis, "_draw_trials", lambda *args: blocks.append(args[-2:]) or draw(*args))
    monkeypatch.setattr(analysis, "_BATCH_BUDGET", 3 * REMARK_F7.r * 7)  # three trials per block
    blocked = gvn_check(REMARK_F7, 5, 2, 2, 1, family="random", trials=20, seed=4).records
    assert blocks == [(start, min(start + 3, 20)) for start in range(0, 20, 3)]
    assert [rec["abs_lambda"] for rec in blocked] == [rec["abs_lambda"] for rec in whole]
    for a, b in zip(blocked, whole):
        assert a["norm"] == pytest.approx(b["norm"], rel=1e-12)
        assert a["slack"] == pytest.approx(b["slack"], abs=1e-12)


def test_trial_blocks_hold_at_most_the_budget(monkeypatch):
    """A block holds at most _BATCH_BUDGET entries, and one trial when a single tuple is larger."""
    system = LinearSystem(3, tuple((1, j) for j in range(4)))
    sizes = [block.shape for block in analysis._trial_blocks(system, 2, "signs", 0, 10**4)]
    assert sizes[0] == (analysis._BATCH_BUDGET // 36, 4, 9) and sum(s[0] for s in sizes) == 10**4
    monkeypatch.setattr(analysis, "_BATCH_BUDGET", 35)
    assert [block.shape for block in analysis._trial_blocks(system, 2, "ones", 0, 2)] == [(1, 4, 9)] * 2
