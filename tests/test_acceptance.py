"""Acceptance suite: one test per criterion, at the stated tolerance and
runtime budget.  Each test prints a single summary line; run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from itertools import combinations, product

from seqcs.analysis import (
    LambdaEvaluator,
    gowers_norm,
    gowers_norm_direct,
    gvn_check,
    lambda_average,
    random_one_bounded,
)
from seqcs.complexity import (
    WitnessCertificate,
    admissible_cover,
    sequential_witness,
    tensor_criterion,
    verify_witness,
)
from seqcs.covering import AffineCover, min_cover_excluding, verify_cover
from seqcs.field import in_affine_span, rank, vec_sub
from seqcs.phi_km import (
    counterexample_family,
    gray_code_check,
    phi_system,
    phi_witness,
    phi_witness_certificate,
    s_km_points,
)
from seqcs.reduction import cs_step, merged_cover_identities, numeric_step_check
from seqcs.systems import associated_set, validate

TOL_INEQ = 1e-9
TOL_IDENT = 1e-12
TOL_ORACLE = 1e-10

REMARK_F7 = validate({"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]})
REMARK_F23 = validate({"p": 23, "forms": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 10, 1], [1, 1, 2], [1, 2, 2]]})

FAMILIES = ("phases", "disk", "signs", "sparse")


def golden_length_two_witnesses():
    """Every golden system with a length-2 witness, as (system, witness) pairs."""
    pairs = []
    pairs.append((REMARK_F7, sequential_witness(REMARK_F7, 5, 1, 2)))

    phi31 = phi_system(5, 3, 1)
    c1 = admissible_cover(phi31, [0], 2)
    c2 = admissible_cover(phi31, [0, 2], 2)
    pairs.append((phi31, WitnessCertificate(phi31.digest(), 2, 1, (0, 2), (c1, c2))))

    phi62 = phi_system(5, 6, 2)
    points = s_km_points(5, 6, 2)
    i11, i00 = points.index((1, 1)), points.index((0, 0))
    c1 = admissible_cover(phi62, [i11], 5)
    c2 = admissible_cover(phi62, [i11, i00], 5)
    pairs.append((phi62, WitnessCertificate(phi62.digest(), i00, 4, (i11, i00), (c1, c2))))
    return pairs


def test_criterion_01_gowers_progression_bound():
    start = time.monotonic()
    worst = 0.0
    for k, p, n in product((3, 4), (5, 7), (1, 2)):
        system = phi_system(p, k, 1)
        evaluator = LambdaEvaluator(system, n)
        for trial in range(200):
            tables = [
                random_one_bounded(p, n, [101, k, p, n, trial, j], FAMILIES[(trial + j) % 4])
                for j in range(k)
            ]
            lam = abs(evaluator.value(tables))
            bound = min(gowers_norm(f, k - 1) for f in tables)
            worst = max(worst, lam - bound)
            assert lam <= bound + TOL_INEQ, (k, p, n, trial)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"\nPASS criterion 1: progression bound, worst slack deficit {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_main_inequality_remark_system():
    start = time.monotonic()
    worst = 0.0
    for i in range(REMARK_F7.r):
        witness = sequential_witness(REMARK_F7, i, 1, 2)
        assert witness is not None and witness.length <= 2
        assert verify_witness(REMARK_F7, witness).passed
        report = gvn_check(REMARK_F7, i, 1, 2, 1, family="random", trials=100, seed=202 + i)
        worst = max(worst, report.max_violation)
        assert report.max_violation <= TOL_INEQ, i
    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"PASS criterion 2: square-root bound at all indices, max violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_per_step_inequality():
    start = time.monotonic()
    worst = -1.0
    for system, witness in golden_length_two_witnesses():
        step = cs_step(system, witness)
        violation = numeric_step_check(step, n=1, trials=100, seed=303, family="phases")
        worst = max(worst, violation)
        assert violation <= TOL_INEQ, system.forms
    elapsed = time.monotonic() - start
    print(f"PASS criterion 3: per-step squared bound on golden systems, max violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_witness_propagation_and_merge_identities():
    start = time.monotonic()
    goldens = golden_length_two_witnesses()
    goldens.append((phi_system(3, 4, 2), phi_witness_certificate(3, 4, 2, at=(2, 1))))
    steps_checked = 0
    parts_checked = 0
    for system, witness in goldens:
        current_system, current_witness = system, witness
        while current_witness.length > 1:
            step = cs_step(current_system, current_witness)
            assert verify_witness(step.output_system, step.propagated).passed
            identities = merged_cover_identities(step)
            assert identities["passed"], identities["failures"]
            parts_checked += identities["parts_checked"]
            steps_checked += 1
            current_system, current_witness = step.output_system, step.propagated
    elapsed = time.monotonic() - start
    print(
        f"PASS criterion 4: propagation verified on {steps_checked} steps,"
        f" {parts_checked} merged parts rank-checked, {elapsed:.1f}s"
    )


def test_criterion_05_covering_lower_bounds():
    start = time.monotonic()
    pts62 = [z for z in s_km_points(5, 6, 2) if z != (0, 0)]
    infeasible = min_cover_excluding(5, 2, pts62, [(0, 0)], mode="hyperplanes-only", max_count=5)
    assert infeasible is None
    pts42 = [z for z in s_km_points(3, 4, 2) if z != (0, 0)]
    count, cover = min_cover_excluding(3, 2, pts42, [(0, 0)], mode="hyperplanes-only")
    assert count == 3 and verify_cover(cover)["passed"]
    elapsed = time.monotonic() - start
    assert elapsed < 5
    print(f"PASS criterion 5: no 5 nonzero lines over F_5; minimum 3 over F_3, {elapsed:.1f}s")


def test_criterion_06_witness_construction_grid():
    start = time.monotonic()
    cases = 0
    for p in (2, 3, 5):
        for M in (1, 2, 3):
            for k in range(1, min(M * (p - 1) + 1, 7) + 1):
                points = s_km_points(p, k, M)
                sequence, covers = phi_witness(p, k, M)
                assert len(sequence) == len(points)
                assert sequence[-1] == (0,) * M
                assert set(sequence) == set(points)
                for i in range(1, len(sequence) + 1):
                    assert len(covers[i - 1]) <= max(k - 1, 0)
                    prefix = sequence[:i]
                    rest = [z for z in points if z not in set(prefix)]
                    report = verify_cover(
                        AffineCover(p, M, tuple(covers[i - 1]), tuple(rest), tuple(prefix))
                    )
                    assert report["passed"], (p, k, M, i)
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"PASS criterion 6: {cases} (p,M,k) constructions fully verified, {elapsed:.1f}s")


def test_criterion_07_lower_bound_family():
    start = time.monotonic()
    p, M, k, w = 3, 2, 4, (2, 1)
    family = counterexample_family(p, k, M, w)
    system = phi_system(p, k, M)
    lam = lambda_average(system, family)
    assert abs(lam - 1) <= TOL_IDENT
    origin = s_km_points(p, k, M).index((0, 0))
    u2 = gowers_norm(family[origin], 2)
    delta = 1 - u2
    assert delta > 0
    fam2 = counterexample_family(p, k, M, w, ell=2)
    u2_squared = gowers_norm(fam2[origin], 2)
    assert abs(u2_squared - u2**2) <= TOL_ORACLE
    sigma = gray_code_check(p, k, M, w, trials=1000, seed=7)
    assert sigma == 0
    elapsed = time.monotonic() - start
    print(
        f"PASS criterion 7: average exactly 1 (err {abs(lam - 1):.1e}), norm gap delta={delta:.4f},"
        f" tensor norm multiplicative, 1000 cube sums vanish, {elapsed:.1f}s"
    )


def test_criterion_08_norm_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for p, n, k in [(3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (5, 1, 3)]:
        for t in range(50):
            f = random_one_bounded(p, n, [808, p, n, k, t], FAMILIES[t % 4])
            a = gowers_norm(f, k)
            b = gowers_norm_direct(f, k)
            worst = max(worst, abs(a - b))
            assert abs(a - b) <= TOL_ORACLE, (p, n, k, t)
    elapsed = time.monotonic() - start
    print(f"PASS criterion 8: recursive vs direct norms agree, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_09_tensor_criterion_progressions():
    start = time.monotonic()
    for p, k in [(5, 3), (5, 4), (5, 5), (7, 5)]:
        result = tensor_criterion(phi_system(p, k, 1), 6)
        assert result.value == k - 2, (p, k, result)
        # independent oracle: distinct interpolation nodes give the tensor-power
        # matrix rank min(#forms, power + 1) at every level
        for level, observed_rank in result.ranks:
            assert observed_rank == min(k, level + 2), (p, k, level)
    elapsed = time.monotonic() - start
    print(f"PASS criterion 9: tensor criterion equals k-2 with rank profile confirmed, {elapsed:.1f}s")


def test_criterion_10_negative_control_f23():
    start = time.monotonic()
    for max_len in range(1, 7):
        assert sequential_witness(REMARK_F23, 0, 1, max_len) is None
    points = associated_set(REMARK_F23).points
    assert len(set(points)) == 6
    for a, b, c in combinations(points, 3):
        assert not in_affine_span(c, [a, b], 23)
        # same fact via ranks: direction vectors of a collinear triple are dependent
        assert rank([vec_sub(b, a, 23), vec_sub(c, a, 23)], 23) == 2
    elapsed = time.monotonic() - start
    print(f"PASS criterion 10: no witness up to length 6; no collinear triple among 6 points, {elapsed:.1f}s")


def test_note_large_exponent_inequality_phi62():
    start = time.monotonic()
    phi62 = phi_system(5, 6, 2)
    origin = s_km_points(5, 6, 2).index((0, 0))
    report = gvn_check(phi62, origin, 4, 19, 1, family="random", trials=50, seed=1111)
    assert report.exponent == 2.0 ** (1 - 19)
    assert report.max_violation <= TOL_INEQ
    elapsed = time.monotonic() - start
    print(f"PASS note: exponent 2^-18 inequality holds over 50 tuples, {elapsed:.1f}s")
