import pytest

import seqcs.analysis as analysis
from seqcs.analysis import FunctionTable, lambda_average
from seqcs.complexity import WitnessCertificate, admissible_cover, sequential_witness, verify_witness
from seqcs.phi_km import phi_system, phi_witness_certificate, s_km_points
from seqcs.reduction import (
    InvalidWitness,
    build_chain,
    cs_step,
    merged_cover_identities,
    numeric_step_check,
)
from seqcs.systems import LinearSystem, validate

REMARK_F7 = validate({"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]})
PHI31 = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})


def occurrences(chain, original_index: int) -> list[tuple[int, bool]]:
    """The (slot, conjugated) pairs of the final system that carry one original function."""
    return [(slot, conj) for slot, (orig, conj) in enumerate(chain.slot_map) if orig == original_index]


def remark_witness():
    return sequential_witness(REMARK_F7, 5, 1, 2)


def phi31_artificial_witness():
    # a real length-2 witness with k=1 (no 1-part cover exists for any prefix,
    # so the smallest usable k here is 1)
    c1 = admissible_cover(PHI31, [0], 2)
    c2 = admissible_cover(PHI31, [0, 2], 2)
    return WitnessCertificate(PHI31.digest(), 2, 1, (0, 2), (c1, c2))


def phi62_short_witness():
    sys_ = phi_system(5, 6, 2)
    points = s_km_points(5, 6, 2)
    i11, i00 = points.index((1, 1)), points.index((0, 0))
    c1 = admissible_cover(sys_, [i11], 5)
    c2 = admissible_cover(sys_, [i11, i00], 5)
    return sys_, WitnessCertificate(sys_.digest(), i00, 4, (i11, i00), (c1, c2))


def test_step_shape_phi31():
    step = cs_step(PHI31, phi31_artificial_witness())
    assert step.output_system.r == 4 and step.output_system.d == 3


def test_step_shape_remark():
    step = cs_step(REMARK_F7, remark_witness())
    assert step.output_system.r == 10 and step.output_system.d == 5
    assert step.propagated.length == 1
    assert verify_witness(step.output_system, step.propagated).passed


def test_step_rejects_base_case():
    w = sequential_witness(REMARK_F7, 0, 1, 1)
    with pytest.raises(ValueError, match="base case"):
        cs_step(REMARK_F7, w)


def test_step_rejects_zero_first_form():
    # the zero form lies in every span, so no cover can exclude it
    from seqcs.complexity import CoverCertificate

    sys_ = validate({"p": 5, "forms": [[0, 0], [1, 0], [1, 1]]})
    c1 = CoverCertificate((0,), ((1, 2),), 1)
    c2 = CoverCertificate((0, 1), ((2,),), 1)
    fake = WitnessCertificate(sys_.digest(), 1, 1, (0, 1), (c1, c2))
    with pytest.raises(InvalidWitness) as err:
        cs_step(sys_, fake)
    assert any(f["kind"] == "span-contains-target" for f in err.value.report.failures)


def test_step_output_forms_structure():
    step = cs_step(REMARK_F7, remark_witness())
    d = REMARK_F7.d
    transformed = step.transformed_system.forms
    out = step.output_system.forms
    for pos in range(1, REMARK_F7.r):
        assert out[pos - 1] == transformed[pos] + (0,) * (d - 1)
        expected = (transformed[pos][0],) + (0,) * (d - 1) + transformed[pos][1:]
        assert out[pos + REMARK_F7.r - 2] == expected


def test_slot_table_structure():
    step = cs_step(REMARK_F7, remark_witness())
    r = REMARK_F7.r
    for j, slot in enumerate(step.slots):
        if j <= r - 2:
            assert (slot.source, slot.conjugated) == (j + 1, False)
        else:
            assert (slot.source, slot.conjugated) == (j - r + 2, True)


def test_merged_cover_identities_golden():
    for system, witness in [
        (REMARK_F7, remark_witness()),
        (PHI31, phi31_artificial_witness()),
        phi62_short_witness(),
    ]:
        step = cs_step(system, witness)
        result = merged_cover_identities(step)
        assert result["passed"], result["failures"]
        assert result["parts_checked"] > 0


def test_shape_law_multi_step_chain():
    cert = phi_witness_certificate(3, 4, 2, at=(2, 1))
    system = phi_system(3, 4, 2)
    assert cert.length == 3
    chain = build_chain(system, cert)
    assert len(chain.steps) == 2
    r, d = system.r, system.d
    for s, step in enumerate(chain.steps, start=1):
        assert step.output_system.r == 2 * step.input_system.r - 2
        assert step.output_system.d == 2 * step.input_system.d - 1
        assert step.output_system.r == (1 << s) * (r - 2) + 2
        assert step.output_system.d == (1 << s) * (d - 1) + 1


def test_chain_hashes_each_system_once(monkeypatch):
    # each step's output system is hashed by the step and again by the
    # verification of the next certificate; the digest is computed once
    cert = phi_witness_certificate(3, 4, 2, at=(2, 1))
    system = phi_system(3, 4, 2)
    hashed = []
    serialize = LinearSystem.canonical_json

    def counting(self):
        hashed.append(self)
        return serialize(self)

    monkeypatch.setattr(LinearSystem, "canonical_json", counting)
    chain = build_chain(system, cert)
    assert [id(s) for s in hashed] == [id(system)] + [id(step.output_system) for step in chain.steps]


def test_chain_base_case():
    w = sequential_witness(REMARK_F7, 0, 1, 1)
    chain = build_chain(REMARK_F7, w)
    assert chain.steps == ()
    assert chain.base_certificate == w.covers[0]
    assert chain.base_index == 0
    assert chain.slot_map == tuple((j, False) for j in range(6))


def test_chain_remark_slot_tracking():
    chain = build_chain(REMARK_F7, remark_witness())
    assert len(chain.steps) == 1
    assert chain.final_system.r == 10
    # the tracked function lands unconjugated at the base index
    assert chain.slot_map[chain.base_index] == (5, False)
    occ = occurrences(chain, 5)
    assert (chain.base_index, False) in occ and len(occ) == 2
    # the squared-away first witness form disappears from the final system
    assert occurrences(chain, 0) == []


def test_chain_truncation_cap():
    cert = phi_witness_certificate(3, 4, 2)
    system = phi_system(3, 4, 2)
    chain = build_chain(system, cert, max_forms=100)
    assert chain.truncated
    assert chain.base_certificate is None
    assert chain.final_system.r <= 100


def test_chain_full_depth_phi42():
    cert = phi_witness_certificate(3, 4, 2)
    system = phi_system(3, 4, 2)
    chain = build_chain(system, cert)
    assert len(chain.steps) == 7
    assert chain.final_system.r == (1 << 7) * 6 + 2
    assert chain.final_system.d == (1 << 7) * 2 + 1
    assert chain.base_certificate is not None
    assert len(chain.slot_map) == chain.final_system.r


def test_numeric_step_check_constants():
    step = cs_step(REMARK_F7, remark_witness())
    assert numeric_step_check(step, n=1, trials=1, family="ones") == pytest.approx(0.0, abs=1e-12)


def test_numeric_step_check_random_families():
    step = cs_step(REMARK_F7, remark_witness())
    assert numeric_step_check(step, n=1, trials=30, seed=5, family="phases") <= 1e-9
    assert numeric_step_check(step, n=1, trials=30, seed=6, family="disk") <= 1e-9
    assert numeric_step_check(step, n=1, trials=20, seed=7, family="character-lead") <= 1e-9


def test_numeric_step_check_needs_a_trial_and_a_group():
    step = cs_step(PHI31, phi31_artificial_witness())
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            numeric_step_check(step, n=1, trials=trials)
    with pytest.raises(ValueError, match="n must be >= 1"):
        numeric_step_check(step, n=0, trials=1)


def test_numeric_step_check_phi31():
    step = cs_step(PHI31, phi31_artificial_witness())
    assert numeric_step_check(step, n=1, trials=50, seed=1, family="phases") <= 1e-9
    assert numeric_step_check(step, n=2, trials=20, seed=2, family="disk") <= 1e-9


def test_numeric_step_check_dimension_two_f3():
    # three-term progression over F_3: the derived 4-form system stays small
    # enough for full n=2 enumeration
    sys_ = phi_system(3, 3, 1)
    c1 = admissible_cover(sys_, [0], 2)
    c2 = admissible_cover(sys_, [0, 2], 2)
    witness = WitnessCertificate(sys_.digest(), 2, 1, (0, 2), (c1, c2))
    step = cs_step(sys_, witness)
    assert numeric_step_check(step, n=2, trials=30, seed=9, family="phases") <= 1e-9
    assert numeric_step_check(step, n=2, trials=30, seed=10, family="disk") <= 1e-9


def test_chain_phi62_short_witness_one_step():
    system, witness = phi62_short_witness()
    chain = build_chain(system, witness)
    assert len(chain.steps) == 1
    assert chain.final_system.r == 36 and chain.final_system.d == 5
    assert chain.base_certificate is not None


def test_step_serialization_round_trip():
    step = cs_step(REMARK_F7, remark_witness())
    blob = step.to_json()
    assert blob["output"]["forms"] == [list(f) for f in step.output_system.forms]
    assert blob["permutation"] == list(step.permutation)
    chain = build_chain(REMARK_F7, remark_witness())
    cj = chain.to_json()
    assert cj["steps"][0]["slots"] == [[s.source, s.conjugated] for s in step.slots]


def test_chain_verifies_each_certificate_once(monkeypatch):
    from seqcs import reduction

    calls = []

    def counting(system, cert):
        calls.append(cert)
        return verify_witness(system, cert)

    monkeypatch.setattr(reduction, "verify_witness", counting)
    chain = build_chain(phi_system(3, 4, 2), phi_witness_certificate(3, 4, 2, at=(2, 1)))
    assert len(chain.steps) == 2
    assert len(calls) == len(chain.steps) + 1
    assert calls == [chain.witness] + [step.propagated for step in chain.steps]


def test_truncated_chain_without_steps_verifies_the_input_witness():
    cert = phi_witness_certificate(3, 4, 2)
    broken = WitnessCertificate(cert.system_hash, cert.i, cert.k, cert.sequence, cert.covers[:-1])
    with pytest.raises(InvalidWitness):
        build_chain(phi_system(3, 4, 2), broken, max_forms=4)


@pytest.mark.parametrize("case", ["mid-chain", "chain-end", "truncated-end"])
def test_corrupted_propagated_witness_raises_consistency_alarm(monkeypatch, case):
    from seqcs import reduction
    from seqcs.complexity import CoverCertificate

    relabel = reduction._relabel_cover

    def dropping(cover, new_index):
        out = relabel(cover, new_index)
        if not out.parts:
            return out
        widest = max(range(len(out.parts)), key=lambda t: len(out.parts[t]))
        parts = tuple(part[1:] if t == widest else part for t, part in enumerate(out.parts))
        return CoverCertificate(out.targets, parts, out.k)

    monkeypatch.setattr(reduction, "_relabel_cover", dropping)
    if case == "mid-chain":
        args = (phi_system(3, 4, 2), phi_witness_certificate(3, 4, 2, at=(2, 1)))
    elif case == "chain-end":
        args = (REMARK_F7, remark_witness())
    else:
        args = (phi_system(3, 4, 2), phi_witness_certificate(3, 4, 2), 20)
    with pytest.raises(AssertionError, match="internal consistency alarm"):
        build_chain(*args)


def test_numeric_step_check_is_the_worst_single_trial(monkeypatch):
    """The batched check returns bit for bit the worst of its trials taken one tuple at a
    time, in one block or in blocks of two trials."""
    step = cs_step(REMARK_F7, remark_witness())
    conj = [s.conjugated for s in step.slots]
    singles = []
    for t in range(9):
        rows = analysis._draw_trials(step.input_system, 1, "random", 2, t, t + 1)[0]
        tables = [FunctionTable(7, 1, row) for row in rows]
        lam_in = lambda_average(step.transformed_system, tables)
        lam_out = lambda_average(step.output_system, [tables[s.source] for s in step.slots], conj)
        singles.append(abs(lam_in) ** 2 - lam_out.real)
    assert numeric_step_check(step, n=1, trials=9, seed=2, family="random") == max(singles)
    monkeypatch.setattr(analysis, "_BATCH_BUDGET", 2 * step.input_system.r * 7)
    assert numeric_step_check(step, n=1, trials=9, seed=2, family="random") == max(singles)
