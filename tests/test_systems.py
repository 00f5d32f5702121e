import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqcs import systems
from seqcs.analysis import lambda_average, random_one_bounded
from seqcs.field import identity, mat_mul
from seqcs.systems import (
    LinearSystem,
    SystemValidationError,
    associated_set,
    change_of_variables,
    image_is_translation_invariant,
    normalize_translation_invariant,
    random_invertible,
    reattach_ones,
    system_flags,
    validate,
)

REMARK_F7 = {"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]}
REMARK_F23 = {"p": 23, "forms": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 10, 1], [1, 1, 2], [1, 2, 2]]}


def test_validate_well_formed():
    sys_ = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})
    assert sys_.r == 3 and sys_.d == 2 and int(sys_.p) == 5


def test_validate_reduces_entries():
    sys_ = validate({"p": 5, "forms": [[6, -1]]})
    assert sys_.forms == ((1, 4),)


def test_validate_composite_modulus():
    with pytest.raises(SystemValidationError, match="modulus not prime"):
        validate({"p": 4, "forms": [[1, 0]]})


def test_validate_ragged_row():
    with pytest.raises(SystemValidationError, match="ragged row 1"):
        validate({"p": 5, "forms": [[1, 0], [1]]})


def test_validate_collects_multiple_violations():
    with pytest.raises(SystemValidationError) as err:
        validate({"p": 9, "forms": [[1, 0], [1, "x"]]})
    assert len(err.value.violations) == 2


def test_validate_labels():
    sys_ = validate({"p": 5, "forms": [[1, 0]], "labels": ["x"]})
    assert sys_.labels == ("x",)
    with pytest.raises(SystemValidationError, match="labels length"):
        validate({"p": 5, "forms": [[1, 0]], "labels": ["x", "y"]})


def test_flags_duplicates_and_zeros():
    sys_ = validate({"p": 5, "forms": [[1, 0], [0, 0], [1, 0]]})
    flags = system_flags(sys_)
    assert flags["zero_forms"] == [1]
    assert flags["duplicate_forms"] == [[0, 2]]


def test_hash_ignores_labels_and_is_stable():
    a = validate({"p": 5, "forms": [[1, 0], [1, 1]]})
    b = validate({"p": 5, "forms": [[1, 0], [1, 1]], "labels": ["a", "b"]})
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64


def dumped_canonical_json(system: LinearSystem) -> str:
    """The definition every certificate's `system_hash` was computed from."""
    return json.dumps(
        {"forms": [list(f) for f in system.forms], "p": int(system.p)}, sort_keys=True, separators=(",", ":")
    )


def assert_digest_is_the_dumped_definition(system: LinearSystem) -> None:
    text = dumped_canonical_json(system)
    assert system.canonical_json() == text
    assert system.digest() == hashlib.sha256(text.encode()).hexdigest()
    assert ",".join(system.form_blocks()) == text[len('{"forms":['):text.rindex('],"p":')]


SYSTEMS = st.sampled_from([2, 3, 7, 2**61 - 1]).flatmap(
    lambda p: st.integers(1, 6).flatmap(
        lambda d: st.fixed_dictionaries({
            "p": st.just(p),
            "forms": st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=d, max_size=d), min_size=1, max_size=7),
        })
    )
)


@settings(max_examples=300)
@given(SYSTEMS, st.sampled_from([1, 2, 5, systems.PIECE_ITEMS]), st.booleans())
def test_digest_is_the_sha256_of_the_dumped_definition(raw, piece_items, labelled):
    """Blocks of any size join to the bytes of the sorted-key compact `json.dumps`; labels stay out."""
    if labelled:
        raw = {**raw, "labels": [f"f{i}" for i in range(len(raw["forms"]))]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(systems, "PIECE_ITEMS", piece_items)
        system = validate(raw)
        assert_digest_is_the_dumped_definition(system)
        assert system.to_json()["forms"].blocks is system.form_blocks()


def test_digest_of_a_system_of_several_blocks():
    forms = np.random.default_rng(3).integers(0, 2**61 - 1, (100, 90), dtype=np.int64).tolist()
    system = validate({"p": 2**61 - 1, "forms": forms})
    assert len(system.form_blocks()) == 2  # 9000 entries, 91 rows of 90 to a block
    assert_digest_is_the_dumped_definition(system)


def test_normalize_already_normalized():
    sys_ = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})
    norm, transform = normalize_translation_invariant(sys_)
    assert transform == identity(2)
    assert norm.forms == sys_.forms


def test_normalize_not_invariant():
    assert normalize_translation_invariant(validate({"p": 5, "forms": [[1], [2]]})) is None


def test_normalize_column_scaling():
    sys_ = validate({"p": 5, "forms": [[2, 0], [2, 1], [2, 2]]})
    norm, transform = normalize_translation_invariant(sys_)
    assert transform == ((3, 0), (0, 1))
    assert all(f[0] == 1 for f in norm.forms)
    assert mat_mul(sys_.forms, transform, 5) == norm.forms


def test_normalize_invertible_and_consistent_random():
    rng = random.Random(31)
    hits = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        r, d = rng.randint(1, 4), rng.randint(1, 3)
        sys_ = LinearSystem(
            validate({"p": p, "forms": [[1] * d]}).p,
            tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(r)),
        )
        res = normalize_translation_invariant(sys_)
        assert (res is not None) == image_is_translation_invariant(sys_)
        if res is not None:
            hits += 1
            norm, transform = res
            assert mat_mul(sys_.forms, transform, p) == norm.forms
            assert all(f[0] == 1 for f in norm.forms)
    assert hits > 10


def test_associated_set_progression():
    sys_ = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})
    assert associated_set(sys_).points == ((0,), (1,), (2,))


def test_associated_set_remark_f7():
    points = associated_set(validate(REMARK_F7)).points
    assert points == ((1, 0), (0, 1), (0, 2), (1, 3), (2, 3), (3, 3))


def test_associated_set_remark_f23():
    points = associated_set(validate(REMARK_F23)).points
    assert points == ((0, 0), (1, 0), (0, 1), (10, 1), (1, 2), (2, 2))


def test_associated_set_requires_invariance():
    with pytest.raises(ValueError, match="not translation invariant"):
        associated_set(validate({"p": 5, "forms": [[1], [2]]}))


def test_reattach_round_trip():
    sys_ = validate(REMARK_F7)
    norm, _ = normalize_translation_invariant(sys_)
    assert reattach_ones(associated_set(sys_)) == norm.forms


def test_lambda_invariant_under_change_of_variables():
    rng = np.random.default_rng(7)
    sys_ = validate({"p": 5, "forms": [[1, 0], [1, 1], [1, 2]]})
    for trial in range(5):
        transform = random_invertible(5, 2, rng)
        moved = change_of_variables(sys_, transform)
        tables = [random_one_bounded(5, 1, [9, trial, j], "disk") for j in range(3)]
        a = lambda_average(sys_, tables)
        b = lambda_average(moved, tables)
        assert abs(a - b) <= 1e-12
