"""One Cauchy-Schwarz application as a checkable transformation of systems.

A step squares away the first form of a witness sequence: the r-form system
in d variables becomes a (2r-2)-form system in 2d-1 variables whose functions
are the original ones (and their conjugates) rerouted through a slot table,
and the witness shortens by one.  The propagated covers are built by merging
an embedded cover for the current prefix with an embedded cover for the
first form alone; the merge is sound because the two embedded spans meet the
two coordinate blocks trivially, which is re-checked here by exact rank
identities rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import DEFAULT_POINT_GUARD, LambdaEvaluator, _trial_blocks, check_trials
from .complexity import CoverCertificate, WitnessCertificate, verify_witness
from .field import Matrix, complete_rows, completing_transform, identity, span_basis
from .systems import LinearSystem

MAX_FORMS = 1 << 12


class InvalidWitness(ValueError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"witness failed verification: {report.failures[:3]}")


class ConsistencyAlarm(AssertionError):
    """A certificate the chain built itself failed verification: a bug, not bad input."""


@dataclass(frozen=True)
class ReductionStep:
    input_system: LinearSystem
    witness: WitnessCertificate
    permutation: tuple[int, ...]  # relabeled position -> original index
    transformed_system: LinearSystem  # relabeled input after the change of variables
    output_system: LinearSystem
    slots: tuple[tuple[int, bool], ...]  # output slot -> (relabeled input position it reads, conjugated)
    propagated: WitnessCertificate

    @property
    def transform(self) -> Matrix:
        """The change of variables: `completing_transform` of the first relabeled
        form, built where it is read."""
        return completing_transform(self.input_system.forms[self.permutation[0]], self.input_system.p)

    def to_json(self) -> dict:
        return {
            "input": self.input_system.to_json(),
            "witness": self.witness.to_json(),
            "permutation": list(self.permutation),
            "transform": [list(row) for row in self.transform],
            "output": self.output_system.to_json(),
            "slots": [list(slot) for slot in self.slots],
            "propagated": self.propagated.to_json(),
        }


def _relabel_cover(cover: CoverCertificate, new_index: dict[int, int]) -> CoverCertificate:
    return CoverCertificate(
        tuple(new_index[t] for t in cover.targets),
        tuple(tuple(sorted(new_index[x] for x in part)) for part in cover.parts),
    )


def cs_step(system: LinearSystem, witness: WitnessCertificate) -> ReductionStep:
    """Apply one Cauchy-Schwarz reduction along the witness' first form.

    The output system has 2r-2 forms in 2d-1 variables: both blocks carry the
    remaining r-1 transformed forms, the first block on the shared variables,
    the second on the duplicated ones.  The input witness is verified here;
    the propagated one, which certifies the shortened sequence on the output
    system, is verified by its consumer: the next step or `build_chain`.
    """
    report = verify_witness(system, witness)
    if not report.passed:
        raise InvalidWitness(report)
    ell = witness.length
    if ell < 2:
        raise ValueError("witness of length 1 is the base case; no step to apply")
    p, r, d = system.p, system.r, system.d
    in_seq = set(witness.sequence)
    permutation = tuple(witness.sequence) + tuple(j for j in range(r) if j not in in_seq)
    new_index = {old: new for new, old in enumerate(permutation)}
    relabeled = [system.forms[old] for old in permutation]
    transformed = tuple(map(tuple, complete_rows(relabeled, relabeled[0], p).tolist()))
    assert transformed[0] == (1,) + (0,) * (d - 1)
    transformed_system = LinearSystem(p, transformed)
    rest, zeros = transformed[1:], (0,) * (d - 1)
    # first block on the shared variables, second with x shared and the rest duplicated
    output = LinearSystem(p, tuple(f + zeros for f in rest) + tuple((f[0],) + zeros + f[1:] for f in rest))
    slots = tuple((pos, conjugated) for conjugated in (False, True) for pos in range(1, r))

    first_cover = _relabel_cover(witness.covers[0], new_index)
    covers = []
    for jstar in range(1, ell):
        deep_cover = _relabel_cover(witness.covers[jstar], new_index)
        width = max(len(deep_cover.parts), len(first_cover.parts))
        merged = []
        for t in range(width):
            c_part = deep_cover.parts[t] if t < len(deep_cover.parts) else ()
            e_part = first_cover.parts[t] if t < len(first_cover.parts) else ()
            merged.append(
                tuple(sorted([pos - 1 for pos in c_part] + [pos + r - 2 for pos in e_part]))
            )
        covers.append(CoverCertificate(tuple(range(jstar)), tuple(merged)))
    propagated = WitnessCertificate(
        output.digest(), ell - 2, witness.k, tuple(range(ell - 1)), tuple(covers)
    )
    return ReductionStep(system, witness, permutation, transformed_system, output, slots, propagated)


def merged_cover_identities(step: ReductionStep) -> dict:
    """Exact rank checks behind the merged covers of one step.

    For each prefix level and part, splits the merged part back into its two
    block components D_1, D_2 and verifies D_1∩U_2 = D_2∩U_1 = {0} and
    (D_1+D_2)∩U_i = D_i, where U_1, U_2 are the coordinate blocks.
    """
    out = step.output_system
    p, dim = out.p, out.d
    d = step.input_system.d
    r = step.input_system.r
    unit = identity(dim)
    u1, u2 = unit[:d], unit[:1] + unit[d:]
    failures = []
    checked = 0

    def dim_sum(*bases) -> int:
        vectors = [v for basis in bases for v in basis]
        return span_basis(vectors, p, dim).rank

    for level, cover in enumerate(step.propagated.covers):
        for t, part in enumerate(cover.parts):
            d1 = [out.forms[x] for x in part if x <= r - 2]
            d2 = [out.forms[x] for x in part if x >= r - 1]
            dim1, dim2 = dim_sum(d1), dim_sum(d2)
            checks = {
                "d1_in_u1": dim_sum(d1, u1) == len(u1),
                "d2_in_u2": dim_sum(d2, u2) == len(u2),
                "d1_meets_u2_trivially": dim1 + len(u2) - dim_sum(d1, u2) == 0,
                "d2_meets_u1_trivially": dim2 + len(u1) - dim_sum(d2, u1) == 0,
                "sum_meets_u1_in_d1": dim_sum(d1, d2) + len(u1) - dim_sum(d1, d2, u1) == dim1,
                "sum_meets_u2_in_d2": dim_sum(d1, d2) + len(u2) - dim_sum(d1, d2, u2) == dim2,
            }
            checked += 1
            for name, ok in checks.items():
                if not ok:
                    failures.append({"level": level, "part": t, "check": name})
    return {"passed": not failures, "parts_checked": checked, "failures": failures}


@dataclass(frozen=True)
class ReductionChain:
    input_system: LinearSystem
    witness: WitnessCertificate
    steps: tuple[ReductionStep, ...]
    final_system: LinearSystem
    base_certificate: CoverCertificate | None
    base_index: int | None
    slot_map: tuple[tuple[int, bool], ...]  # final slot -> (original function index, conjugated)
    truncated: bool = False

    def to_json(self) -> dict:
        return {
            "input": self.input_system.to_json(),
            "witness": self.witness.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "final_system": self.final_system.to_json(),
            "base_certificate": self.base_certificate.to_json() if self.base_certificate else None,
            "base_index": self.base_index,
            "slot_map": [[orig, conj] for orig, conj in self.slot_map],
            "truncated": self.truncated,
        }


def build_chain(
    system: LinearSystem,
    witness: WitnessCertificate,
    max_forms: int = MAX_FORMS,
) -> ReductionChain:
    """Iterate cs_step until the witness has length 1, tracking function slots.

    `slot_map` gives each slot of the final system its original function index
    and whether it is conjugated.  Stops early (truncated=True, no base
    certificate) when the next step would exceed `max_forms` forms.  Each
    certificate is verified once, by the step that consumes it or, for the
    last one, here; a failure past the input witness is an internal fault.
    """
    if max_forms < 0:
        raise ValueError(f"max_forms must be >= 0, got {max_forms}")
    current_system, current_witness = system, witness
    slot_map: tuple[tuple[int, bool], ...] = tuple((j, False) for j in range(system.r))
    steps: list[ReductionStep] = []
    try:
        while current_witness.length > 1 and 2 * current_system.r - 2 <= max_forms:
            step = cs_step(current_system, current_witness)
            read = [slot_map[old] for old in step.permutation]  # by relabeled position
            slot_map = tuple((read[pos][0], read[pos][1] ^ conjugated) for pos, conjugated in step.slots)
            steps.append(step)
            current_system, current_witness = step.output_system, step.propagated
        report = verify_witness(current_system, current_witness)
        if not report.passed:
            raise InvalidWitness(report)
    except InvalidWitness as exc:
        if steps:
            raise ConsistencyAlarm(
                f"internal consistency alarm: propagated witness failed: {exc.report.failures[:3]}"
            ) from exc
        raise
    truncated = current_witness.length > 1
    base = (None, None) if truncated else (current_witness.covers[0], current_witness.i)
    return ReductionChain(system, witness, tuple(steps), current_system, *base, slot_map, truncated)


def numeric_step_check(
    step: ReductionStep,
    n: int,
    trials: int = 100,
    seed: int = 0,
    family: str = "phases",
    point_guard: int = DEFAULT_POINT_GUARD,
) -> float:
    """Largest observed |Λ_in|^2 - Re(Λ_out) over random 1-bounded tuples.

    Must be <= tolerance for a sound step: the output average dominates the
    squared input average by the Cauchy-Schwarz inequality.  The tuples come
    from `_trial_blocks`, one table per relabeled position; the output
    average routes them (with conjugations) through the slot table.
    """
    check_trials(trials, seed)
    in_eval = LambdaEvaluator(step.transformed_system, n, point_guard)
    out_eval = LambdaEvaluator(step.output_system, n, point_guard)
    out_conj = [conjugated for _, conjugated in step.slots]
    worst = -float("inf")
    for block in _trial_blocks(step.input_system, n, family, seed, 1 if family == "ones" else trials):
        for tup in block:
            lam_in = in_eval.average(tup)
            lam_out = out_eval.average([tup[pos] for pos, _ in step.slots], out_conj)
            worst = max(worst, abs(lam_in) ** 2 - lam_out.real)
    return worst
