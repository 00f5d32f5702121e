"""Independent checks of every job's report.

The benchmark trusts no exit code on its own: each check re-derives what the
report claims.  Linear algebra here is written anew on numpy (rank mod p,
affine membership, the reduction step formula), so a defect in `seqcs.field`
does not hide itself.  Certificates go through `seqcs.complexity.verify_witness`,
the program's checker that is kept apart from its search engines.  Uniformity
norms are recomputed by the derivative recursion ended at U^2 with
sum |f^(xi)|^4 from a discrete Fourier transform, a different route from the
program's, and by the program's direct-definition oracle on small tables.

Each `*_check(...)` returns a function `(report, rc, state) -> [failure, ...]`.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from seqcs.analysis import FunctionTable, gowers_norm_direct
from seqcs.complexity import WitnessCertificate, verify_witness
from seqcs.systems import validate

TOL_IDENTITY = 1e-12
TOL_ORACLE = 1e-10


# ---------------------------------------------------------------------------
# linear algebra over F_p, independent of seqcs.field


def rank_mod(rows, p: int) -> int:
    """Rank over F_p by Gaussian elimination on an int64 array (p < 2^31)."""
    a = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p
    rank = 0
    nrows, ncols = a.shape
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        factors = a[:, col].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank])) % p
        rank += 1
    return rank


def in_affine(point, base, directions, p: int) -> bool:
    diff = [(x - y) % p for x, y in zip(point, base)]
    if not directions:
        return not any(diff)
    return rank_mod(list(directions) + [diff], p) == rank_mod(directions, p)


def _verify(system_raw: dict, cert_raw: dict) -> list[str]:
    verdict = verify_witness(validate(system_raw), WitnessCertificate.from_json(cert_raw))
    return [] if verdict.passed else [f"certificate rejected: {verdict.failures[:3]}"]


def _expect_rc(rc: int, expected: int) -> list[str]:
    return [] if rc == expected else [f"exit code {rc}, expected {expected}"]


# ---------------------------------------------------------------------------
# certify


def analyze_check(p: int, forms):
    r, d = len(forms), len(forms[0])
    system_raw = {"p": p, "forms": forms}

    def check(report: dict, rc: int, state: dict) -> list[str]:
        fails = _expect_rc(rc, 0)
        if (report.get("p"), report.get("r"), report.get("d")) != (p, r, d):
            fails.append("p, r, d differ from the input")
        ones_in_span = rank_mod([f + [1] for f in forms], p) == rank_mod(forms, p)
        if report.get("translation_invariant") != ones_in_span:
            fails.append("translation_invariant is wrong")
        comp = report["complexity"]
        entries = comp["per_index"]
        if [e["i"] for e in entries] != list(range(r)):
            fails.append("per_index does not list every form")
            return fails
        values = []
        for e in entries:
            i, s, cert = e["i"], e["s_cs"], e["certificate"]
            # a finite value exists iff no other form's own span holds form i
            blocked = any(rank_mod([forms[j], forms[i]], p) == rank_mod([forms[j]], p)
                          for j in range(r) if j != i)
            if blocked != (s is None) or (s is None) != (cert is None):
                fails.append(f"index {i}: finiteness of s_cs is wrong")
                continue
            values.append(s)
            if cert is None:
                continue
            if s != max(len(cert["parts"]) - 1, 0) or cert["targets"] != [i]:
                fails.append(f"index {i}: certificate does not match s_cs")
                continue
            one_step = {"system_hash": "", "i": i, "k": s, "sequence": [i], "covers": [cert]}
            fails += [f"index {i}: {msg}" for msg in _verify(system_raw, one_step)]
        overall = None if any(v is None for v in values) else max(values)
        if comp["s_cs"] != overall:
            fails.append("overall s_cs is not the maximum over indices")
        tensor = comp["tensor_criterion"]
        for k, rk in tensor["ranks"]:
            powers = []
            for f in forms:
                power = np.array(f, dtype=np.int64)
                for _ in range(k):
                    power = np.kron(power, f) % p
                powers.append(power)
            if rank_mod(powers, p) != rk:
                fails.append(f"tensor rank at k={k} is wrong")
        if tensor["value"] is not None and dict(map(tuple, tensor["ranks"])).get(tensor["value"]) != r:
            fails.append("tensor criterion value without full rank")
        return fails

    return check


def witness_check(p: int, forms, i: int, k: int, max_len: int, expect_found):
    system_raw = {"p": p, "forms": forms}

    def check(report: dict, rc: int, state: dict) -> list[str]:
        results = report["results"]
        if [res["i"] for res in results] != [i]:
            return ["results do not list the requested index"]
        res = results[0]
        fails = _expect_rc(rc, 0 if res["found"] else 1)
        if report["all_found"] != res["found"]:
            fails.append("all_found disagrees with the result")
        if expect_found is not None and res["found"] != expect_found:
            fails.append(f"found={res['found']}, known answer is {expect_found}")
        if res["found"]:
            cert = res["certificate"]
            if cert["i"] != i or cert["k"] != k or not 1 <= len(cert["sequence"]) <= max_len:
                fails.append("certificate answers another query")
            fails += _verify(system_raw, cert)
        return fails

    return check


def verify_check(expect_pass: bool):
    def check(report: dict, rc: int, state: dict) -> list[str]:
        passed = report["verdict"]["passed"]
        fails = _expect_rc(rc, 0 if passed else 1)
        if passed != expect_pass:
            fails.append(f"verdict passed={passed}, expected {expect_pass}")
        return fails

    return check


def mutate_certificate(cert: dict) -> dict:
    """A certificate that must fail: the first cover's first part gains the first target."""
    bad = json.loads(json.dumps(cert))
    cover = bad["covers"][0]
    cover["parts"][0] = sorted(set(cover["parts"][0]) | {cover["targets"][0]})
    return bad


def phikm_check(p: int, k: int, M: int, system_out: str):
    expected = [[1, *z] for z in itertools.product(range(p), repeat=M) if sum(z) < k]

    def check(report: dict, rc: int, state: dict) -> list[str]:
        fails = _expect_rc(rc, 0)
        with open(system_out, encoding="utf-8") as fh:
            system_raw = json.load(fh)
        if system_raw["p"] != p or system_raw["forms"] != expected:
            fails.append("emitted system is not the progression system")
            return fails
        if not report["witness"]["verified"]:
            fails.append("phikm reports an unverified witness")
        fails += _verify(system_raw, report["witness"]["certificate"])
        return fails

    return check


# ---------------------------------------------------------------------------
# cover


def _hyperplane_cover_exists(p: int, M: int, points, excluded) -> bool:
    """Whether every point lies on some hyperplane missing all excluded points."""
    normals = [v for v in itertools.product(range(p), repeat=M) if any(v)]
    for t in points:
        if not any(all(sum(a * (x - y) for a, x, y in zip(n, e, t)) % p for e in excluded) for n in normals):
            return False
    return True


def cover_check(p: int, M: int, points, excluded, mode: str, problem: str):
    points = [list(t) for t in points]
    excluded = [list(a) for a in excluded]

    def check(report: dict, rc: int, state: dict) -> list[str]:
        minima = state.setdefault("cover_minimum", {})
        if not report["feasible"]:
            fails = _expect_rc(rc, 1)
            if mode == "affine-spans" or _hyperplane_cover_exists(p, M, points, excluded):
                fails.append("reported infeasible, but a cover exists")
            minima.setdefault(problem, {})[mode] = None
            return fails
        fails = _expect_rc(rc, 0)
        cover = report["cover"]
        subspaces = cover["subspaces"]
        if report["minimum"] != len(subspaces):
            fails.append("minimum differs from the number of subspaces")
        if sorted(cover["covered"]) != sorted(points) or sorted(cover["excluded"]) != sorted(excluded):
            fails.append("cover is for another point set")
        if not report.get("verified"):
            fails.append("report says the cover is unverified")
        for t in points:
            if not any(in_affine(t, s["basepoint"], s["directions"], p) for s in subspaces):
                fails.append(f"point {t} is uncovered")
        for a in excluded:
            if any(in_affine(a, s["basepoint"], s["directions"], p) for s in subspaces):
                fails.append(f"excluded point {a} is covered")
        if mode == "hyperplanes-only" and any(rank_mod(s["directions"], p) != M - 1 for s in subspaces):
            fails.append("a subspace is not a hyperplane")
        seen = minima.setdefault(problem, {})
        seen[mode] = report["minimum"]
        if seen.get("hyperplanes-only") is not None and seen.get("affine-spans") is not None:
            if seen["affine-spans"] > seen["hyperplanes-only"]:
                fails.append("affine-span minimum exceeds the hyperplane minimum")
        return fails

    return check


# ---------------------------------------------------------------------------
# chain


def _step_output(forms_in, permutation, transform, p):
    """Recompute one Cauchy-Schwarz step's output from its input and transform."""
    relabeled = np.array([forms_in[j] for j in permutation], dtype=np.int64)
    t = np.array(transform, dtype=np.int64)
    moved = relabeled @ t % p
    d = t.shape[0]
    first = np.zeros(d, dtype=np.int64)
    first[0] = 1
    rest = moved[1:]
    pad = np.zeros((rest.shape[0], d - 1), dtype=np.int64)
    block1 = np.hstack([rest, pad])
    block2 = np.hstack([rest[:, :1], pad, rest[:, 1:]])
    return bool((moved[0] == first).all()), np.vstack([block1, block2])


def chain_check(p: int, forms, cert_path: str, max_forms: int, numeric_tol):
    with open(cert_path, encoding="utf-8") as fh:
        witness = json.load(fh)

    def check(report: dict, rc: int, state: dict) -> list[str]:
        chain = report["chain"]
        steps = chain["steps"]
        fails = []
        cur_forms, cur_len = forms, len(witness["sequence"])
        if chain["input"]["forms"] != forms:
            fails.append("chain input is not the system")
        for j, step in enumerate(steps):
            r, d = len(cur_forms), len(cur_forms[0])
            out = step["output"]["forms"]
            if step["input"]["forms"] != cur_forms:
                fails.append(f"step {j}: input is not the previous output")
                break
            if len(out) != 2 * r - 2 or len(out[0]) != 2 * d - 1:
                fails.append(f"step {j}: shape is not (2r-2, 2d-1)")
                break
            if sorted(step["permutation"]) != list(range(r)) or rank_mod(step["transform"], p) != d:
                fails.append(f"step {j}: relabeling or change of variables is not invertible")
                break
            normalized, expected = _step_output(cur_forms, step["permutation"], step["transform"], p)
            if not normalized or expected.tolist() != out:
                fails.append(f"step {j}: output forms do not follow from the input")
                break
            if len(step["propagated"]["sequence"]) != cur_len - 1:
                fails.append(f"step {j}: witness did not shorten by one")
            fails += [f"step {j}: {msg}" for msg in _verify(step["output"], step["propagated"])]
            cur_forms, cur_len = out, cur_len - 1
        if (report["final_forms"], report["final_variables"]) != (len(cur_forms), len(cur_forms[0])):
            fails.append("final shape disagrees with the steps")
        truncated = cur_len > 1
        if truncated != report["truncated"] or (truncated and 2 * len(cur_forms) - 2 <= max_forms):
            fails.append("truncation does not follow from the form cap")
        if not truncated:
            base = {"system_hash": "", "i": chain["base_index"], "k": witness["k"],
                    "sequence": [chain["base_index"]], "covers": [chain["base_certificate"]]}
            fails += [f"base: {msg}" for msg in _verify({"p": p, "forms": cur_forms}, base)]
        if len(chain["slot_map"]) != len(cur_forms):
            fails.append("slot map does not cover the final forms")
        violation = None
        if numeric_tol is not None:
            checked = report.get("numeric_checks", [])
            if [c["step"] for c in checked] != list(range(len(steps))):
                fails.append("numeric check skipped a step")
            if checked:
                violation = max(c["violation"] for c in checked)
                if violation > numeric_tol:
                    fails.append(f"numeric violation {violation:.3e} above tolerance")
                if report.get("numeric_max_violation") != violation:
                    fails.append("numeric_max_violation is not the maximum")
        fails += _expect_rc(rc, 1 if truncated or (violation is not None and violation > numeric_tol) else 0)
        return fails

    return check


# ---------------------------------------------------------------------------
# norms


def gvn_check(fixed_family: bool):
    def check(report: dict, rc: int, state: dict) -> list[str]:
        rep = report["report"]
        fails = []
        slacks = []
        for t, rec in enumerate(rep["records"]):
            lam, norm = rec["abs_lambda"], rec["norm"]
            if not 0 <= lam <= 1 + TOL_IDENTITY:
                fails.append(f"trial {t}: |Lambda| = {lam!r} is not in [0, 1]")
            if not 0 <= norm <= 1 + TOL_IDENTITY:
                fails.append(f"trial {t}: norm {norm!r} is not in [0, 1]")
            if abs(rec["slack"] - (norm ** rep["exponent"] - lam)) > TOL_IDENTITY:
                fails.append(f"trial {t}: slack is not norm^exponent - |Lambda|")
            if fixed_family and abs(lam - 1) > TOL_IDENTITY:
                fails.append(f"counterexample |Lambda| = {lam!r}, expected 1")
            slacks.append(rec["slack"])
        if len(slacks) != rep["trials"]:
            fails.append("record count differs from trials")
        if slacks and rep["max_violation"] != max(0.0, -min(slacks)):
            fails.append("max_violation is not the largest violation")
        if not rep["passed"]:
            fails.append(f"inequality violated by {rep['max_violation']:.3e}")
        return fails + _expect_rc(rc, 0 if rep["passed"] else 1)

    return check


def _shift_index(p: int, n: int) -> np.ndarray:
    """S[h, x] = flat index of x + h in the (p,)*n grid, built with np.roll."""
    grid = np.arange(p**n).reshape((p,) * n)
    axes = tuple(range(n))
    return np.stack([np.roll(grid, tuple(-c for c in np.unravel_index(h, (p,) * n)), axis=axes).ravel()
                     for h in range(p**n)])


def gowers_fourier(values: np.ndarray, p: int, n: int, k: int) -> float:
    """U^k norm (k >= 2): E_h ||D_h f||_{U^(k-1)} recursion ended at
    ||g||_{U^2}^4 = sum_xi |g^(xi)|^4 with the discrete Fourier transform."""
    size = p**n
    shift = _shift_index(p, n)
    batch = values.reshape(1, size)
    for _ in range(k - 2):
        batch = (batch[:, shift] * batch.conj()[:, None, :]).reshape(-1, size)
    spectrum = np.fft.fftn(batch.reshape((-1,) + (p,) * n), axes=tuple(range(1, n + 1))) / size
    power = (np.abs(spectrum.reshape(batch.shape[0], size)) ** 4).sum(axis=1).mean()
    return max(float(power), 0.0) ** (1.0 / (1 << k))


def gowers_check(table_raw: dict, k: int, direct: bool):
    p, n = table_raw["p"], table_raw["n"]
    values = np.array([complex(re, im) for re, im in table_raw["values"]])

    def check(report: dict, rc: int, state: dict) -> list[str]:
        fails = _expect_rc(rc, 0)
        norm = report["norm"]
        if not 0 <= norm <= 1 + TOL_IDENTITY:
            fails.append(f"norm {norm!r} of a 1-bounded table is not in [0, 1]")
        if abs(norm - gowers_fourier(values, p, n, k)) > TOL_ORACLE:
            fails.append("norm differs from the Fourier-ended recursion")
        if direct:
            oracle = gowers_norm_direct(FunctionTable(p, n, values), k)
            if abs(norm - oracle) > TOL_ORACLE or abs(report["direct"] - oracle) > TOL_ORACLE:
                fails.append("norm differs from the direct-definition oracle")
        return fails

    return check
