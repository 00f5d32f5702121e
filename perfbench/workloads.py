"""Seeded inputs and job lists for the four benchmark workloads.

Each workload is a list of `Job`s: one `seqcs` CLI call each, on files this
module writes into a work directory, with the independent check that its
report must pass.  Jobs may emit follow-up jobs from their report (a `verify`
of every certificate a `witness` job emitted).

Steadiness across seeds: the combinatorial structure of every input is fixed
by the benchmark (a constant-seeded library of systems and point sets, plus
the named systems of the paper), and the run seed draws the coordinates.  A
random change of variables keeps every span relation of a form system, and a
random affine bijection of F_p^M keeps every affine relation of a point set,
so the program does the same search on every seed while reading different
numbers.  Seeds also drive the random function tables and the trial seeds of
the norm checks.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from seqcs import cli, systems
from seqcs.analysis import random_one_bounded

import checks

LIBRARY_SEED = 20210913
REDUCE_DEFAULT_MAX_FORMS = 4096  # `seqcs reduce --max-forms` when not given


@dataclass
class Job:
    """One CLI call: `argv` without `--out`, the report path, and its check.

    `check(report, rc, state)` returns failure messages; `state` is a dict
    shared by the jobs of one pass.  `followups(report)` returns more jobs to
    run right after this one.
    """

    id: str
    argv: list[str]
    out: str
    check: Callable[[dict, int, dict], list[str]]
    followups: Callable[[dict], list["Job"]] | None = None

    @property
    def full_argv(self) -> list[str]:
        return self.argv + ["--out", self.out]


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _random_invertible(p: int, d: int, rng: random.Random, keep_first_column: bool):
    """Uniform invertible d x d matrix over F_p; column 0 is e_0 when asked."""
    while True:
        m = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if keep_first_column:
            for i in range(d):
                m[i][0] = 1 if i == 0 else 0
        if checks.rank_mod(m, p) == d:
            return m


def _transform_forms(forms, m, p):
    d = len(m)
    return [[sum(f[i] * m[i][j] for i in range(d)) % p for j in range(d)] for f in forms]


def _affine_map(points, m, shift, p):
    """x -> x m + shift for each point, a bijection of F_p^M when m is invertible."""
    return [[(v + s) % p for v, s in zip(row, shift)] for row in _transform_forms(points, m, p)]


def _scale_variables(forms, p: int, rng: random.Random):
    """Scale every variable but the first by a random nonzero residue.

    Keeps the zero pattern, the leading ones column and every span relation,
    so the scaled progression system is the same problem in new numbers.
    """
    d = len(forms[0])
    scale = [1] + [rng.randrange(1, p) for _ in range(d - 1)]
    return [[(f[j] * scale[j]) % p for j in range(d)] for f in forms]


def phi_forms(p: int, k: int, M: int):
    """Forms (1, z) of the progression system phi(p, k, M), z in the simplex."""
    return [[1, *z] for z in itertools.product(range(p), repeat=M) if sum(z) < k]


REMARK_F7 = {"p": 7, "forms": [[1, 1, 0], [1, 0, 1], [1, 0, 2], [1, 1, 3], [1, 2, 3], [1, 3, 3]]}
REMARK_F23 = {"p": 23, "forms": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 10, 1], [1, 1, 2], [1, 2, 2]]}


class _JobList:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.work = workdir
        self.jobs: list[Job] = []

    def path(self, stem: str) -> Path:
        return self.work / stem

    def make(self, jid: str, argv: list[str], check, followups=None) -> Job:
        out = self.path("out-" + jid.replace("/", "--") + ".json")
        return Job(f"{self.name}/{jid}", argv, str(out), check, followups)

    def job(self, jid: str, argv: list[str], check, followups=None) -> None:
        self.jobs.append(self.make(jid, argv, check, followups))

    def phikm_certificate(self, p: int, k: int, M: int, forms, at=None) -> str:
        """Certificate from `seqcs phikm --witness`, rebound to `forms` (same indices)."""
        tag = f"{p}-{k}-{M}" + ("" if at is None else "-at" + "".join(map(str, at)))
        cert_path = self.path(f"phikm-cert-{tag}.json")
        argv = ["phikm", "--p", str(p), "--k", str(k), "--M", str(M), "--witness",
                "--cert-out", str(cert_path), "--out", str(self.path(f"phikm-report-{tag}.json"))]
        if at is not None:
            argv += ["--at", ",".join(map(str, at))]
        if cli.main(argv) != 0:
            raise RuntimeError(f"input generation failed: seqcs {' '.join(argv)}")
        cert = json.loads(cert_path.read_text())
        cert["system_hash"] = systems.validate({"p": p, "forms": forms}).digest()
        return _write(cert_path, cert)


# ---------------------------------------------------------------------------
# certify: analyze, witness and verify on many small systems


def _library_systems():
    """Constant-seeded systems: p in {3,5,7}, d in {3,4}, with and without a
    leading ones column, r from 6 to 11; each with a witness query (i, k, max_len)."""
    rng = random.Random(LIBRARY_SEED)
    out = []
    for p in (3, 5, 7):
        for d in (3, 4):
            for ones in (True, False):
                for r in (6, 8, 10) if (p + d) % 2 else (7, 9, 11):
                    forms = []
                    while len(forms) < r:
                        f = [1 if ones and j == 0 else rng.randrange(p) for j in range(d)]
                        if any(f):
                            forms.append(f)
                    query = (rng.randrange(r), 1 + len(out) % 2, 2 + (len(out) // 2) % 2)
                    out.append((p, d, ones, forms, query))
    return out


def _certify(b: _JobList) -> None:
    named = []
    for p, k, M in ((5, 6, 2), (3, 4, 3), (5, 4, 2)):
        tag = f"phi-{p}-{k}-{M}"
        forms = phi_forms(p, k, M)
        sys_path = _write(b.path(f"{tag}.json"), {"p": p, "forms": forms})
        cert = b.phikm_certificate(p, k, M, forms)
        named.append((tag, p, forms, sys_path, 0, k - 2, 3, True, cert))
        emitted = str(b.path(f"{tag}-phikm-system.json"))
        b.job(f"{tag}/phikm", ["phikm", "--p", str(p), "--k", str(k), "--M", str(M), "--witness",
                               "--verify", "--system-out", emitted, "--cert-out", str(b.path(f"{tag}-phikm-cert.json"))],
              checks.phikm_check(p, k, M, emitted))
    for tag, raw, i, expect in (("remark-f7", REMARK_F7, 5, True), ("remark-f23", REMARK_F23, 0, False)):
        sys_path = _write(b.path(f"{tag}.json"), raw)
        named.append((tag, raw["p"], raw["forms"], sys_path, i, 1, 3, expect, None))
    for tag, p, forms, sys_path, i, k, max_len, expect, cert in named:
        _certify_system(b, tag, p, forms, sys_path, i, k, max_len, expect, mutate=True)
        if cert is not None:
            b.job(f"{tag}/verify-phikm", ["verify", cert, sys_path], checks.verify_check(True))
    for n, (p, d, ones, forms, (i, k, max_len)) in enumerate(_library_systems()):
        m = _random_invertible(p, d, b.rng, keep_first_column=ones)
        forms = _transform_forms(forms, m, p)
        tag = f"lib{n:02d}-p{p}-d{d}-r{len(forms)}{'-ones' if ones else ''}"
        sys_path = _write(b.path(f"{tag}.json"), {"p": p, "forms": forms})
        _certify_system(b, tag, p, forms, sys_path, i, k, max_len, None, mutate=False)


def _certify_system(b: _JobList, tag, p, forms, sys_path, i, k, max_len, expect_found, mutate):
    b.job(f"{tag}/analyze", ["analyze", sys_path, "--k-max", "6"], checks.analyze_check(p, forms))

    def followups(report: dict) -> list[Job]:
        jobs = []
        for res in report.get("results", []):
            if not res.get("found"):
                continue
            cert_path = _write(b.path(f"{tag}-cert-{res['i']}.json"), res["certificate"])
            jobs.append(b.make(f"{tag}/verify-{res['i']}", ["verify", cert_path, sys_path], checks.verify_check(True)))
            if mutate:
                bad_path = _write(b.path(f"{tag}-cert-{res['i']}-mutated.json"),
                                  checks.mutate_certificate(res["certificate"]))
                jobs.append(b.make(f"{tag}/verify-{res['i']}-mutated", ["verify", bad_path, sys_path],
                                   checks.verify_check(False)))
        return jobs

    b.job(f"{tag}/witness",
          ["witness", sys_path, "--at", str(i), "--k", str(k), "--max-len", str(max_len)],
          checks.witness_check(p, forms, i, k, max_len, expect_found), followups)


# ---------------------------------------------------------------------------
# cover: exact covers of the phikm origin problems and of point-set files

PHIKM_COVERS = ((3, 4, 3), (5, 4, 3), (5, 5, 3), (5, 6, 2), (7, 4, 2))
POINT_SET_SHAPES = ((5, 2, 10, 2), (7, 2, 14, 3), (7, 2, 20, 2), (3, 3, 10, 2), (3, 3, 14, 3), (5, 3, 12, 2))


def _library_point_sets():
    """Constant-seeded point sets (p, M, points, excluded), two per shape."""
    rng = random.Random(LIBRARY_SEED + 1)
    out = []
    for p, M, npts, nexc in POINT_SET_SHAPES:
        for _ in range(2):
            grid = list(itertools.product(range(p), repeat=M))
            rng.shuffle(grid)
            out.append((p, M, grid[:npts], grid[npts:npts + nexc]))
    return out


def _cover(b: _JobList) -> None:
    for p, k, M in PHIKM_COVERS:
        tag = f"phikm-{p}-{k}-{M}"
        points = [z[1:] for z in phi_forms(p, k, M) if any(z[1:])]
        excluded = [[0] * M]
        base = ["cover", "--phikm-origin", "--p", str(p), "--k", str(k), "--M", str(M)]
        b.job(f"{tag}/hyperplanes", base + ["--hyperplanes-only"],
              checks.cover_check(p, M, points, excluded, "hyperplanes-only", tag))
        b.job(f"{tag}/affine", base, checks.cover_check(p, M, points, excluded, "affine-spans", tag))
    for n, (p, M, points, excluded) in enumerate(_library_point_sets()):
        m = _random_invertible(p, M, b.rng, keep_first_column=False)
        shift = [b.rng.randrange(p) for _ in range(M)]
        points, excluded = (_affine_map(pts, m, shift, p) for pts in (points, excluded))
        tag = f"lib{n:02d}-p{p}-M{M}-n{len(points)}"
        path = _write(b.path(f"{tag}.json"), {"p": p, "M": M, "points": points, "excluded": excluded})
        b.job(f"{tag}/hyperplanes", ["cover", path, "--hyperplanes-only"],
              checks.cover_check(p, M, points, excluded, "hyperplanes-only", tag))
        b.job(f"{tag}/affine", ["cover", path], checks.cover_check(p, M, points, excluded, "affine-spans", tag))


# ---------------------------------------------------------------------------
# chain: Cauchy-Schwarz reduction chains from phikm witnesses

# (p, k, M, --max-forms or None, interior cut points)
CHAINS = (
    (3, 4, 2, None, ((1, 2), (0, 2), (2, 1), (1, 1), (0, 1), (2, 0), (1, 0))),
    (5, 4, 2, 1024, ((0, 3), (1, 2), (0, 2), (2, 1), (1, 1), (0, 1))),
    (3, 3, 3, 1024, ((0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 0, 1), (0, 2, 0), (1, 1, 0))),
    (5, 3, 2, None, ((0, 2), (1, 1), (0, 1), (2, 0), (1, 0))),
    (7, 3, 2, None, ((0, 2), (1, 1), (0, 1), (2, 0), (1, 0))),
)


def _chain_job(b: _JobList, tag, p, k, M, forms, sys_path, at, max_forms, extra=(), numeric=None):
    cert = b.phikm_certificate(p, k, M, forms, at)
    argv = ["reduce", sys_path, "--witness", cert]
    if max_forms is not None:
        argv += ["--max-forms", str(max_forms)]
    cut = "origin" if at is None else "at" + "".join(map(str, at))
    b.job(f"{tag}/{cut}{'-numeric' if numeric else ''}", argv + list(extra),
          checks.chain_check(p, forms, cert, max_forms or REDUCE_DEFAULT_MAX_FORMS, numeric))


def _chain(b: _JobList) -> None:
    for p, k, M, max_forms, cuts in CHAINS:
        tag = f"phi-{p}-{k}-{M}"
        forms = _scale_variables(phi_forms(p, k, M), p, b.rng)
        sys_path = _write(b.path(f"{tag}.json"), {"p": p, "forms": forms})
        _chain_job(b, tag, p, k, M, forms, sys_path, None, max_forms)
        for at in cuts:
            _chain_job(b, tag, p, k, M, forms, sys_path, at, max_forms)


# ---------------------------------------------------------------------------
# norms: Lambda averages, uniformity norms and numeric step checks

GOWERS_TABLES = ((5, 3, 3), (3, 4, 4), (7, 2, 4), (5, 3, 4))
# tables where the direct-definition oracle is affordable: (p, n, k)
GOWERS_DIRECT = ((7, 2, 2), (3, 2, 4), (2, 3, 4), (5, 2, 3), (7, 1, 4), (2, 4, 3))


def _norms(b: _JobList) -> None:
    seed = str(b.rng.randrange(10**6))
    phi62 = _write(b.path("phi-5-6-2.json"), {"p": 5, "forms": phi_forms(5, 6, 2)})
    phi532 = _write(b.path("phi-5-3-2.json"), {"p": 5, "forms": phi_forms(5, 3, 2)})
    phi342 = _write(b.path("phi-3-4-2.json"), {"p": 3, "forms": phi_forms(3, 4, 2)})
    phi_small = [(p, k, _write(b.path(f"phi-{p}-{k}-1.json"), {"p": p, "forms": phi_forms(p, k, 1)}))
                 for p, k in ((5, 3), (7, 3), (5, 4), (7, 4))]
    f7 = _write(b.path("remark-f7.json"), REMARK_F7)
    f23 = _write(b.path("remark-f23.json"), REMARK_F23)

    def gvn(tag, path, where, k, ell, n, trials, family=None):
        argv = ["gvn", "--system", path, *where, "--k", str(k), "--ell", str(ell), "--n", str(n),
                "--trials", str(trials), "--seed", seed]
        if family is not None:
            argv += family
        b.job(f"gvn-{tag}", argv, checks.gvn_check(family is not None))

    gvn("phi-5-6-2-n1", phi62, ["--at-origin"], 4, 2, 1, 100)
    gvn("phi-5-6-2-n2", phi62, ["--at-origin"], 4, 2, 2, 2)
    for i in range(6):
        gvn(f"remark-f7-at{i}-n1", f7, ["--at", str(i)], 1, 2, 1, 100)
    gvn("remark-f7-n2", f7, ["--at", "5"], 1, 2, 2, 20)
    gvn("remark-f23-n1", f23, ["--at", "0"], 2, 1, 1, 100)
    gvn("phi-5-3-2-n3", phi532, ["--at-origin"], 1, 6, 3, 1)
    for p, k, path in phi_small:
        for n in (1, 2):
            gvn(f"phi-{p}-{k}-1-n{n}", path, ["--at-origin"], k - 2, 1, n, 100)
    gvn("phi-3-4-2-counterexample", phi342, ["--at-origin"], 2, 8, 2, 1,
        ["--family", "counterexample", "--phi-k", "4", "--phi-M", "2"])

    for n_tab, (p, n, k) in enumerate(GOWERS_TABLES + GOWERS_DIRECT):
        table = random_one_bounded(p, n, [int(seed), n_tab], ("phases", "disk", "signs")[n_tab % 3])
        raw = table.to_json()
        path = _write(b.path(f"table-{n_tab:02d}-p{p}-n{n}.json"), raw)
        direct = (p, n, k) in GOWERS_DIRECT
        b.job(f"gowers-p{p}-n{n}-k{k}", ["gowers", path, "--k", str(k)] + (["--direct"] if direct else []),
              checks.gowers_check(raw, k, direct))

    for p, k, M, at in ((3, 4, 2, (0, 2)), (3, 4, 2, (2, 1)), (5, 3, 2, (1, 1)), (3, 3, 3, (0, 1, 1)),
                        (5, 4, 2, (1, 2))):
        tag = f"phi-{p}-{k}-{M}"
        forms = phi_forms(p, k, M)
        sys_path = _write(b.path(f"{tag}-numeric.json"), {"p": p, "forms": forms})
        _chain_job(b, tag, p, k, M, forms, sys_path, at, None,
                   ["--numeric-check", "--n", "1", "--trials", "20", "--seed", seed], numeric=1e-9)


GENERATORS = {"certify": _certify, "cover": _cover, "chain": _chain, "norms": _norms}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the seeded inputs of workload `name` into `workdir` and list its jobs.

    The job order is one fixed shuffle, the same for every seed: small and large
    jobs alternate, so the small ones sample the whole pass rather than one
    stretch of it, which steadies the latency percentiles on a noisy machine.
    """
    draft = _JobList(name, seed, workdir)
    GENERATORS[name](draft)
    random.Random(LIBRARY_SEED).shuffle(draft.jobs)
    return Workload(name, draft.jobs)
