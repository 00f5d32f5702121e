#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Smoke run: the `chain` workload at seed 0 for one second, untraced and
   traced; prints every metric name and fails unless the names are exactly
   those of BENCHMARK.json and every job passed.
2. Mutation check: runs a handful of real jobs, then corrupts one
   certificate, one cover, one chain, one norm value and one Lambda value in
   their reports before checking; every corrupted job must be counted as
   failed, and the uncorrupted pass must have none.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def smoke() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", "chain", "--seed", "0",
               "--seconds", "1", "--trace", str(trace_flag)]
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            return [f"smoke run failed with exit code {proc.returncode}: {proc.stderr[-500:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            problems.append(f"trace {trace_flag}: result not correct: {result}")
        names = list(result["metrics"])
        print(f"trace {trace_flag}: {len(names)} metrics: {' '.join(names)}")
        expected = {m["name"] for m in spec[key]}
        if set(names) != expected:
            problems.append(f"trace {trace_flag}: metric names differ from BENCHMARK.json: "
                            f"missing {sorted(expected - set(names))}, extra {sorted(set(names) - expected)}")
        for name, metric in result["metrics"].items():
            unit = next((m["unit"] for m in spec[key] if m["name"] == name), None)
            if unit is not None and metric["unit"] != unit:
                problems.append(f"{name}: unit {metric['unit']} differs from {unit}")
    return problems


def _drop_last_subspace(report):
    report["cover"]["subspaces"].pop()
    report["minimum"] -= 1
    return report


def _bump_output_form(report):
    row = report["chain"]["steps"][0]["output"]["forms"][0]
    row[-1] += 1
    return report


def _shift_norm(report):
    report["norm"] += 1e-6
    return report


def _shrink_lambda(report):
    """|Lambda| of the counterexample below 1, with its slack kept consistent."""
    rep = report["report"]
    rec = rep["records"][0]
    rec["abs_lambda"] = 0.999
    rec["slack"] = rec["norm"] ** rep["exponent"] - 0.999
    rep["max_violation"] = max(0.0, -rec["slack"])
    return report


def _mutate_witness(report):
    import checks

    cert = report["results"][0]["certificate"]
    report["results"][0]["certificate"] = checks.mutate_certificate(cert)
    return report


MUTATIONS = {
    "certify/phi-5-4-2/witness": _mutate_witness,
    "cover/phikm-5-6-2/affine": _drop_last_subspace,
    "chain/phi-5-3-2/at11": _bump_output_form,
    "norms/gowers-p7-n2-k2": _shift_norm,
    "norms/gvn-phi-3-4-2-counterexample": _shrink_lambda,
}


def mutation_check() -> list[str]:
    import workloads
    from seqcs import cli

    problems = []
    jobs = []
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.RESULTS) as tmp:
        for name in ("certify", "cover", "chain", "norms"):
            workdir = Path(tmp) / name
            workdir.mkdir()
            built = workloads.build(name, 0, workdir)
            jobs += [job for job in built.jobs if job.id in MUTATIONS]
        if len(jobs) != len(MUTATIONS):
            return [f"mutation targets missing: {sorted(set(MUTATIONS) - {j.id for j in jobs})}"]
        runner = run.Runner(workloads.Workload("selftest", jobs), Path(tmp), cli)
        clean = runner.run_pass()
        if clean["failed"]:
            problems.append(f"uncorrupted pass failed {clean['failed']} jobs")
        corrupted = runner.run_pass(corrupt=lambda job, report: MUTATIONS[job.id](report)
                                    if job.id in MUTATIONS else report)
        for job_id, rec in runner.records.items():
            print(f"{job_id}: {rec['failures'][:1] or 'passed'}")
        caught = {job_id for job_id, rec in runner.records.items() if rec["failures"]}
        if caught != set(MUTATIONS) or corrupted["failed"] != len(MUTATIONS):
            problems.append(f"corruptions not all counted: caught {sorted(caught)}")
        print(f"failed_frac after corruption: {runner.failed}/{runner.attempted}")
    return problems


def main() -> int:
    if run.import_program() is None:
        print("no seqcs sources in this checkout", file=sys.stderr)
        return 2
    problems = smoke() + mutation_check()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
