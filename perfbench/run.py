#!/usr/bin/env python3
"""Benchmark of the seqcs command-line toolkit.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run is one fresh process and one closed-loop client: it imports `seqcs`
from `src/` of this checkout, writes the workload's seeded inputs, then calls
`seqcs.cli.main(argv)` in-process for one job at a time, the next job only
after the previous one returned.  The job list is run as whole passes, at
least two, ending at the pass boundary nearest to `--seconds` of job time;
program caches are emptied between passes, so every pass starts as cold as
the first.  Every report is checked independently after its pass (see
checks.py), outside the timed calls.  A fixed unit of reference work is timed
around and during every job, and every end-to-end time is reported at a
nominal host speed (see speed.py).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` one untraced pass is followed by traced passes, and the last line
holds the per-layer metrics with the traced and untraced pass times.  Per-job
records (exit code, measured and nominal-speed latencies, SHA-256 of the
report with work paths replaced by `<work>`) and, when traced, the spans are
written under `.perfbench/`.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".perfbench"
WORKLOADS = ("certify", "cover", "chain", "norms")
MIN_PASSES = 2
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 600
TAIL_BEYOND = 10


def import_program():
    """Import seqcs from this checkout's src/, or return None when it is absent."""
    src = ROOT / "src"
    if not (src / "seqcs" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import seqcs

    if Path(seqcs.__file__).resolve().parent != (src / "seqcs").resolve():
        return None
    return seqcs


def reset_program_caches() -> None:
    """Empty the process-lifetime caches of every seqcs module."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("seqcs"):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, dict) and attr.startswith("_") and ("cache" in attr or "evaluator" in attr):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q / 100 * len(sorted_values)) - 1, 0)]


class Runner:
    """Runs passes of one workload's job list and checks every report."""

    def __init__(self, workload, workdir: Path, cli):
        self.workload = workload
        self.workdir = str(workdir)
        self.cli = cli
        self.tracer = None
        self.records: dict[str, dict] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.speed = speed.Track()

    def run_pass(self, corrupt=None) -> dict:
        """One pass: every job, then every check.  Returns the pass summary."""
        done, factors = [], []
        pending = list(reversed(self.workload.jobs))
        if self.tracer is not None:
            self.tracer.enabled = True
        while pending:
            job = pending.pop()
            rc, error, latency, factor = self._call(job)
            done.append((job, rc, error, latency))
            factors.append(factor)
            if job.followups is not None and rc is not None:
                try:
                    with open(job.out, encoding="utf-8") as fh:
                        pending.extend(reversed(job.followups(json.load(fh))))
                except (OSError, ValueError, KeyError) as exc:
                    done[-1] = (job, rc, f"follow-up jobs not derivable: {exc!r}", latency)
        if self.tracer is not None:
            self.tracer.enabled = False
        if self.peak_rss_mb is None:
            # high-water mark of the program's jobs, taken before any check allocates
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        state: dict = {}
        report_bytes = 0
        failed = 0
        for (job, rc, error, latency), factor in zip(done, factors):
            rec = self.records.get(job.id)
            failures, nbytes, digest = self._check(job, rc, error, state, corrupt, rec and rec["sha256"])
            report_bytes += nbytes
            failed += bool(failures)
            if rec is None:
                rec = self.records[job.id] = {"argv": self._normalize(" ".join(job.full_argv)), "rc": rc,
                                              "sha256": digest, "latencies_s": [], "nominal_s": [],
                                              "failures": []}
            rec["latencies_s"].append(latency)
            rec["nominal_s"].append(latency * factor)
            rec["failures"] = rec["failures"] or failures[:5]
        self.attempted += len(done)
        self.failed += failed
        return {"wall_s": sum(item[3] for item in done), "latencies": [item[3] for item in done],
                "factors": factors, "jobs": len(done), "failed": failed, "report_bytes": report_bytes}

    def _call(self, job):
        """(exit code, error, latency, nominal-speed factor) of one job."""
        sink = io.StringIO()
        if self.tracer is not None:
            self.tracer.job = job.id

        def call():
            try:
                return self.cli.main(job.full_argv), None
            except SystemExit as exc:
                return None, f"SystemExit({exc.code}): {sink.getvalue()[-300:]}"
            except Exception as exc:  # a raised exception is a failed job, not a failed benchmark
                return None, "".join(traceback.format_exception_only(type(exc), exc)).strip()

        with redirect_stdout(sink), redirect_stderr(sink):
            (rc, error), latency, factor = self.speed.measure(call)
        return rc, error, latency, factor

    @staticmethod
    def normalized(summary: dict) -> list[float]:
        """A pass's job latencies at the nominal host speed (see speed.py)."""
        return [lat * f for lat, f in zip(summary["latencies"], summary["factors"])]

    def _normalize(self, text: str) -> str:
        return text.replace(self.workdir, "<work>")

    def _check(self, job, rc, error, state, corrupt, previous_digest):
        """(failures, report bytes, report SHA-256) of one finished job."""
        if error is not None:
            return [f"job raised: {error}"], 0, None
        try:
            with open(job.out, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            return [f"no report: {exc}"], 0, None
        digest = hashlib.sha256(self._normalize(raw.decode("utf-8")).encode("utf-8")).hexdigest()
        fails = []
        if previous_digest is not None and previous_digest != digest:
            fails.append("report differs from the previous pass")
        key = (job.id, digest, rc)
        if corrupt is None and key in self.verdicts:
            return fails + self.verdicts[key], len(raw), digest
        try:
            report = json.loads(raw)
            if corrupt is not None:
                report = corrupt(job, report)
            verdict = job.check(report, rc, state)
        except Exception as exc:  # a malformed report fails its job
            verdict = [f"check raised: {exc!r}"]
        if corrupt is None:
            self.verdicts[key] = verdict
        return fails + verdict, len(raw), digest


def _probe_setup(args, track: speed.Track) -> tuple[float, float]:
    """(seconds, nominal-speed factor) from interpreter start to the first job,
    in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    proc, elapsed, factor = track.measure(lambda: subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, check=False))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed, factor


def _metadata(args, seqcs) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqcs").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit, "source_sha256": source.hexdigest(),
        "seqcs_version": getattr(seqcs, "__version__", None), "load": "closed loop, 1 client, 1 job at a time",
    }


def run_workload(args, seqcs) -> int:
    import workloads
    from seqcs import cli

    RESULTS.mkdir(exist_ok=True)
    if args.probe:
        workdir = Path(tempfile.mkdtemp(prefix=f"probe-{args.workload}-", dir=RESULTS))
        try:
            workloads.build(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    probe_track = speed.Track()
    probes = [_probe_setup(args, probe_track) for _ in range(SETUP_PROBES)]
    setup_runs = [elapsed for elapsed, _ in probes]
    setup_norm = [elapsed * factor for elapsed, factor in probes]
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    try:
        runner = Runner(workloads.build(args.workload, args.seed, workdir), workdir, cli)
        passes, untraced = [], None
        if args.trace:
            untraced = runner.run_pass()
            import tracing

            runner.tracer = tracing.Tracer()
            runner.tracer.install()
        measured = 0.0
        # whole passes, ending at the pass boundary nearest to --seconds of job time
        while len(passes) < (1 if args.trace else MIN_PASSES) or measured + passes[-1]["wall_s"] / 2 <= args.seconds:
            reset_program_caches()
            passes.append(runner.run_pass())
            measured += passes[-1]["wall_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = _metadata(args, seqcs)
    jobs_per_pass = passes[0]["jobs"]
    norm = [runner.normalized(p) for p in passes]
    latencies = sorted(x for lat in norm for x in lat)
    raw_latencies = sorted(x for p in passes for x in p["latencies"])
    min_jobs = jobs_per_pass * MIN_PASSES
    tail_q = math.floor(100 * (1 - TAIL_BEYOND / min_jobs)) if min_jobs > TAIL_BEYOND and not args.trace else None
    meta.update({"passes": len(passes), "jobs_per_pass": jobs_per_pass, "jobs_measured": len(latencies),
                 "tail_percentile": tail_q,
                 "tail_jobs_beyond": None if tail_q is None else len(latencies) - math.ceil(tail_q / 100 * len(latencies)),
                 "pass_wall_s": [p["wall_s"] for p in passes], "setup_runs_s": setup_runs,
                 "reference_unit_s": {"nominal": speed.NOMINAL_S, "run": runner.speed.units,
                                      "setup": probe_track.units}})
    wall = statistics.median(sum(lat) for lat in norm)
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    raw_metrics = {}
    if args.trace:
        # measured seconds, like the layer times they are compared with
        metrics = runner.tracer.per_layer(len(passes), passes[0]["report_bytes"])
        metrics["trace.wall_s"] = {"value": raw_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced["wall_s"], "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": raw_wall / untraced["wall_s"] - 1, "unit": "ratio"}
        meta["traced_functions_missing"] = runner.tracer.missing
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_mb, "unit": "MiB"},
        }
        raw_metrics = {"setup_s": statistics.median(setup_runs), "wall_s": raw_wall,
                       "job_p50_s": statistics.median(raw_latencies)}
        if tail_q is not None:
            metrics["job_tail_s"] = {"value": percentile(latencies, tail_q), "unit": "s"}
            raw_metrics["job_tail_s"] = percentile(raw_latencies, tail_q)
    failed_frac = runner.failed / runner.attempted
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"meta": meta, "metrics": metrics, "measured_at_host_speed_s": raw_metrics,
              "failed_frac": {"value": failed_frac, "unit": "ratio"}, "attempted": runner.attempted, "failed": runner.failed, "jobs": runner.records}
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        runner.tracer.dump(RESULTS / f"{stem}-spans.json")

    print(f"# {args.workload} seed={args.seed} passes={len(passes)} jobs/pass={jobs_per_pass} "
          f"jobs={len(latencies)} tail=p{tail_q} nproc={meta['nproc']} python={meta['python']} "
          f"numpy={meta['numpy']}")
    for name, m in metrics.items():
        raw = f"  (measured {raw_metrics[name]:.6g} s)" if name in raw_metrics else ""
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{raw}")
    print(f"{'failed_frac':32s} {failed_frac:.6g} ratio ({runner.failed}/{runner.attempted})")
    for job_id, rec in runner.records.items():
        for msg in rec["failures"]:
            print(f"FAILED {job_id}: {msg}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process; one table."""
    rows, total = [], {"attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace_flag)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                                  check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(RESULTS / f"{name}-seed{args.seed}-trace{trace_flag}.json", encoding="utf-8") as fh:
                saved = json.load(fh)
            total["attempted"] += out["attempted"]
            total["failed"] += out["failed"]
            for metric, m in out["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = m
            rows.append((name, trace_flag, out, saved))
    print(f"{'workload':9s} {'metric':32s} {'value':>12s} unit")
    for name, trace_flag, out, saved in rows:
        shown = out["metrics"] if not trace_flag else {k: v for k, v in out["metrics"].items()
                                                       if k.startswith("trace.")}
        for metric, m in shown.items():
            print(f"{name:9s} {metric:32s} {m['value']:12.6g} {m['unit']}")
        if not trace_flag:
            meta = saved["meta"]
            print(f"{name:9s} {'failed_frac':32s} {saved['failed_frac']['value']:12.6g} ratio")
            print(f"{name:9s} {'(job_tail_s percentile, jobs)':32s} {'p' + str(meta['tail_percentile']):>12s} "
                  f"{meta['jobs_measured']} jobs, {meta['tail_jobs_beyond']} beyond")
    print(f"per-layer metrics: {RESULTS}/<workload>-seed{args.seed}-trace1.json")
    print(json.dumps({"correct": total["failed"] == 0, **total}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    seqcs = import_program()
    if seqcs is None:
        print(f"no seqcs sources under {ROOT / 'src'}; run from the root of a seqcs checkout", file=sys.stderr)
        return 2
    return run_workload(args, seqcs)


if __name__ == "__main__":
    sys.exit(main())
