#!/usr/bin/env python3
"""Benchmark of the `cumalg` CLI and library, run from the repository root:

    python3 perfbench/run.py --workload moments --seed 1 --seconds 20 --trace 0

Workloads: moments, graded-tables, session (see workloads.py and README.md).
The run writes the seed's input documents, times the program's cold start
(`setup_s`), then repeats the workload's pass (its fixed job sequence) until
`--seconds` of passes have been measured.  One client runs one job at a time.
Every report is checked outside the timed region, by an independent route on
the first pass and byte for byte against it on later passes.

With `--trace 1` the run adds one traced pass and reports the per-layer
metrics instead of the end-to-end ones.  The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}; the line before it
holds the run's metadata, sample counts and workload properties.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from reference import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PYTHON = sys.executable
sys.path.insert(0, str(SRC))  # the independent checks call the library
SETUP_REPEATS = 9
JOB_TIMEOUT_S = 60
RUN_BUDGET_S = 160  # no job outlives this much of a run, which must end within 180 s
MAX_WEIGHT = 8
CPUS = sorted(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, stderr_path, timeout, turn=0, calibrate=False):
    """Run one child to completion: (seconds, exit code, peak RSS in MiB,
    reference seconds or None).

    This process and the child are pinned to the `turn`-th CPU (cyclically),
    so a run spreads its children over the machine's CPUs.  With `calibrate`
    the reference computation runs on that CPU just before and just after the
    child, and their mean is returned.  A child still running after `timeout`
    seconds is killed; its exit code is then the negative signal number,
    which no job expects.
    """
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})  # the child inherits it
    before = reference() if calibrate else None
    with open(stderr_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ref = (before + reference()) / 2 if calibrate else None
    return seconds, proc.returncode, usage.ru_maxrss / 1024, ref


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


# --- passes -----------------------------------------------------------------

def run_pass(plan, work: Path, tag: str, traced: bool, deadline: float, turn=0):
    """Run the plan's jobs once; any job still running at `deadline` (a
    `time.monotonic()` value) is killed.  Returns the pass wall time and, per
    job, latency, exit code, stderr, report path and (if traced) trace path."""

    def timeout():
        return min(JOB_TIMEOUT_S, deadline - time.monotonic())

    out = work / tag
    out.mkdir()
    jobs = []
    for n, job in enumerate(plan.jobs):
        jobs.append({"out": str(out / f"{n}.json"), "err": str(out / f"{n}.err"),
                     "trace": str(out / f"{n}.trace") if traced else None})
    if plan.workload == "session":
        stream = []
        for job, rec in zip(plan.jobs, jobs):
            if job.spec:
                stream.append({**job.spec, "output": rec["out"]})
            else:
                stream.append({"kind": "cli", "argv": job.argv + ["--output", rec["out"]]})
        (out / "jobs.json").write_text(json.dumps({"warmup": plan.warmup, "jobs": stream}))
        argv = [PYTHON, str(HERE / "worker.py"), "session", str(out / "jobs.json"),
                str(out / "results.json")] + ([str(out / "session.trace")] if traced else [])
        wall, code, rss, ref = spawn(argv, out / "session.err", timeout(), turn, True)
        results = json.loads(_read(out / "results.json") or "null") if code == 0 else None
        for n, rec in enumerate(jobs):
            if results:
                got = results["jobs"][n]
                # the median of the short references around the job, which
                # are noisier one by one than the full-length ones
                ref = statistics.median(results["refs_s"][max(0, n - 2):n + 4])
            else:
                got = {"latency_s": wall, "exit": None,
                       "error": _read(out / "session.err"), "stderr": ""}
            rec.update(latency=got["latency_s"], ref=ref, exit=got["exit"],
                       stderr=(got["error"] or "") + got["stderr"])
        session = {"rss_mib": rss,
                   "growth_mib": (results["rss_end_mib"] - results["rss_warm_mib"]
                                  if results else None),
                   "trace": str(out / "session.trace") if traced else None}
        return {"wall_s": wall, "jobs": jobs, "session": session}

    start = time.perf_counter()
    for n, (job, rec) in enumerate(zip(plan.jobs, jobs)):
        argv = job.argv + ["--output", rec["out"]]
        if traced:
            argv = [PYTHON, str(HERE / "worker.py"), "job", rec["trace"], str(n), "--"] + argv
        else:
            argv = [PYTHON, "-m", "cumalg.cli"] + argv
        rec["latency"], rec["exit"], rec["rss_mib"], rec["ref"] = spawn(
            argv, rec["err"], timeout(), turn + n, True)
    wall = time.perf_counter() - start
    for rec in jobs:
        rec["stderr"] = _read(rec["err"])
    return {"wall_s": wall, "jobs": jobs}


def verify(plan, result, first: dict, seed: int):
    """Check each job of a pass; returns the list of (job name, reason).

    The first pass gets the independent content checks and records each
    report's digest; later passes must reproduce those bytes exactly.
    """
    failures = []
    for n, (job, rec) in enumerate(zip(plan.jobs, result["jobs"])):
        data = Path(rec["out"]).read_bytes() if Path(rec["out"]).exists() else None
        rec["bytes"] = len(data) if data is not None else 0
        reason = checks.outcome(job, rec["exit"], rec["stderr"])
        if reason is None:
            digest = hashlib.sha256(data).hexdigest() if data is not None else None
            if n in first:
                if digest != first[n]:
                    reason = "report is not byte-identical to the first pass"
            else:
                try:
                    report = json.loads(data) if data is not None else None
                except ValueError:
                    report = None
                reason = checks.content(job, report, plan.payload, seed)
                if reason is None:
                    first[n] = digest
        if reason is not None:
            failures.append((job.name, reason))
        # reports can be megabytes; only their digests are kept
        Path(rec["out"]).unlink(missing_ok=True)
    return failures


# --- metrics ----------------------------------------------------------------

def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 \
        else values[0]


def rss_growth(plan, passes, probes):
    """MiB a process grows while it runs jobs.  Session: resident memory after
    the last job minus after the warm-up prefix, both after gc.collect().
    One-job processes: peak RSS of the heaviest job minus that of a set-up
    probe, which stopped after importing and parsing."""
    if plan.workload == "session":
        growths = [p["session"]["growth_mib"] for p in passes
                   if p["session"]["growth_mib"] is not None]
        return statistics.median(growths) if growths else 0.0
    peak = max(rec["rss_mib"] for p in passes for rec in p["jobs"])
    return peak - statistics.median(rss for _, _, rss in probes)


def normalized(passes):
    """Job and pass times in reference units: each latency divided by the
    reference time measured next to it on the same CPU.

    Returns each job's median over the run's passes, and the median over the
    passes of their summed job times.
    """
    for p in passes:
        for rec in p["jobs"]:
            rec["ratio"] = rec["latency"] / rec["ref"]
    per_job = [statistics.median(p["jobs"][n]["ratio"] for p in passes)
               for n in range(len(passes[0]["jobs"]))]
    wall = statistics.median(sum(rec["ratio"] for rec in p["jobs"]) for p in passes)
    return per_job, wall


def end_to_end(plan, passes, probes):
    per_job, wall = normalized(passes)
    if plan.workload == "session":
        peak = max(p["session"]["rss_mib"] for p in passes)
    else:
        peak = max(rec["rss_mib"] for p in passes for rec in p["jobs"])
    return {
        "wall_ref": (wall, "ref"),
        "job_p50_ref": (statistics.median(per_job), "ref"),
        "job_p90_ref": (p90(per_job), "ref"),
        "jobs_per_ref": (len(per_job) / wall, "1/ref"),
        "setup_s": (statistics.median(s for s, _, _ in probes), "s"),
        "peak_rss_mib": (peak, "MiB"),
    }


SPANS = (  # span names whose self time is reported as <name>.self_s
    "algebra.parse_algebra", "algebra.multiply", "coalgebra.wedge", "coalgebra.coproduct",
    "coalgebra.selement", "morphisms.ext_map", "morphisms.ext_coder", "morphisms.inverse",
    "morphisms.smap_call", "morphisms.check", "morphisms.extract", "cumulant.tau_family",
    "transfer.validate", "transfer.induce", "transfer.certify", "linalg.rank",
    "probability.cumulants", "probability.oracle", "cli.load", "cli.handler", "cli.emit",
)
CALL_NAMES = {  # spans whose number of calls is also reported, as <name>.<suffix>
    "algebra.parse_algebra": "calls", "algebra.multiply": "calls",
    "coalgebra.wedge": "calls", "coalgebra.coproduct": "calls", "coalgebra.selement": "ops",
    "morphisms.ext_map": "evals", "morphisms.ext_coder": "evals", "morphisms.inverse": "evals",
    "linalg.rank": "calls",
}
COUNTS = (
    "coalgebra.set_partitions.partitions", "morphisms.on_monomial.calls",
    "morphisms.on_monomial.misses", "morphisms.compose.calls", "morphisms.check.monomials",
    "cumulant.tau_family.tabulated", "cumulant.context.hits", "cumulant.context.misses",
    "cumulant.conjugate.calls", "linalg.rank.cells", "cli.emit.bytes",
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(trace_paths, traced_wall, untraced_wall, growth):
    """Sum the traced pass's per-process dumps into the per-layer metrics.
    The two walls are in reference units."""
    calls, self_s, counts, weights = {}, {}, {}, {}
    memo, tau_used = 0, 0
    for path in trace_paths:
        doc = json.loads(Path(path).read_text())
        for src, dst in ((doc["calls"], calls), (doc["self_s"], self_s),
                         (doc["counts"], counts), (doc["weights"], weights)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        memo = max(memo, doc["counts"].get("coalgebra.coproduct.memo_size", 0))
        tau_used += doc["tau_used"]
    m = {}
    for name in SPANS:
        if name in CALL_NAMES:
            m[f"{name}.{CALL_NAMES[name]}"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    m["coalgebra.coproduct.memo_size"] = (memo, "count")
    hits = counts.get("morphisms.on_monomial.calls", 0) - counts.get(
        "morphisms.on_monomial.misses", 0)
    m["morphisms.on_monomial.hit_ratio"] = (
        _ratio(hits, counts.get("morphisms.on_monomial.calls", 0)), "ratio")
    tabulated = counts.get("cumulant.tau_family.tabulated", 0)
    m["cumulant.tau_family.used"] = (tau_used, "count")
    m["cumulant.tau_family.used_ratio"] = (_ratio(tau_used, tabulated), "ratio")
    for w in range(1, MAX_WEIGHT + 1):
        m[f"workload.monomials.w{w}"] = (weights.get(str(w), 0), "count")
    m["workload.repeated_even_share"] = (
        _ratio(counts.get("workload.ext_map.repeated_even", 0),
               counts.get("workload.ext_map.multi_factor", 0)), "ratio")
    m["process.rss_growth_mib"] = (growth, "MiB")
    m["trace.wall_ref"] = (traced_wall, "ref")
    m["trace.overhead_ref"] = (traced_wall - untraced_wall, "ref")
    return m


def _by_name(plan, passes):
    """Median latency of each job name (a session's names repeat)."""
    groups = {}
    for p in passes:
        for job, rec in zip(plan.jobs, p["jobs"]):
            groups.setdefault(job.name, []).append(rec["latency"])
    return {name: statistics.median(v) for name, v in sorted(groups.items())}


# --- metadata ---------------------------------------------------------------

def metadata(args):
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_revision": rev,
            "src_sha256": digest.hexdigest(), "src_lines": lines}


# --- entry point ----------------------------------------------------------

def measure(args, work: Path):
    deadline = time.monotonic() + RUN_BUDGET_S
    plan = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps(plan.manifest))
    probe = [PYTHON, str(HERE / "worker.py"), "setup", str(manifest)]
    probes = [spawn(probe, work / f"probe{k}.err", JOB_TIMEOUT_S, k)[:3]
              for k in range(SETUP_REPEATS + 1)]
    # the first probe only warms the bytecode and file caches
    probes = probes[1:]
    failures = [("setup", f"exit code {code}") for _, code, _ in probes if code != 0]

    first, passes, measured = {}, [], 0.0
    while not passes or measured < args.seconds:
        result = run_pass(plan, work, f"pass{len(passes)}", False, deadline, len(passes))
        failures += verify(plan, result, first, args.seed)
        passes.append(result)
        measured += result["wall_s"]
    attempted = len(probes) + sum(len(p["jobs"]) for p in passes)

    if args.trace:
        traced = run_pass(plan, work, "traced", True, deadline)
        failures += verify(plan, traced, first, args.seed)
        attempted += len(traced["jobs"])
        paths = ([traced["session"]["trace"]] if plan.workload == "session"
                 else [rec["trace"] for rec in traced["jobs"]])
        paths = [p for p in paths if Path(p).exists()]
        metrics = per_layer(paths, normalized([traced])[1], normalized(passes)[1],
                            rss_growth(plan, passes, probes))
        spans = [json.loads(Path(p).read_text())["spans"] for p in paths]
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        metrics = end_to_end(plan, passes, probes)

    detail = {"meta": metadata(args), "passes": len(passes), "jobs_per_pass": len(plan.jobs),
              "latency_samples": sum(len(p["jobs"]) for p in passes),
              "report_bytes_per_pass": sum(rec["bytes"] for rec in passes[0]["jobs"]),
              "rss_growth_mib": rss_growth(plan, passes, probes),
              "median_latency_s_by_job": _by_name(plan, passes),
              "median_reference_s": statistics.median(
                  rec["ref"] for p in passes for rec in p["jobs"]),
              "fail_frac": len(failures) / attempted, "failures": failures[:20]}
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "cumalg" / "__init__.py").is_file():
        print(f"perfbench: no cumalg sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
        result = measure(args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
