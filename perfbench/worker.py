"""Child process of the benchmark: set-up probe, traced CLI job, or session.

    worker.py setup MANIFEST                 import cumalg, parse and law-check
                                             every document MANIFEST lists
    worker.py job TRACE_OUT JOB_ID -- ARGV   one CLI job under the tracer
    worker.py session JOBS RESULTS [TRACE_OUT]
                                             a job stream in one process

The benchmark starts it with `src/` on PYTHONPATH.  Untraced one-job
processes do not come here: they run `python3 -m cumalg.cli` itself.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import sys
import time
import traceback

import spans as tracing
from reference import ITERATIONS, reference

# in a session the reference runs before every job, so it is kept short
SESSION_REFERENCE = ITERATIONS // 4


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_document(role, doc):
    """Parse and law-check one input document the way its command does."""
    import cumalg as cm

    if role == "algebra":
        return cm.parse_algebra(doc)
    if role == "map":
        source = cm.parse_algebra(doc["source"])
        return cm.parse_linear_map(doc, source, source)
    if role == "moments":
        moments = cm.parse_moments(doc)
        return moments, cm.truncated_polynomial_algebra(len(moments))
    if role == "retract":
        retract = cm.parse_retract(doc)
        return cm.validate_retract(retract)
    if role == "transfer":
        t = cm.parse_transfer_input(doc)
        return cm.validate_retract(t.retract)
    raise ValueError(f"unknown role {role!r}")


def setup(manifest_path):
    for role, path in _load(manifest_path):
        parse_document(role, _load(path))


def job(trace_out, job_id, argv):
    tracer = tracing.Tracer()
    tracer.job = int(job_id)
    tracing.install(tracer)
    from cumalg import cli

    code = cli.run(argv)
    tracing.end_of_process(tracer)
    tracer.dump(trace_out)
    return code


def _rss_mib():
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_library_job(spec):
    """A law check on a seeded extension, called through the public API."""
    import cumalg as cm

    algebra = cm.parse_algebra(_load(spec["algebra"]))
    family = cm.TaylorFamily.from_doc(_load(spec["family"]), algebra, algebra)
    if spec["kind"] == "check_comorphism":
        report = cm.check_comorphism(cm.extend_coalgebra_map(family, spec["cap"]))
    else:
        report = cm.check_coderivation(cm.extend_coderivation(family, spec["cap"]))
    doc = {"command": spec["kind"], "ok": report.ok, "report": report.to_doc()}
    with open(spec["output"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if report.ok else 1


def session(jobs_path, results_path, trace_out=None):
    """Run a job stream in this process, one job at a time.

    Each job's latency is taken around the call alone, and the reference
    computation runs before each job and after the last one.  Resident memory
    is read after `gc.collect()` once the warm-up prefix is done and again
    after the last job.
    """
    plan = _load(jobs_path)
    tracer = None
    if trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    from cumalg import cli

    results = []
    refs = [reference(SESSION_REFERENCE)]
    rss_warm = None
    clock = time.perf_counter
    for n, spec in enumerate(plan["jobs"]):
        if tracer is not None:
            tracer.job = n
        err = io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stderr(err):
                if spec["kind"] == "cli":
                    code = cli.run(spec["argv"])
                else:
                    code = run_library_job(spec)
            error = None
        except Exception:  # a traceback is a failed job, not a failed session
            code, error = None, traceback.format_exc()
        latency = clock() - start
        refs.append(reference(SESSION_REFERENCE))
        results.append({"latency_s": latency, "exit": code, "error": error,
                        "stderr": err.getvalue()})
        if n + 1 == plan["warmup"]:
            gc.collect()
            rss_warm = _rss_mib()
    gc.collect()
    rss_end = _rss_mib()
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": results, "refs_s": refs, "rss_warm_mib": rss_warm,
                   "rss_end_mib": rss_end}, fh)
    if tracer is not None:
        tracing.end_of_process(tracer)
        tracer.dump(trace_out)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
        return 0
    if mode == "job":
        sep = argv.index("--")
        return job(argv[1], argv[2], argv[sep + 1:])
    if mode == "session":
        return session(*argv[1:4])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
