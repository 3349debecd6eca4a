#!/usr/bin/env python3
"""Time the CLI near its weight-cap ceiling: per phase in one process, and as
processes of their own.

    python3 tools/ceiling.py

Runs `lift` and `invert` on the truncated polynomial algebra p6 at caps 6, 8
and 10, and on p6c (p6 after a rational change of basis, so that its
structure constants are dense rationals) at caps 4 and 6; `lift` on e4c (the
15-generator exterior algebra after a rational change of basis, whose
products carry few terms) at cap 5; and `defects --kind hom` (on e4) and
`--kind der` (on e4c) at cap 5.  Each job runs through `cumalg.cli.run` with
its report written to a temporary file, and then once more as its own
`python3 -m cumalg.cli` process; then both again with `--format text`.
It also times the law-check layer on its own, in this process, as the
benchmark's session runs it: `check_comorphism` of the `extend_coalgebra_map`
of a seeded degree-zero family, and `check_coderivation` of the
`extend_coderivation` of a seeded family (of degree 1 on e4c, and 0 on p6c,
whose generators are all even), each family of arities 1 to 4, on e4c and
p6c at cap 4.
The process-wide split tables (`coalgebra._coproduct_memo`) and the parsed
documents the CLI keeps across jobs (`cli._parsed`, with the tau-tilde memos
in them) are cleared before each in-process job, so that no job reads
tables, documents or memos an earlier one built; then, before each in-process
job and each law check and outside its timing, `gc.collect()` frees the
cycles earlier jobs left, so that no job's time pays for their collection
and a row does not depend on which jobs ran before it.
Prints one JSON line: for each CLI job, the seconds spent in-process parsing
documents (`parse`), emitting the report (`emit`) and in the rest of the job
(`compute`); the process's seconds from spawn to reap (`process`) and its
peak resident set (`peak_rss_mib`, `ru_maxrss` from `os.wait4`); and, for
the text report, the in-process emit seconds (`text_emit`) and the
process's peak resident set (`text_peak_rss_mib`).  For each law check, the
seconds parsing its algebra and family (`parse`) and extending and checking
(`compute`).  The documents come from the benchmark's input generators with
a fixed seed.
"""
from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
import cumalg as cm  # noqa: E402
from cumalg import cli, coalgebra  # noqa: E402

SEED = 1
LAW_CAP = 4
# the extension each law check checks, by name in `cumalg`
LAWS = {"check_comorphism": "extend_coalgebra_map", "check_coderivation": "extend_coderivation"}
# reading a file, and the readers that `cli._parsed` calls to parse its bytes
# and build its objects
PHASED = ("_load_json", "parse_algebra", "_read_map")


def documents(work: Path) -> dict:
    rng = random.Random(f"ceiling:{SEED}")
    e4 = inputs.exterior_algebra(4)
    e4c = inputs.change_basis(rng, e4, "f")
    p6 = inputs.truncated_polynomial(6)
    docs = {
        "p6": p6,
        "e4c": e4c,
        "hom_e4": inputs.degree_zero_map(rng, e4),
        "der_e4c": inputs.degree_zero_map(rng, e4c),
    }
    docs["p6c"] = inputs.change_basis(rng, p6, "y")
    for name in ("e4c", "p6c"):
        odd = any(g["degree"] % 2 for g in docs[name]["generators"])
        for law in LAWS:
            degree = 1 if law == "check_coderivation" and odd else 0
            docs[f"{law}_{name}"] = inputs.random_family(rng, docs[name], degree, LAW_CAP)
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return paths


def law_checks(paths: dict) -> dict:
    """Each law-check row: the check, the extension, and the paths of its
    algebra and family documents."""
    return {f"{law} {name} cap {LAW_CAP}": (getattr(cm, law), getattr(cm, extension),
                                            paths[name], paths[f"{law}_{name}"])
            for name in ("e4c", "p6c") for law, extension in LAWS.items()}


def law_check(label, check, extend, algebra_path, family_path):
    """(parse, compute) seconds of one cold law check."""
    coalgebra._coproduct_memo.clear()
    gc.collect()
    start = time.perf_counter()
    algebra = cm.parse_algebra(json.loads(algebra_path.read_text(encoding="utf-8")))
    family = cm.TaylorFamily.from_doc(
        json.loads(family_path.read_text(encoding="utf-8")), algebra, algebra)
    parsed = time.perf_counter()
    report = check(extend(family, LAW_CAP))
    if not report.ok:
        raise SystemExit(f"{label}: law fails")
    return parsed - start, time.perf_counter() - parsed


def jobs(paths: dict) -> dict:
    out = {}
    for cap in (6, 8, 10):
        for command in ("lift", "invert"):
            out[f"{command} p6 cap {cap}"] = [
                command, "--weight-cap", str(cap), "--input", f"algebra={paths['p6']}"]
    for cap in (4, 6):
        for command in ("lift", "invert"):
            out[f"{command} p6c cap {cap}"] = [
                command, "--weight-cap", str(cap), "--input", f"algebra={paths['p6c']}"]
    out["lift e4c cap 5"] = ["lift", "--weight-cap", "5", "--input", f"algebra={paths['e4c']}"]
    out["defects hom e4 cap 5"] = ["defects", "--kind", "hom", "--weight-cap", "5",
                                   "--input", f"map={paths['hom_e4']}"]
    out["defects der e4c cap 5"] = ["defects", "--kind", "der", "--weight-cap", "5",
                                    "--input", f"map={paths['der_e4c']}"]
    return out


# Spawns each job from a small `python3 -S` process and prints, per job, its
# seconds from spawn to reap, exit code and `ru_maxrss` in KiB.  Linux keeps
# the peak RSS of the process a child was forked from as the child's starting
# peak, and this one holds the in-process jobs' memory.
LAUNCHER = """
import json, os, sys, time
for argv in json.loads(sys.argv[1]):
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "cumalg.cli", *argv], os.environ)
    _, status, usage = os.wait4(pid, 0)
    print(json.dumps([time.perf_counter() - start, os.waitstatus_to_exitcode(status),
                      usage.ru_maxrss]))
"""


def in_processes(argvs: list) -> list:
    """(seconds, exit code, peak RSS in MiB) of each argv run as its own
    CLI process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, json.dumps(argvs)],
                         env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
    return [(seconds, code, kib / 1024) for seconds, code, kib in map(json.loads, out.splitlines())]


def timed(phase: str, fn, spent: dict):
    def call(*args, **kwargs):
        if spent["open"]:  # inside a timed call, which counts this one
            return fn(*args, **kwargs)
        spent["open"] = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent["open"] = False
            spent[phase] += time.perf_counter() - start
    return call


def main() -> int:
    spent = {"parse": 0.0, "emit": 0.0, "open": False}
    for name in PHASED:
        setattr(cli, name, timed("parse", getattr(cli, name), spent))
    cli._emit = timed("emit", cli._emit, spent)

    def in_process(label, argv):
        """(parse, compute, emit) seconds of one in-process run."""
        spent.update(parse=0.0, emit=0.0)
        coalgebra._coproduct_memo.clear()
        cli._parsed.cache_clear()
        gc.collect()
        start = time.perf_counter()
        code = cli.run(argv)
        total = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"{label}: exit {code}")
        return spent["parse"], total - spent["parse"] - spent["emit"], spent["emit"]

    def each_process(argvs):
        for label, (seconds, code, mib) in zip(argvs, in_processes(list(argvs.values()))):
            if code != 0:
                raise SystemExit(f"{label}: process exit {code}")
            yield label, round(seconds, 3), round(mib, 1)

    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        paths = documents(work)
        base = jobs(paths)
        argvs = {label: argv + ["--output", str(work / "report.json")]
                 for label, argv in base.items()}
        texts = {label: argv + ["--format", "text", "--output", str(work / "report.txt")]
                 for label, argv in base.items()}
        for label, argv in argvs.items():
            parse, compute, emit = in_process(label, argv)
            result[label] = {"parse": round(parse, 3), "compute": round(compute, 3),
                             "emit": round(emit, 3)}
        for label, seconds, mib in each_process(argvs):
            result[label].update(process=seconds, peak_rss_mib=mib)
        for label, argv in texts.items():
            result[label]["text_emit"] = round(in_process(label, argv)[2], 3)
        for label, _, mib in each_process(texts):
            result[label]["text_peak_rss_mib"] = mib
        for label, spec in law_checks(paths).items():
            parse, compute = law_check(label, *spec)
            result[label] = {"parse": round(parse, 3), "compute": round(compute, 3)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
