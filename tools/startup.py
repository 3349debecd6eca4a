#!/usr/bin/env python3
"""Time one CLI process per command next to the interpreter's own start-up,
in one or more trees side by side.

    python3 tools/startup.py [TREE ...]

Each TREE is a checkout whose `src/` is timed (default: this one); the
documents are this tree's benchmark inputs (`perfbench/inputs.py`, fixed
seed, the benchmark's caps).  In each of RUNS rounds, every command runs
once in every tree as `python3 -m cumalg.cli`, together with `python3 -c
pass`, and every tree's loaded modules are compiled in this process, as a
process without a bytecode cache compiles them; the trees take turns on
which goes first, round by round, so that a drift in the host's speed
weighs on all of them alike.  Each process time is divided by the mean of
the reference computation (`perfbench/reference.py`) run just before and
just after it; the compile times are divided by the median of the
reference computation run once at the start of each round.  A separate run
of each command through each tree's `tools/loaded.py` lists the `cumalg`
modules it loaded.  Prints one JSON line with, per tree in the order given:
for each job, the median process time in reference units (`median_ref`)
and, for the commands, the modules loaded, their summed line count
(`lines`) and the sum of their median `compile()` times in reference units
(`compile_ref`); and `src_lines`, the line count of all of
`src/cumalg/*.py`, as `wc -l` gives it.
"""
from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench")]

import inputs  # noqa: E402
from reference import reference  # noqa: E402

SEED = 1
RUNS = 18
FLOOR = "python3 -c pass"


def documents(work: Path) -> dict:
    rng = random.Random(f"startup:{SEED}")
    exterior = inputs.exterior_algebra(4)
    changed = inputs.change_basis(rng, exterior, "f")
    k2 = inputs.k2_transfer()
    docs = {
        "moments": inputs.moments(rng, inputs.MOMENTS_ORDER),
        "changed": changed,
        "hom_map": inputs.degree_zero_map(rng, exterior),
        "der_map": inputs.degree_zero_map(rng, changed),
        "k2": k2,
        "retract": k2["retract"],
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return paths


def jobs(paths: dict, work: Path) -> dict:
    cap = ["--weight-cap", str(inputs.GRADED_CAP)]
    out = {
        "validate algebra": ["validate", "--input", f"algebra={paths['changed']}"],
        "validate retract": ["validate", "--input", f"retract={paths['retract']}"],
        "lift": ["lift", *cap, "--input", f"algebra={paths['changed']}"],
        "invert": ["invert", *cap, "--input", f"algebra={paths['changed']}"],
        "defects hom": ["defects", "--kind", "hom", *cap, "--input", f"map={paths['hom_map']}"],
        "defects der": ["defects", "--kind", "der", *cap, "--input", f"map={paths['der_map']}"],
        "transfer": ["transfer", "--weight-cap", str(inputs.SESSION_TRANSFER_CAP),
                     "--input", f"transfer={paths['k2']}"],
        "cumulants": ["cumulants", "--weight-cap", str(inputs.MOMENTS_ORDER),
                      "--input", f"moments={paths['moments']}"],
    }
    report = ["--output", str(work / "report.json")]
    return {label: argv + report for label, argv in out.items()}


def in_ref(command: list, env: dict) -> float:
    """One process's wall time over the mean reference time around it."""
    before = reference()
    start = time.perf_counter()
    subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True)
    spent = time.perf_counter() - start
    return spent / ((before + reference()) / 2)


def compile_samples(sources: dict) -> dict:
    """Seconds of one `compile()` of each module's source file, in turn."""
    out = {}
    for module, (text, path) in sources.items():
        start = time.perf_counter()
        compile(text, path, "exec", dont_inherit=True)
        out[module] = time.perf_counter() - start
    return out


def main() -> int:
    trees = [Path(arg).resolve() for arg in sys.argv[1:]] or [ROOT]
    envs = [{**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))} for tree in trees]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argvs = jobs(documents(work), work)
        commands = {FLOOR: [sys.executable, "-c", "pass"]}
        for label, argv in argvs.items():
            commands[label] = [sys.executable, "-m", "cumalg.cli", *argv]
        results = []
        for tree in trees:
            result = {label: {} for label in commands}
            for label, argv in argvs.items():
                proc = subprocess.run(
                    [sys.executable, str(tree / "tools" / "loaded.py"), *argv],
                    capture_output=True, text=True, check=True)
                result[label]["modules"] = json.loads(proc.stdout)[1]
            results.append(result)
        sources = []
        for tree, result in zip(trees, results):
            modules = sorted({m for label in argvs for m in result[label]["modules"]})
            paths = {m: tree.joinpath("src", *m.split(".")).with_suffix(".py") for m in modules}
            sources.append({m: (path.read_text(encoding="utf-8"), str(path))
                            for m, path in paths.items()})
        times = [{label: [] for label in commands} for _ in trees]
        compiles = [{m: [] for m in source} for source in sources]
        refs = []
        for k in range(RUNS):
            turn = [(k + t) % len(trees) for t in range(len(trees))]
            refs.append(reference())
            for t in turn:
                for module, seconds in compile_samples(sources[t]).items():
                    compiles[t][module].append(seconds)
            for label, command in commands.items():
                for t in turn:
                    times[t][label].append(in_ref(command, envs[t]))
        ref = statistics.median(refs)
        out = []
        for tree, result, samples, source, spent in zip(trees, results, times, sources, compiles):
            for label, values in samples.items():
                result[label]["median_ref"] = round(statistics.median(values), 3)
            for label in argvs:
                modules = result[label]["modules"]
                result[label]["lines"] = sum(len(source[m][0].splitlines()) for m in modules)
                result[label]["compile_ref"] = round(
                    sum(statistics.median(spent[m]) for m in modules) / ref, 4)
            src_lines = sum(path.read_bytes().count(b"\n")
                            for path in tree.glob("src/cumalg/*.py"))
            out.append({"tree": str(tree), "src_lines": src_lines, "jobs": result})
    print(json.dumps({"runs": RUNS, "trees": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
