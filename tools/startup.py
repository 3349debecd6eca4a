#!/usr/bin/env python3
"""Time one CLI process per command next to the interpreter's own start-up.

    python3 tools/startup.py [TREE]

TREE is the checkout whose `src/` and documents are timed (default: this
one).  Runs each command once per round as `python3 -m cumalg.cli`, on the
benchmark's input documents (`perfbench/inputs.py`, fixed seed, the
benchmark's caps), together with `python3 -c pass`, for nine rounds.  Each
process time is divided by the mean of the reference computation
(`perfbench/reference.py`) run just before and just after it.  A separate
run of each command through `tools/loaded.py` lists the `cumalg` modules it
loaded, and each of those files is compiled in this process, as a process
without a bytecode cache compiles it, for nine rounds, the reference
computation running once in each round.  Prints one JSON line: for each job,
the median process time in reference units (`median_ref`) and, for the
commands, the modules loaded, their summed line count (`lines`) and the sum
of their median `compile()` times over the median reference time
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

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parents[1]).resolve()
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT / "perfbench")]

import inputs  # noqa: E402
from reference import reference  # noqa: E402

SEED = 1
RUNS = 9
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


def compile_costs(modules) -> dict:
    """Each module's line count and median time of `compile()` of its source
    file in reference units, the files taken in turn in every round."""
    sources = {}
    for module in modules:
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        sources[module] = (path.read_text(encoding="utf-8"), str(path))
    samples = {module: [] for module in sources}
    refs = []
    for _ in range(RUNS):
        refs.append(reference())
        for module, (text, path) in sources.items():
            start = time.perf_counter()
            compile(text, path, "exec", dont_inherit=True)
            samples[module].append(time.perf_counter() - start)
    ref = statistics.median(refs)
    return {module: (len(sources[module][0].splitlines()), statistics.median(values) / ref)
            for module, values in samples.items()}


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = {FLOOR: [sys.executable, "-c", "pass"]}
        argvs = jobs(documents(work), work)
        for label, argv in argvs.items():
            commands[label] = [sys.executable, "-m", "cumalg.cli", *argv]
        samples = {label: [] for label in commands}
        for _ in range(RUNS):
            for label, command in commands.items():
                samples[label].append(in_ref(command, env))
        result = {label: {"median_ref": round(statistics.median(values), 3)}
                  for label, values in samples.items()}
        for label, argv in argvs.items():
            proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loaded.py"), *argv],
                                  capture_output=True, text=True, check=True)
            result[label]["modules"] = json.loads(proc.stdout)[1]
        costs = compile_costs(sorted({m for label in argvs for m in result[label]["modules"]}))
        for label in argvs:
            modules = result[label]["modules"]
            result[label]["lines"] = sum(costs[m][0] for m in modules)
            result[label]["compile_ref"] = round(sum(costs[m][1] for m in modules), 4)
    src_lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("cumalg/*.py"))
    print(json.dumps({"runs": RUNS, "src_lines": src_lines, "jobs": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
