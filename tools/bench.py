#!/usr/bin/env python3
"""Compare this tree with a parent tree on the benchmark, in alternating pairs.

    python3 tools/bench.py --parent TREE --pairs 10 --seconds 30 --output BENCH_<PR>.json

TREE is a copy of the parent revision's files (`git archive` of it, say).
For each workload of `BENCHMARK.json` the tool runs
`python3 perfbench/run.py --workload W --seed S --seconds N` in the parent
tree and in this one, one after the other, `--pairs` times.
Pair k runs seed `--seed` + k in both trees and starts with the parent when
k is even and with this tree when k is odd, so that a drift in the host's
speed weighs on both sides alike.  Runs go one at a time.  The tool first
removes `src/cumalg/__pycache__` from both trees, and every child process
runs with `PYTHONDONTWRITEBYTECODE=1` and without `PYTHONPYCACHEPREFIX`, as
a fresh checkout runs: every process compiles `src/` from its sources,
while the standard library loads its installed cache (`bytecode` in the
metadata says so).

Writes one JSON file, again after each workload: metadata (Python version,
`nproc`, this tree's git revision and whether `src/` differs from it
(`src_edited`), `src_lines` of both trees as `wc -l src/cumalg/*.py` counts
them, and the arguments); and per workload, for each end-to-end metric of
`BENCHMARK.json`, the parent's and this tree's medians, the parent's
quartiles, each pair's ratio (this tree over the parent) and the number of
pairs in which this tree did better (`wins`), worse (`losses`) or the same.
Each run's `correct` and `failed` are kept too.  Before the workloads it
runs this tree's `tools/startup.py` on each tree, once per tree untimed and
discarded and then twice per tree in the order parent, change, change,
parent; then each tree's own `tools/ceiling.py` twice in that order.  It
writes both trees' medians over their two runs with the ratio (this tree
over the parent) and the runs' values: per command, `median_ref` (the
process time in reference units) and `compile_ref` (the `compile()` time of
the modules it loads, in reference units) under `startup`; per job,
`compute`, `process` and `peak_rss_mib` under `ceiling` (a law-check row has
`compute` only).  The tool reads no file under `perfbench/`: it only runs
`perfbench/run.py`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `perfbench/run.py` run in `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# the order in which each tree runs the tools: two runs per tree, balanced
# around the middle, so that a steady drift of the host's speed weighs on both
# trees' medians alike
TOOL_ORDER = ("parent", "change", "change", "parent")


def tool_runs(parent: Path, command, order=TOOL_ORDER) -> dict:
    """The last stdout line, as JSON, of each run of `command(tree)` in each
    tree, the trees taking turns in `order`."""
    trees = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    for side in order:
        proc = subprocess.run(command(trees[side]), cwd=trees[side],
                              stdout=subprocess.PIPE, text=True, check=True)
        runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def per_job(runs: dict, keys: tuple) -> dict:
    """Per job of this tree and each of `keys` that both trees report for it,
    the parent's and this tree's median over their runs with the ratio (this
    tree over the parent), and each tree's values in the order it ran
    (`runs`); `runs` holds each tree's job dicts in that order."""
    out = {}
    for label in runs["change"][0]:
        row = {}
        for key in keys:
            values = {side: [r.get(label, {}).get(key) for r in rs] for side, rs in runs.items()}
            if None in values["parent"] + values["change"]:
                continue
            before, after = (statistics.median(values[side]) for side in ("parent", "change"))
            row[key] = {"parent": before, "change": after,
                        "ratio": round(after / before, 4) if before else None, "runs": values}
        out[label] = row
    return out


def startup(parent: Path) -> dict:
    """Per job of this tree's `tools/startup.py` on each tree: `median_ref`
    and `compile_ref`, after one discarded run per tree."""
    def command(tree):
        return [sys.executable, str(ROOT / "tools" / "startup.py"), str(tree)]

    tool_runs(parent, command, ("parent", "change"))
    runs = tool_runs(parent, command)
    return per_job({side: [r["jobs"] for r in rs] for side, rs in runs.items()},
                   ("median_ref", "compile_ref"))


def ceiling(parent: Path) -> dict:
    """Per job of `tools/ceiling.py`: `compute`, `process` and `peak_rss_mib`."""
    return per_job(tool_runs(parent, lambda tree: [sys.executable, "tools/ceiling.py"]),
                   ("compute", "process", "peak_rss_mib"))


def src_lines(tree: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in tree.glob("src/cumalg/*.py"))


def compare(metric: dict, parent: list, change: list) -> dict:
    """The summary of one metric over the pairs, `parent` and `change` holding
    each pair's values."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    return {
        "better": metric["better"],
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": [quartiles[0], quartiles[2]],
        "ratios": [round(c / p, 4) if p else None for p, c in zip(parent, change)],
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    for tree in (parent, ROOT):
        shutil.rmtree(tree / "src" / "cumalg" / "__pycache__", ignore_errors=True)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ.pop("PYTHONPYCACHEPREFIX", None)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True).stdout.strip() or None
        edited = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                                capture_output=True, text=True).stdout != ""
    except OSError:
        revision = edited = None
    result = {
        "meta": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "git_revision": revision, "src_edited": edited, "src_lines": src_lines(ROOT),
                 "parent_src_lines": src_lines(parent), "pairs": args.pairs,
                 "seconds": args.seconds, "first_seed": args.seed,
                 "bytecode": "PYTHONDONTWRITEBYTECODE=1, no PYTHONPYCACHEPREFIX, "
                             "src/cumalg/__pycache__ removed from both trees: every "
                             "process compiles src/, the standard library loads its "
                             "installed cache"},
        "workloads": {},
    }
    for name, tool in (("startup", startup), ("ceiling", ceiling)):
        result[name] = tool(parent)
        args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    for workload in names:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = [("parent", parent), ("change", ROOT)]
            for side, tree in order if k % 2 == 0 else order[::-1]:
                runs[side].append(run_once(tree, workload, args.seed + k, args.seconds))
                print(f"{workload} pair {k} {side}", file=sys.stderr, flush=True)
        values = {side: [{name: m["value"] for name, m in r["metrics"].items()} for r in rs]
                  for side, rs in runs.items()}
        result["workloads"][workload] = {
            "seeds": [args.seed + k for k in range(args.pairs)],
            "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
            "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
            "metrics": {
                m["name"]: compare(m, [v[m["name"]] for v in values["parent"]],
                                   [v[m["name"]] for v in values["change"]])
                for m in metrics
            },
        }
        args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
