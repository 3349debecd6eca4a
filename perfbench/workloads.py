"""The three workloads: which seeded documents they write and which jobs a
pass runs.  A pass is the workload's fixed job sequence; a run repeats it.

moments        one fresh `cumalg cumulants` process per pass, on 7 seeded
               rational moments.  Every wedge word the cumulant map starts
               from is a power of one even generator, so the time goes to
               set-partition sums, the eager tau table, triangular inversion
               and Fraction arithmetic.
graded-tables  fresh `lift`/`invert` processes at cap 3 on the exterior
               algebra on four odd generators (15 generators) and on a seeded
               change of its basis with rational structure constants, plus
               `defects --kind hom|der` at cap 3.  Odd factors never repeat;
               Koszul signs, wedge, sparse arithmetic and emitting large
               tables dominate.
session        one long-lived process runs a seeded stream of 121 small mixed
               jobs through `cumalg.cli.run` and the public law checkers, so
               per-job overhead and the process-global caches dominate.

Job sizes are chosen so that a run of a few tens of seconds sees many
passes: on a host whose speed drifts, a steady estimate needs many samples.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import inputs

WORKLOADS = ("moments", "graded-tables", "session")


@dataclass
class Job:
    """One job of a pass: CLI arguments (or a library call, in a session),
    what it must return, and which independent check its report gets."""

    name: str
    argv: list
    expect_exit: int = 0
    expect_ok: bool = True
    check: tuple = ()       # (check name, *document names)
    spec: dict = field(default_factory=dict)  # library jobs in a session


@dataclass
class Plan:
    workload: str
    docs: dict              # document name -> path
    manifest: list          # (role, path) pairs the set-up probe parses
    jobs: list              # one pass, in order
    warmup: int = 0         # session: jobs before the first memory reading
    payload: dict = field(default_factory=dict)  # document name -> document


class _Writer:
    def __init__(self, work: Path):
        self.dir = work / "docs"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.docs, self.payload = {}, {}

    def add(self, name, doc):
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        self.docs[name], self.payload[name] = str(path), doc
        return str(path)


def _moments(rng, out, smoke):
    order = 4 if smoke else inputs.MOMENTS_ORDER
    path = out.add("moments", inputs.moments(rng, order))
    job = Job("cumulants", ["cumulants", "--weight-cap", str(order),
                            "--input", f"moments={path}"], check=("cumulants", "moments"))
    return [("moments", path)], [job]


def _graded(rng, out, smoke):
    k, cap = (2, 2) if smoke else (4, inputs.GRADED_CAP)
    exterior = inputs.exterior_algebra(k)
    changed = inputs.change_basis(rng, exterior, "f")
    paths = {"exterior": out.add("exterior", exterior), "changed": out.add("changed", changed)}
    hom = out.add("hom_map", inputs.degree_zero_map(rng, exterior))
    der = out.add("der_map", inputs.degree_zero_map(rng, changed))
    manifest = [("algebra", paths["exterior"]), ("algebra", paths["changed"]),
                ("map", hom), ("map", der)]
    jobs = []
    for alg in ("exterior", "changed"):
        for cmd in ("lift", "invert"):
            jobs.append(Job(f"{cmd}:{alg}", [cmd, "--weight-cap", str(cap),
                                             "--input", f"algebra={paths[alg]}"],
                            check=(cmd, alg)))
    jobs.append(Job("defects-hom:exterior", ["defects", "--kind", "hom", "--weight-cap",
                                             str(cap), "--input", f"map={hom}"],
                    check=("defects-hom", "hom_map")))
    jobs.append(Job("defects-der:changed", ["defects", "--kind", "der", "--weight-cap",
                                            str(cap), "--input", f"map={der}"],
                    check=("defects-der", "der_map")))
    return manifest, jobs


# session job kinds and how many of each one pass runs after its warm-up
# prefix (one job of each kind on ext3).  Kinds that take an algebra cycle
# through the five pool algebras, so every seed runs the same multiset of
# (kind, algebra) jobs in a different order with different numbers.
SESSION_MIX = {
    "validate-algebra": 25, "validate-retract": 10, "lift": 5, "invert": 5,
    "defects-hom": 5, "defects-der": 5, "cumulants": 25, "transfer": 15,
    "check-comorphism": 5, "check-coderivation": 10,
}
WARMUP_ALGEBRA = "ext3"


def _session(rng, out, smoke):
    cap = inputs.SESSION_CAP
    pool = {
        "e2": inputs.e2_algebra(),
        "ext3": inputs.exterior_algebra(3),
        "p4": inputs.truncated_polynomial(4),
    }
    pool["ext3c"] = inputs.change_basis(rng, pool["ext3"], "f")
    pool["p4c"] = inputs.change_basis(rng, pool["p4"], "y")
    algebras = {name: out.add(f"alg_{name}", doc) for name, doc in pool.items()}
    maps = {name: out.add(f"map_{name}", inputs.degree_zero_map(rng, doc))
            for name, doc in pool.items()}
    transfer = out.add("k2", inputs.k2_transfer())
    broken = out.add("k2_broken", inputs.k2_transfer(broken=True))
    retract = out.add("k2_retract", inputs.k2_transfer()["retract"])
    manifest = ([("algebra", p) for p in algebras.values()]
                + [("map", p) for p in maps.values()]
                + [("transfer", transfer), ("transfer", broken), ("retract", retract)])

    counter = [0]

    def make(kind, alg):
        counter[0] += 1
        n = counter[0]
        if kind == "validate-algebra":
            return Job(kind, ["validate", "--input", f"algebra={algebras[alg]}"], check=("ok",))
        if kind == "validate-retract":
            return Job(kind, ["validate", "--input", f"retract={retract}"], check=("ok",))
        if kind in ("lift", "invert"):
            return Job(f"{kind}:{alg}", [kind, "--weight-cap", str(cap),
                                         "--input", f"algebra={algebras[alg]}"],
                       check=(kind, f"alg_{alg}"))
        if kind.startswith("defects"):
            k = kind.split("-")[1]
            return Job(f"{kind}:{alg}", ["defects", "--kind", k, "--weight-cap", str(cap),
                                         "--input", f"map={maps[alg]}"],
                       check=(kind, f"map_{alg}"))
        if kind == "cumulants":
            path = out.add(f"moments{n}", inputs.moments(rng, inputs.SESSION_CUMULANTS))
            return Job(kind, ["cumulants", "--input", f"moments={path}"],
                       check=("cumulants", f"moments{n}"))
        if kind == "transfer":
            return Job(kind, ["transfer", "--weight-cap", str(inputs.SESSION_TRANSFER_CAP),
                              "--input", f"transfer={transfer}"], check=("transfer",))
        # seeded random extensions are always coalgebra maps / coderivations;
        # p4 has only even generators, so its coderivations have degree 0
        degree = 0 if kind == "check-comorphism" or alg.startswith("p4") else 1
        fam = out.add(f"family{n}", inputs.random_family(rng, pool[alg], degree, 2))
        return Job(f"{kind}:{alg}", [], check=("ok",),
                   spec={"kind": kind.replace("-", "_"), "algebra": algebras[alg],
                         "family": fam, "cap": 3})

    warm = [make(kind, WARMUP_ALGEBRA) for kind in SESSION_MIX]
    names = sorted(pool)
    rest = []
    for kind, count in SESSION_MIX.items():
        cycle = rng.sample(names, len(names))
        rest += [(kind, cycle[k % len(cycle)]) for k in range(1 if smoke else count)]
    rng.shuffle(rest)
    jobs = warm + [make(kind, alg) for kind, alg in rest]
    # the deliberately broken transfer input lands at a seeded position
    jobs.insert(rng.randrange(len(warm), len(jobs) + 1),
                Job("transfer-broken", ["transfer", "--weight-cap",
                                        str(inputs.SESSION_TRANSFER_CAP),
                                        "--input", f"transfer={broken}"],
                    expect_exit=1, expect_ok=False, check=("transfer-broken",)))
    return manifest, jobs, len(warm)


def build(workload: str, seed: int, work: Path, smoke: bool = False) -> Plan:
    """Write the seed's documents under `work` and return one pass's jobs."""
    rng = random.Random(f"{workload}:{seed}")
    out = _Writer(work)
    warmup = 0
    if workload == "moments":
        manifest, jobs = _moments(rng, out, smoke)
    elif workload == "graded-tables":
        manifest, jobs = _graded(rng, out, smoke)
    elif workload == "session":
        manifest, jobs, warmup = _session(rng, out, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, out.docs, manifest, jobs, warmup, out.payload)
