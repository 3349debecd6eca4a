"""Independent checks of job reports, run outside the timed region.

Each check recomputes what a report claims by a route other than the one
the job timed: the benchmark's own moment-cumulant recursion, the coproduct
series and the Moebius-family extension for tau-tilde tables, and the
closed forms g2/h2 for arity-2 defects.  A check returns None when the
report is right and a one-line reason otherwise.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import inputs

LIFT_SAMPLES_PER_WEIGHT = 3


def cumulants(moments):
    """kappa_n = m_n - sum_{k<n} C(n-1, k-1) kappa_k m_{n-k}."""
    m = [Fraction(x) for x in moments]
    kappa = []
    for n in range(1, len(m) + 1):
        kappa.append(m[n - 1] - sum(math.comb(n - 1, k - 1) * kappa[k - 1] * m[n - k - 1]
                                    for k in range(1, n)))
    return kappa


def _check_cumulants(job, report, payload, seed):
    want = [str(k) for k in cumulants(payload[job.check[1]]["moments"])]
    if report.get("cumulants") != want:
        return f"cumulants {report.get('cumulants')} != recursion {want}"
    if report.get("agree") is not True:
        return "report says the oracle disagrees"
    return None


def _check_table(job, report, payload, seed):
    """Row list equals the canonical monomials; sampled rows equal the
    series (lift) or the Moebius-family extension (invert)."""
    import cumalg as cm

    doc = payload[job.check[1]]
    cap = int(job.argv[job.argv.index("--weight-cap") + 1])
    gens = [g["name"] for g in doc["generators"]]
    want = [[gens[i] for i in combo] for w in range(1, cap + 1)
            for combo in inputs.canonical_monomials(doc, w)]
    rows = report.get("table", [])
    if [r["monomial"] for r in rows] != want:
        return f"table rows do not list the {len(want)} canonical monomials in order"
    algebra = cm.parse_algebra(doc)
    if job.check[0] == "lift":
        route = cm.tau_tilde_series(algebra, cap)
    else:
        route = cm.extend_coalgebra_map(cm.mobius_inverse_family(algebra, cap), cap)
    rng = random.Random(f"{seed}:{job.name}")
    by_weight = {}
    for row in rows:
        by_weight.setdefault(len(row["monomial"]), []).append(row)
    for group in by_weight.values():
        for row in rng.sample(group, min(LIFT_SAMPLES_PER_WEIGHT, len(group))):
            w = cm.monomial(algebra, [algebra.index(n) for n in row["monomial"]])
            if route.on_monomial(w).to_doc() != row["value"]:
                return f"row {row['monomial']} differs from the independent route"
    return None


def _check_defects(job, report, payload, seed):
    """Every arity-2 row equals g2 (hom) or h2 (der) in closed form."""
    import cumalg as cm

    doc = payload[job.check[1]]
    algebra = cm.parse_algebra(doc["source"])
    f = cm.parse_linear_map(doc, algebra, algebra)
    closed = cm.g2_closed_form if job.check[0] == "defects-hom" else cm.h2_closed_form
    rows = {tuple(r["monomial"]): r["value"]
            for r in report.get("tables", {}).get("arities", {}).get("2", [])}
    seen = 0
    for i, j in inputs.canonical_monomials(doc["source"], 2):
        key = (algebra.names[i], algebra.names[j])
        want = closed(f, algebra, algebra.generator(i), algebra.generator(j)).to_doc()
        if rows.get(key, []) != want:
            return f"arity-2 row {list(key)} differs from its closed form"
        seen += key in rows
    if seen != len(rows):
        return "arity-2 table has rows off the canonical monomials"
    return None


def _check_transfer(job, report, payload, seed):
    inner = report.get("report", {})
    if not inner.get("ok") or not all(c["ok"] for c in inner.get("certifications", [])):
        return "transfer pipeline did not certify"
    return None


def _check_transfer_broken(job, report, payload, seed):
    failing = [c for c in report.get("report", {}).get("checks", []) if not c["ok"]]
    if not failing or failing[0].get("witness", {}).get("monomial") != ["c", "c"]:
        return "broken transfer input was not refused with the c^c witness"
    return None


CHECKS = {
    "cumulants": _check_cumulants,
    "lift": _check_table,
    "invert": _check_table,
    "defects-hom": _check_defects,
    "defects-der": _check_defects,
    "transfer": _check_transfer,
    "transfer-broken": _check_transfer_broken,
    "ok": lambda *args: None,
}


def outcome(job, exit_code, stderr):
    """Why the job's exit is wrong (a traceback or an unexpected code), or None."""
    if "Traceback" in (stderr or ""):
        return "traceback"
    if exit_code != job.expect_exit:
        return f"exit code {exit_code}, expected {job.expect_exit}"
    return None


def content(job, report, payload, seed):
    """Why the job's report is wrong, or None.  `report` is the parsed report,
    or None when the job wrote none."""
    if report is None:
        return "no report"
    if report.get("ok") is not job.expect_ok:
        return f"ok is {report.get('ok')}, expected {job.expect_ok}"
    return CHECKS[job.check[0]](job, report, payload, seed)
