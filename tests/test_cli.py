"""End-to-end command-line runs: exit codes, reports, determinism."""
import copy
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cumalg as cm
import cumalg.cli as cli
import cumalg.tables as tables
from cumalg.oracles import g2_closed_form

from conftest import E2_DOC, E2_MAP_DOC, SQUARE_ZERO_EX_DOC, k2_doc, odd_retract_doc


def p_doc(n):
    """Truncated polynomial algebra x1..xn as a document: xa*xb = x(a+b)."""
    gens = [{"name": f"x{k}", "degree": 0} for k in range(1, n + 1)]
    prods = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if a + b <= n:
                prods.append({"left": f"x{a}", "right": f"x{b}",
                              "value": [{"gen": f"x{a + b}", "coeff": "1"}]})
    return {"generators": gens, "products": prods}


def doubling_map_doc():
    alg = p_doc(4)
    return {
        "source": alg,
        "target": alg,
        "degree": 0,
        "entries": [
            {"gen": f"x{k}", "value": [{"gen": f"x{k}", "coeff": str(2 ** k)}]}
            for k in range(1, 5)
        ],
    }


def euler_map_doc():
    alg = p_doc(4)
    return {
        "source": alg,
        "target": alg,
        "degree": 0,
        "entries": [
            {"gen": f"x{k}", "value": [{"gen": f"x{k}", "coeff": str(k)}]}
            for k in range(1, 5)
        ],
    }


def xyt_doc():
    """Λ(x, y) ⊗ k[t]/t² on the basis of its nonunit monomials: x and y odd of
    degree 1, t even of degree 0.  A product adds exponents, vanishes past
    x, y or t squared, and changes sign when y passes x."""
    monomials = {"x": (1, 0, 0), "y": (0, 1, 0), "t": (0, 0, 1), "xy": (1, 1, 0),
                 "xt": (1, 0, 1), "yt": (0, 1, 1), "xyt": (1, 1, 1)}
    names = {e: name for name, e in monomials.items()}
    prods = []
    for (left, u), (right, v) in itertools.product(monomials.items(), repeat=2):
        w = tuple(a + b for a, b in zip(u, v))
        if w in names:
            prods.append({"left": left, "right": right,
                          "value": [{"gen": names[w], "coeff": "-1" if u[1] * v[0] else "1"}]})
    gens = [{"name": name, "degree": e[0] + e[1]} for name, e in monomials.items()]
    return {"generators": gens, "products": prods}


# x -> -t, xyt -> 2x, of degree -1: its arity-3 comparison at cap 3 has
# nonzero computed values, words where the seven-term variant differs, and
# words outside the degree window, whose computed value is 0 while the
# variant's garbled y·x·d(x) term is not
XYT_MAP_DOC = {
    "source": xyt_doc(),
    "degree": -1,
    "entries": [
        {"gen": "x", "value": [{"gen": "t", "coeff": "-1"}]},
        {"gen": "xyt", "value": [{"gen": "x", "coeff": "2"}]},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_validate_algebra(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    code, report = run_json(capsys, ["validate", "--input", f"algebra={path}"])
    assert code == 0
    assert report["ok"] is True
    assert report["results"]["algebra"]["generators"] == 3


def test_validate_corrupted_algebra(tmp_path, capsys):
    doc = dict(E2_DOC)
    doc["products"] = E2_DOC["products"] + [
        {"left": "b", "right": "a", "value": [{"gen": "g", "coeff": "1"}]}
    ]
    path = write(tmp_path, "bad.json", doc)
    code, report = run_json(capsys, ["validate", "--input", f"algebra={path}"])
    assert code == 1
    assert report["ok"] is False
    assert report["error"]["witness"]["pair"] == ["a", "b"]


def test_validate_retract(tmp_path, capsys):
    path = write(tmp_path, "retract.json", k2_doc()["retract"])
    code, report = run_json(capsys, ["validate", "--input", f"retract={path}"])
    assert code == 0
    assert report["results"]["retract"]["ok"] is True


def test_validate_needs_some_input(capsys):
    assert cli.run(["validate"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_validate_refuses_roles_it_does_not_read(tmp_path, capsys):
    """validate opens only algebra and retract documents; a malformed map
    next to a good algebra is a usage error naming the role, not a pass."""
    algebra = write(tmp_path, "e2.json", E2_DOC)
    bad_map = write(tmp_path, "bad.json", {"source": "not an algebra", "entries": 3})
    argv = ["validate", "--input", f"algebra={algebra}", "--input", f"map={bad_map}"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and "map" in captured.err
    moments = write(tmp_path, "m.json", {"moments": ["1/2"]})
    assert cli.run(["validate", "--input", f"moments={moments}"]) == 2
    assert "moments" in capsys.readouterr().err


# each command's arguments, with a role it opens and a role it does not
COMMAND_ROLES = {
    "validate": (["validate"], "algebra", E2_DOC, "transfer"),
    "lift": (["lift"], "algebra", E2_DOC, "map"),
    "invert": (["invert"], "algebra", E2_DOC, "retract"),
    "defects": (["defects", "--kind", "hom"], "map", E2_MAP_DOC, "algebra"),
    "transfer": (["transfer"], "transfer", k2_doc(), "moments"),
    "cumulants": (["cumulants"], "moments", {"moments": ["1/2"]}, "map"),
}


@pytest.mark.parametrize("command", sorted(COMMAND_ROLES))
def test_every_command_refuses_roles_it_does_not_read(tmp_path, capsys, command):
    """A malformed document under a role the command never opens is a usage
    error naming that role, not a pass; so is giving no input at all."""
    argv, role, doc, unread = COMMAND_ROLES[command]
    good = write(tmp_path, "good.json", doc)
    bad = write(tmp_path, "bad.json", {"source": "not an algebra", "entries": 3})
    assert cli.run(argv + ["--input", f"{role}={good}"]) == 0
    capsys.readouterr()
    assert cli.run(argv + ["--input", f"{role}={good}", "--input", f"{unread}={bad}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err and unread in captured.err
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage error" in captured.err


def test_lift_tabulates_the_bijection(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    code, report = run_json(
        capsys, ["lift", "--weight-cap", "3", "--input", f"algebra={path}"]
    )
    assert code == 0
    rows = {tuple(r["monomial"]): r["value"] for r in report["table"]}
    assert rows[("a",)] == [{"monomial": ["a"], "coeff": "1"}]
    assert rows[("a", "b")] == [
        {"monomial": ["g"], "coeff": "1"},
        {"monomial": ["a", "b"], "coeff": "1"},
    ]


def test_invert_tabulates_the_inverse(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    code, report = run_json(
        capsys, ["invert", "--weight-cap", "3", "--input", f"algebra={path}"]
    )
    assert code == 0
    rows = {tuple(r["monomial"]): r["value"] for r in report["table"]}
    assert rows[("a", "b")] == [
        {"monomial": ["g"], "coeff": "-1"},
        {"monomial": ["a", "b"], "coeff": "1"},
    ]


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    alg = write(tmp_path, "e2.json", E2_DOC)
    transfer = write(tmp_path, "k2.json", k2_doc())
    for argv_tail, name in [
        (["lift", "--weight-cap", "4", "--input", f"algebra={alg}"], "lift"),
        (["transfer", "--weight-cap", "3", "--input", f"transfer={transfer}"],
         "transfer"),
    ]:
        first = tmp_path / f"{name}1.json"
        second = tmp_path / f"{name}2.json"
        assert cli.run(argv_tail + ["--output", str(first)]) == 0
        assert cli.run(argv_tail + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_defects_hom_on_a_homomorphism(tmp_path, capsys):
    path = write(tmp_path, "map.json", doubling_map_doc())
    code, report = run_json(
        capsys, ["defects", "--kind", "hom", "--weight-cap", "4",
                 "--input", f"map={path}"]
    )
    assert code == 0
    assert report["vanishes_above_1"] is True
    assert report["kind"] == "hom"


def test_defects_der_emits_the_variant_comparison(tmp_path, capsys):
    path = write(tmp_path, "map.json", euler_map_doc())
    code, report = run_json(
        capsys, ["defects", "--kind", "der", "--weight-cap", "4",
                 "--input", f"map={path}"]
    )
    assert code == 0
    assert report["vanishes_above_1"] is True
    comparison = report["arity3_comparison"]
    assert comparison["variant_matches_everywhere"] is False
    mismatch = [r for r in comparison["rows"] if not r["match"]]
    assert mismatch
    assert all(r["computed"] == [] for r in comparison["rows"])


# a map into an algebra of its own: x, y even with x·x = y, onto u (u·u = u)
# and v of degree 1 (u·v = v), with f(x) = 2u and f(y) = u/3
OWN_TARGET_MAP_DOC = {
    "source": {"generators": [{"name": "x", "degree": 0}, {"name": "y", "degree": 0}],
               "products": [{"left": "x", "right": "x", "value": [{"gen": "y", "coeff": "1"}]}]},
    "target": {"generators": [{"name": "u", "degree": 0}, {"name": "v", "degree": 1}],
               "products": [{"left": "u", "right": "u", "value": [{"gen": "u", "coeff": "1"}]},
                            {"left": "u", "right": "v", "value": [{"gen": "v", "coeff": "1"}]}]},
    "degree": 0,
    "entries": [{"gen": "x", "value": [{"gen": "u", "coeff": "2"}]},
                {"gen": "y", "value": [{"gen": "u", "coeff": "1/3"}]}],
}


def test_defects_hom_reads_a_target_algebra_of_its_own(tmp_path, capsys):
    """The arity-2 rows are f(ab) - f(a)f(b), multiplied in the target."""
    path = write(tmp_path, "map.json", OWN_TARGET_MAP_DOC)
    code, report = run_json(capsys, ["defects", "--kind", "hom", "--weight-cap", "2",
                                     "--input", f"map={path}"])
    assert code == 0
    rows = report["tables"]["arities"]["2"]
    assert [(row["monomial"], row["value"]) for row in rows] == [
        (["x", "x"], [{"coeff": "-11/3", "gen": "u"}]),
        (["x", "y"], [{"coeff": "-2/3", "gen": "u"}]),
        (["y", "y"], [{"coeff": "-1/9", "gen": "u"}]),
    ]
    f = cli._read_map(json.dumps(OWN_TARGET_MAP_DOC))
    assert f.target is not f.source
    gens = f.source.generators()
    for row in rows:
        x, y = (gens[f.source.index(name)] for name in row["monomial"])
        assert row["value"] == g2_closed_form(f, f.source, x, y).to_doc()


def test_a_coderivation_refuses_a_target_of_its_own(tmp_path, capsys):
    path = write(tmp_path, "map.json", OWN_TARGET_MAP_DOC)
    code, report = run_json(capsys, ["defects", "--kind", "der", "--input", f"map={path}"])
    assert code == 1 and report["ok"] is False
    assert report["error"] == {"message": "a coderivation needs source and target to agree"}


def test_defects_requires_the_map_role(tmp_path, capsys):
    assert cli.run(["defects", "--kind", "hom"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_transfer_pipeline(tmp_path, capsys):
    path = write(tmp_path, "k2.json", k2_doc())
    code, report = run_json(
        capsys, ["transfer", "--weight-cap", "3", "--input", f"transfer={path}"]
    )
    assert code == 0
    inner = report["report"]
    assert inner["ok"] is True
    assert all(c["ok"] for c in inner["certifications"])


def test_transfer_refuses_an_ablated_iota(tmp_path, capsys):
    doc = k2_doc()
    del doc["iota"]["arities"]["2"]
    path = write(tmp_path, "k2.json", doc)
    code, report = run_json(
        capsys, ["transfer", "--weight-cap", "3", "--input", f"transfer={path}"]
    )
    assert code == 1
    assert report["ok"] is False
    assert "hypotheses" in report["error"]
    checks = report["report"]["checks"]
    failing = [c for c in checks if not c["ok"]]
    assert failing
    assert failing[0]["witness"]["monomial"] == ["c", "c"]


@pytest.mark.parametrize("cap", [3, 5])
def test_transfer_on_a_retract_with_an_odd_generator_and_a_differential(tmp_path, capsys, cap):
    path = write(tmp_path, "odd.json", odd_retract_doc())
    code, report = run_json(
        capsys, ["transfer", "--weight-cap", str(cap), "--input", f"transfer={path}"]
    )
    assert code == 0 and report["ok"] is True
    inner = report["report"]
    hypotheses = inner["hypotheses"]["checks"]
    assert len(hypotheses) == 5 and all(c["ok"] for c in hypotheses)
    assert len(inner["certifications"]) == 4
    assert all(c["ok"] for c in inner["certifications"])


def test_validate_a_retract_with_an_odd_generator_and_a_differential(tmp_path, capsys):
    path = write(tmp_path, "retract.json", odd_retract_doc()["retract"])
    code, report = run_json(capsys, ["validate", "--input", f"retract={path}"])
    assert code == 0 and report["ok"] is True
    assert report["results"]["retract"]["ok"] is True


def test_transfer_refuses_a_negated_d_infinity(tmp_path, capsys):
    doc = odd_retract_doc()
    doc["d_infinity"]["arities"]["1"][0]["value"][0]["coeff"] = "-1"
    path = write(tmp_path, "odd.json", doc)
    code, report = run_json(
        capsys, ["transfer", "--weight-cap", "3", "--input", f"transfer={path}"]
    )
    assert code == 1 and report["ok"] is False
    failing = [c for c in report["report"]["checks"] if not c["ok"]]
    assert [c["law"] for c in failing] == ["iota extension intertwines the differentials"]
    assert failing[0]["witness"]["monomial"] == ["e"]


def test_transfer_refuses_a_complex_differential_that_does_not_square_to_zero(
        tmp_path, capsys):
    doc = odd_retract_doc()
    doc["retract"]["complex"] = {
        "generators": [{"name": "r", "degree": 2}, *SQUARE_ZERO_EX_DOC["generators"]],
        "differential": {"degree": -1, "entries": [
            {"gen": "r", "value": [{"gen": "e", "coeff": "1"}]},
            {"gen": "e", "value": [{"gen": "x", "coeff": "1"}]},
        ]},
    }
    path = write(tmp_path, "odd.json", doc)
    code, report = run_json(
        capsys, ["transfer", "--weight-cap", "3", "--input", f"transfer={path}"]
    )
    assert code == 1
    assert report["error"]["witness"] == {"kind": "square_zero", "generators": ["r"]}


def test_cumulants_agree_with_the_oracle(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": ["1/2", "1/2", "1/2", "1/2"]})
    code, report = run_json(capsys, ["cumulants", "--input", f"moments={path}"])
    assert code == 0
    assert report["agree"] is True
    assert report["cumulants"] == ["1/2", "1/4", "0", "-1/8"]
    assert report["cumulants"] == report["oracle"]


def test_cumulants_refuse_more_moments_than_the_cap(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": ["1"] * 5})
    code, report = run_json(
        capsys, ["cumulants", "--weight-cap", "4", "--input", f"moments={path}"]
    )
    assert code == 1
    assert "exceed" in report["error"]["message"]


def test_weight_cap_bounds(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    assert cli.run(["lift", "--weight-cap", "0",
                    "--input", f"algebra={path}"]) == 2
    assert cli.run(["lift", "--weight-cap", "11",
                    "--input", f"algebra={path}"]) == 2
    err = capsys.readouterr().err
    assert "at least 1" in err
    assert "refused" in err


def test_large_caps_warn_on_stderr(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"moments": ["1", "2"]})
    code = cli.run(["cumulants", "--weight-cap", "8",
                    "--input", f"moments={path}"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err


def test_malformed_roles_are_usage_errors(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    assert cli.run(["lift", "--input", f"wrench={path}"]) == 2
    assert cli.run(["lift", "--input", f"algebra={path}",
                    "--input", f"algebra={path}"]) == 2
    assert cli.run(["lift", "--input", "algebra=/nope/missing.json"]) == 2
    capsys.readouterr()


def test_invalid_json_is_a_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, report = run_json(capsys, ["lift", "--input", f"algebra={path}"])
    assert code == 1
    assert report["error"]["message"].startswith("invalid JSON")


def test_unknown_command_is_a_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2
    capsys.readouterr()


def test_consecutive_runs_share_one_parser_and_match_fresh_processes(tmp_path, capfd):
    """Runs in one process, after a usage error and across roles, write the
    same bytes as the same runs in fresh processes."""
    algebra = write(tmp_path, "e2.json", E2_DOC)
    moments = write(tmp_path, "m.json", {"moments": ["1/2", "1/3", "1/4"]})
    the_map = write(tmp_path, "map.json", E2_MAP_DOC)
    runs = [
        ["lift", "--weight-cap", "0", "--input", f"algebra={algebra}"],
        ["lift", "--weight-cap", "3", "--input", f"algebra={algebra}"],
        ["cumulants", "--input", f"moments={moments}"],
        ["defects", "--kind", "hom", "--weight-cap", "3", "--input", f"map={the_map}"],
        # no --input: a role left over from an earlier run would be found
        ["lift", "--weight-cap", "3"],
        ["validate", "--input", f"algebra={algebra}"],
    ]
    for argv in runs:
        code = cli.run(argv)
        got = capfd.readouterr()
        fresh = _fresh_process(argv)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli.build_parser() is cli.build_parser()


@pytest.fixture
def kept():
    """`cli._parsed`, the parsed documents a process keeps across jobs,
    emptied before and after the test."""
    cli._parsed.cache_clear()
    yield cli._parsed
    cli._parsed.cache_clear()


def _counting(monkeypatch, name):
    """Count the calls of the reader `cli.<name>`, which `_parsed` calls."""
    calls = []
    reader = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda data: calls.append(data) or reader(data))
    return calls


def test_invert_after_lift_reads_the_kept_presentation_and_its_tau_tilde(
        tmp_path, capfd, monkeypatch, kept):
    """`invert` after `lift` on one file parses nothing: it gets the same
    presentation, whose context already holds the tau-tilde `lift` built, and
    both write what fresh processes write."""
    path = write(tmp_path, "p4.json", p_doc(4))
    parses = _counting(monkeypatch, "parse_algebra")
    lift = ["lift", "--weight-cap", "4", "--input", f"algebra={path}"]
    assert cli.run(lift) == 0
    lifted = capfd.readouterr().out
    algebra = kept("algebra", (tmp_path / "p4.json").read_bytes())
    context = cm.cumulant_context(algebra, 4)
    tau_tilde = context._tau_tilde
    assert tau_tilde is not None and context._inverse is None
    assert cli.run(["invert", *lift[1:]]) == 0
    inverted = capfd.readouterr().out
    assert len(parses) == 1
    assert cm.cumulant_context(algebra, 4) is context and context.tau_tilde is tau_tilde
    assert context._inverse is not None
    for argv, out in ((lift, lifted), (["invert", *lift[1:]], inverted)):
        assert _fresh_process(argv).stdout == out


def test_a_rewritten_file_is_parsed_again(tmp_path, capfd, monkeypatch, kept):
    """Documents are kept by their bytes, and a file is read on every job: a
    file rewritten between two jobs gives the new document's report."""
    parses = _counting(monkeypatch, "_read_map")
    path = tmp_path / "map.json"
    argv = ["defects", "--kind", "hom", "--weight-cap", "4", "--input", f"map={path}"]
    reports = []
    for doc in (doubling_map_doc(), euler_map_doc(), doubling_map_doc()):
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(argv) == 0
        reports.append(capfd.readouterr().out)
        assert reports[-1] == _fresh_process(argv).stdout
    assert reports[0] != reports[1] and reports[0] == reports[2]
    assert len(parses) == 2  # the doubling map's bytes were kept


def test_a_document_that_fails_to_parse_is_not_kept(tmp_path, capsys, kept):
    path = write(tmp_path, "bad.json", _corrupted_e2_doc())
    outs = []
    for _ in range(2):
        assert cli.run(["validate", "--input", f"algebra={path}"]) == 1
        outs.append(capsys.readouterr().out)
        assert kept.cache_info().currsize == 0
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["error"]["witness"]["pair"] == ["a", "b"]


def test_a_process_keeps_at_most_the_bound_of_documents(tmp_path, capsys, monkeypatch, kept):
    """One more document than the bound leaves the bound kept: the first
    read is parsed again, and the last read is not."""
    parses = _counting(monkeypatch, "parse_algebra")
    paths = [write(tmp_path, f"a{k}.json", {"generators": [{"name": f"x{k}", "degree": 0}]})
             for k in range(cli.KEPT_DOCUMENTS + 1)]
    for path in paths:
        assert cli.run(["validate", "--input", f"algebra={path}"]) == 0
    assert kept.cache_info().currsize == cli.KEPT_DOCUMENTS
    assert len(parses) == len(paths)
    for path in (paths[-1], paths[0]):
        assert cli.run(["validate", "--input", f"algebra={path}"]) == 0
    assert parses[len(paths):] == [(tmp_path / "a0.json").read_bytes()]
    assert kept.cache_info().currsize == cli.KEPT_DOCUMENTS
    capsys.readouterr()


def test_repeated_cli_jobs_keep_live_memory_flat(tmp_path, kept):
    """The kept documents hold their tau-tilde memos, and nothing more
    builds up: once a round of jobs has filled them, ten more rounds of the
    same jobs on the same files hold no more live memory."""
    algebra = write(tmp_path, "e2.json", E2_DOC)
    the_map = write(tmp_path, "map.json", E2_MAP_DOC)
    transfer = write(tmp_path, "k2.json", k2_doc())
    retract = write(tmp_path, "retract.json", k2_doc()["retract"])
    out = ["--weight-cap", "3", "--output", str(tmp_path / "report.json")]
    jobs = [
        ["lift", "--input", f"algebra={algebra}"],
        ["invert", "--input", f"algebra={algebra}"],
        ["defects", "--kind", "hom", "--input", f"map={the_map}"],
        ["defects", "--kind", "der", "--input", f"map={the_map}"],
        ["transfer", "--input", f"transfer={transfer}"],
        ["validate", "--input", f"retract={retract}", "--format", "text"],
    ]

    def live_after(rounds):
        for _ in range(rounds):
            for argv in jobs:
                assert cli.run(argv + out) == 0
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = live_after(1)  # fills the kept documents and the split tables
        later = live_after(10)
    finally:
        tracemalloc.stop()
    assert kept.cache_info().currsize == 4
    assert later - first < 16 * 1024, (first, later)


def _fresh_process(argv, unbuffered=None, **streams):
    """`argv` run by `python -m cumalg.cli` in a fresh process, its standard
    streams read from pipes unless `streams` says otherwise.  `unbuffered`
    sets or clears PYTHONUNBUFFERED; None keeps this process's setting."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "cumalg.cli", *argv],
                          text=True, env=env, **streams)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_process_ends_only_once_its_output_is_written(tmp_path, capfd, unbuffered):
    """`main` ends the process without interpreter teardown, after the
    report is flushed: a report larger than a pipe buffer, the large-cap
    warning, `--help` and every exit code arrive as the same run writes them
    in-process, and an `--output` file is complete once the process exits."""
    algebra = write(tmp_path, "p5.json", p_doc(5))
    moments = write(tmp_path, "m.json", {"moments": ["1/2", "1/3", "1/4"]})
    lift = ["lift", "--weight-cap", "5", "--input", f"algebra={algebra}"]
    runs = {
        "lift": (lift, 0),
        "warning": (["cumulants", "--weight-cap", "8", "--input", f"moments={moments}"], 0),
        "failed": (["cumulants", "--weight-cap", "2", "--input", f"moments={moments}"], 1),
        "usage": (["lift", "--weight-cap", "11", "--input", f"algebra={algebra}"], 2),
        "help": (["--help"], 0),
    }
    seen = {}
    for name, (argv, expected) in runs.items():
        code = cli.run(argv)
        got = capfd.readouterr()
        fresh = _fresh_process(argv, unbuffered)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), name
        assert code == expected, name
        seen[name] = got
    assert len(seen["lift"].out.encode()) > 64 * 1024
    assert json.loads(seen["lift"].out)["ok"] is True
    assert seen["warning"].err.startswith("warning: weight cap 8 is large; ")
    assert seen["help"].out.startswith("usage: cumalg ") and not seen["help"].err

    report = tmp_path / "report.json"
    fresh = _fresh_process(lift + ["--output", str(report)], unbuffered)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "", "")
    assert report.read_text(encoding="utf-8") == seen["lift"].out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("size", ["small", "large"])
def test_an_unwritable_stdout_is_a_usage_error(tmp_path, unbuffered, size):
    """A report that cannot be written to standard output gets one usage
    error line and exit 2, whether the write or the final flush fails."""
    if size == "small":
        argv = ["cumulants", "--input",
                "moments=" + write(tmp_path, "m.json", {"moments": ["1/2", "1/3"]})]
    else:  # larger than the stdout buffer, so the write itself fails
        argv = ["lift", "--weight-cap", "5", "--input",
                "algebra=" + write(tmp_path, "p5.json", p_doc(5))]
    with open("/dev/full", "w") as full:
        fresh = _fresh_process(argv, unbuffered, stdout=full)
    assert fresh.returncode == 2
    assert fresh.stderr == ("usage error: cannot write the report to standard output: "
                            "[Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["lift", "--help"]], ids=["main", "command"])
def test_help_to_an_unwritable_stdout_is_a_usage_error(unbuffered, argv):
    """argparse ignores a failed write of its help text; the CLI reports it
    as it reports a report it cannot write."""
    with open("/dev/full", "w") as full:
        fresh = _fresh_process(argv, unbuffered, stdout=full)
    assert fresh.returncode == 2
    assert fresh.stderr == ("usage error: cannot write the report to standard output: "
                            "[Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("cap, code", [(9, 0), (2, 1), (11, 2)], ids=["ok", "failed", "usage"])
def test_an_unwritable_stderr_changes_no_report_and_no_exit_code(
        tmp_path, capsys, unbuffered, cap, code):
    """Messages are best effort: with standard error on a full device, a
    job past the large-cap warning writes the report it writes in-process,
    and every run exits as it would with a writable standard error."""
    moments = write(tmp_path, "m.json", {"moments": ["1/2", "1/3", "1/4"]})
    argv = ["cumulants", "--weight-cap", str(cap), "--input", f"moments={moments}"]
    assert cli.run(argv) == code
    report = capsys.readouterr().out
    with open("/dev/full", "w") as full:
        fresh = _fresh_process(argv, unbuffered, stderr=full)
    assert (fresh.returncode, fresh.stdout) == (code, report)


def test_text_format_renders_and_stays_deterministic(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    argv = ["lift", "--weight-cap", "3", "--format", "text",
            "--input", f"algebra={path}"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "table" in first
    assert "ok: true" in first


# SHA-256 of known-good reports of small jobs; any change to what one of
# these reports says, down to a byte, fails here
PINNED_REPORTS = {
    "lift-e2": (["lift", "--weight-cap", "4"], "algebra", E2_DOC,
                "7c3af827e814f602d79ffaff71bc9c943dba41568d9d1ddcc120df4ce4018011"),
    "invert-e2": (["invert", "--weight-cap", "4"], "algebra", E2_DOC,
                  "7b4f9fe1393342ae8fb485352d8f536a7c7f744eac5ee8eec3369f6b59811e65"),
    "defects-hom": (["defects", "--kind", "hom", "--weight-cap", "3"], "map", E2_MAP_DOC,
                    "571a72eb79832e93f7c9d6eb23c79741fae2e10f86f1ad5ae4e35444bab0f567"),
    "defects-der": (["defects", "--kind", "der", "--weight-cap", "3"], "map", E2_MAP_DOC,
                    "64ffbfda528906a06bec7c8fbb27b0bc1c768d05161eb8758ec93de6a5d0aabd"),
    "defects-der-xyt": (["defects", "--kind", "der", "--weight-cap", "3"], "map", XYT_MAP_DOC,
                        "fad7c4c255f1402a190937bf7179d6d965e8971fc40c60b80ceeae4e32205608"),
    "defects-der-xyt-text": (["defects", "--kind", "der", "--weight-cap", "3", "--format", "text"],
                             "map", XYT_MAP_DOC,
                             "70acf0a08e850fc839089e82ab9b76bf13a68581979e28b9392cbd4b7a42aae4"),
    "transfer-k2": (["transfer", "--weight-cap", "5"], "transfer", k2_doc(),
                    "782103a6744265429e9e8a24a71ea771e776bf83ebdbe6d3e562c2b2441e814b"),
    "transfer-odd-retract": (["transfer", "--weight-cap", "5"], "transfer", odd_retract_doc(),
                             "7b6f2c8ab94d8e727c0dbb58c08314b2a0770d19923ea402730b6b9bd70bc48e"),
    "cumulants-6": (["cumulants"], "moments",
                    {"moments": ["1/2", "1/3", "1/4", "1/5", "1/6", "1/7"]},
                    "b2b76f02ec6fe68249acdd3e5c5304d351700463435866337c248809c54d2aa9"),
    # repeated even factors: powers of one generator, and every product in p5
    "cumulants-8": (["cumulants", "--weight-cap", "8"], "moments",
                    {"moments": ["1/2", "-1/3", "2", "3/4", "-5/6", "1", "7/8", "-2/9"]},
                    "ae687176d4e55f3d600f707197169b7704b8ad80b80b20e62937819d4a337763"),
    "lift-p5": (["lift", "--weight-cap", "5"], "algebra", p_doc(5),
                "71d3df64996d52bac537af66dcf327578de1d45554a4c92dbb891a5b8ea51c20"),
    "invert-p5": (["invert", "--weight-cap", "5"], "algebra", p_doc(5),
                  "1fe71a0591053d8b08f9f7a0d301a9236362bcb1795ad308ba0816ec4b6e5175"),
}


@pytest.mark.parametrize(
    "argv, role, doc, digest", PINNED_REPORTS.values(), ids=PINNED_REPORTS.keys()
)
def test_report_bytes_are_pinned(tmp_path, argv, role, doc, digest):
    path = write(tmp_path, "input.json", doc)
    out = tmp_path / "report.json"
    assert cli.run(argv + ["--input", f"{role}={path}", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# JSON values as reports hold them: str-keyed objects, arrays, strings,
# integers of any size, booleans and null
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({"é\u2603": ['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f\ud800"]})
@example({"": {}, "a": [], "b": [{}, []], "n": [-1, 2**64 + 1, -(2**70)]})
@example({"t": True, "f": False, "z": None, "zero": 0, "list": [True, False, None]})
@example([])
@example("")
def test_json_writer_equals_indented_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def _broken_k2_doc():
    doc = k2_doc()
    del doc["iota"]["arities"]["2"]
    return doc


def _corrupted_e2_doc():
    doc = copy.deepcopy(E2_DOC)
    doc["products"].append(
        {"left": "b", "right": "a", "value": [{"gen": "g", "coeff": "1"}]}
    )
    return doc


# one report of each kind: arguments, input documents by role, exit code
REPORT_KINDS = {
    "validate": (["validate"], {"algebra": E2_DOC, "retract": k2_doc()["retract"]}, 0),
    "lift": (["lift", "--weight-cap", "4"], {"algebra": E2_DOC}, 0),
    "invert": (["invert", "--weight-cap", "4"], {"algebra": p_doc(4)}, 0),
    "defects-hom": (["defects", "--kind", "hom", "--weight-cap", "3"], {"map": E2_MAP_DOC}, 0),
    "defects-der": (["defects", "--kind", "der", "--weight-cap", "3"], {"map": E2_MAP_DOC}, 0),
    "transfer": (["transfer", "--weight-cap", "4"], {"transfer": k2_doc()}, 0),
    "transfer-broken": (["transfer", "--weight-cap", "4"], {"transfer": _broken_k2_doc()}, 1),
    "cumulants": (["cumulants"], {"moments": {"moments": ["1/2", "-1/3", "2", "3/4"]}}, 0),
    "error": (["validate"], {"algebra": _corrupted_e2_doc()}, 1),
}


def plain(value):
    """A report with each table node replaced by its rows as dicts: the
    monomial's names, and under each field the value's `to_doc()`, or the
    value itself for a bool."""
    if isinstance(value, tables._Table):
        return [
            {"monomial": w.names(value.source),
             **{key: v if type(v) is bool else v.to_doc() for key, v in zip(value.fields, values)}}
            for w, *values in value.rows
        ]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


@pytest.mark.parametrize("argv, docs, code", REPORT_KINDS.values(), ids=REPORT_KINDS.keys())
def test_json_reports_equal_json_dumps_of_the_report(tmp_path, monkeypatch, argv, docs, code):
    """Each kind of report is written byte for byte as json.dumps would
    write the same dict."""
    reports = []
    emit = cli._emit

    def recording(report, args):
        reports.append(report)
        emit(report, args)

    monkeypatch.setattr(cli, "_emit", recording)
    inputs = []
    for role, doc in docs.items():
        inputs += ["--input", f"{role}={write(tmp_path, role + '.json', doc)}"]
    out = tmp_path / "report.json"
    assert cli.run(argv + inputs + ["--output", str(out)]) == code
    (report,) = reports
    report = plain(report)
    assert out.read_text(encoding="utf-8") == json.dumps(report, sort_keys=True, indent=2) + "\n"
    if "der" in argv:
        assert report["arity3_comparison"]["rows"]
    if code:
        assert "error" in report


def _complex_generator_without_degree():
    doc = k2_doc()["retract"]
    doc["complex"] = {"generators": [{"name": "c"}]}
    return doc


def _odd_retract_with_a_degree_zero_differential():
    doc = odd_retract_doc()
    doc["retract"]["complex"]["differential"] = {"degree": 0, "entries": []}
    return doc


def _transfer_doc_with(change):
    doc = k2_doc()
    change(doc["iota"])
    return doc


# name: (argv, role, document, the RFC 6901 pointer its error report names)
MALFORMED = {
    "product-without-right": (
        ["validate"], "algebra",
        {"generators": [{"name": "a", "degree": 0}], "products": [{"left": "a"}]},
        "/products/0"),
    "product-entry-without-coeff": (
        ["validate"], "algebra",
        {"generators": [{"name": "a", "degree": 0}],
         "products": [{"left": "a", "right": "a", "value": [{"gen": "a"}]}]},
        "/products/0/value/0"),
    "map-entry-without-coeff": (
        ["defects", "--kind", "hom"], "map",
        {**E2_MAP_DOC, "entries": [{"gen": "a", "value": [{"gen": "a"}]}]},
        "/entries/0/value/0"),
    "products-not-a-list": (
        ["validate"], "algebra",
        {"generators": [{"name": "a", "degree": 0}], "products": 5},
        "/products"),
    "map-entries-not-a-list": (
        ["defects", "--kind", "hom"], "map", {**E2_MAP_DOC, "entries": 5}, "/entries"),
    "list-as-generator-name": (
        ["validate"], "algebra", {"generators": [{"name": ["a"], "degree": 0}]},
        "/generators/0/name"),
    "complex-generator-without-degree": (
        ["validate"], "retract", _complex_generator_without_degree(),
        "/complex/generators/0"),
    "complex-differential-of-degree-0": (
        ["transfer"], "transfer", _odd_retract_with_a_degree_zero_differential(),
        "/retract/complex/differential"),
    "moments-as-a-string": (["cumulants"], "moments", {"moments": "12"}, "/moments"),
    "iota-row-without-monomial": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota["arities"]["1"][0].pop("monomial")),
        "/iota/arities/1/0"),
    "iota-row-without-value": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota["arities"]["1"][0].pop("value")),
        "/iota/arities/1/0"),
    "iota-states-a-word-twice": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota["arities"]["2"].append(dict(iota["arities"]["2"][0]))),
        "/iota/arities/2/1/monomial"),
    # e is odd, so e∧e is 0 and cannot be given the value 7x
    "iota-gives-a-zero-word-a-value": (
        ["transfer"], "transfer",
        {**odd_retract_doc(), "iota": {"degree": 0, "arities": {
            "2": [{"monomial": ["e", "e"], "value": [{"gen": "x", "coeff": "7"}]}]}}},
        "/iota/arities/2/0/value"),
    "arities-not-an-object": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota.update(arities=[])),
        "/iota/arities"),
    "arity-key-not-a-number": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota["arities"].update(two=iota["arities"].pop("2"))),
        "/iota/arities/two"),
    # a pointer escapes "~" as "~0" and "/" as "~1"
    "arity-key-with-slash-and-tilde": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota["arities"].update({"2/~": iota["arities"].pop("2")})),
        "/iota/arities/2~1~0"),
    # the report names the place of a large bad value and does not copy it
    "iota-row-with-a-megabyte-monomial": (
        ["transfer"], "transfer",
        _transfer_doc_with(lambda iota: iota["arities"]["1"][0].update(monomial="c" * 2**20)),
        "/iota/arities/1/0/monomial"),
    # JSON booleans are not numbers
    "moment-true": (["cumulants"], "moments", {"moments": [True, 2]}, "/moments/0"),
    "generator-degree-true": (
        ["validate"], "algebra", {"generators": [{"name": "a", "degree": True}]},
        "/generators/0/degree"),
    "map-degree-false": (
        ["defects", "--kind", "hom"], "map", {**E2_MAP_DOC, "degree": False}, "/degree"),
    "iota-degree-false": (
        ["transfer"], "transfer", _transfer_doc_with(lambda iota: iota.update(degree=False)),
        "/iota/degree"),
    # a file holding a JSON string is a string document, not JSON text to parse again
    "document-is-a-json-string": (
        ["cumulants"], "moments", json.dumps({"moments": ["1/2", "1/3"]}), ""),
}


@pytest.mark.parametrize("argv, role, doc, pointer", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_get_an_error_report(tmp_path, capsys, argv, role, doc, pointer):
    path = write(tmp_path, "input.json", doc)
    code = cli.run(argv + ["--input", f"{role}={path}"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["ok"] is False
    assert "Traceback" not in captured.err
    assert report["error"]["witness"] == {"kind": "schema", "pointer": pointer}
    assert f"'{pointer}'" in report["error"]["message"]
    assert len(report["error"]["message"]) < 100
    _resolve(doc, pointer)


def _resolve(doc, pointer):
    """The value at an RFC 6901 JSON Pointer; KeyError or IndexError if there
    is none."""
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        doc = doc[int(token)] if isinstance(doc, list) else doc[token]
    return doc


# bytes that a JSON parser or a scalar reader refuses before any shape check
BOUNDARY_BYTES = {
    "nested-100000-deep": (b"[" * 100_000 + b"]" * 100_000, None),
    "not-utf-8": (b'{"moments": ["1/2"]}\xff', None),
    "integer-of-5000-digits": (b'{"moments": [' + b"1" * 5000 + b"]}", None),
    "rational-of-5000-digits": (b'{"moments": ["' + b"1" * 5000 + b'"]}', "/moments/0"),
}


@pytest.mark.parametrize("data, pointer", BOUNDARY_BYTES.values(), ids=BOUNDARY_BYTES.keys())
def test_unreadable_bytes_get_an_error_report(tmp_path, capsys, data, pointer):
    path = tmp_path / "moments.json"
    path.write_bytes(data)
    code = cli.run(["cumulants", "--input", f"moments={path}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    report = json.loads(captured.out)
    assert report["ok"] is False
    if pointer is None:
        assert report["error"]["message"].startswith("invalid JSON")
    else:
        assert report["error"]["witness"] == {"kind": "schema", "pointer": pointer}


def test_scalars_past_the_str_digit_limit_are_reported_exactly(tmp_path, capsys):
    """The second cumulant of two 3000-digit moments has 6001 digits, past
    the interpreter's default limit of 4300 for an int-to-str conversion;
    the report holds its exact digits and the limit stays as it was."""
    m = 10**3000 - 1
    limit = sys.get_int_max_str_digits()
    path = write(tmp_path, "moments.json", {"moments": ["9" * 3000, "9" * 3000]})
    code, report = run_json(capsys, ["cumulants", "--weight-cap", "2",
                                     "--input", f"moments={path}"])
    assert code == 0 and report["agree"] is True
    assert report["cumulants"][0] == "9" * 3000
    assert report["cumulants"][1] == report["oracle"][1]
    assert len(report["cumulants"][1]) == 6001
    assert Decimal(report["cumulants"][1]) == Decimal(m - m * m)
    assert sys.get_int_max_str_digits() == limit


def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "e2.json", E2_DOC)
    report = tmp_path / "no" / "such" / "r.json"
    code = cli.run(["validate", "--input", f"algebra={path}", "--output", str(report)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {report}")


# the input boundary: every document that differs from a valid one at one
# place, one value replaced by one of these or one key deleted
BOUNDARY_VALUES = (None, 0, -1, 1.5, True, "x", [], {}, [{}], 10**30)
BOUNDARY_JOBS = {
    "algebra": (["lift"], E2_DOC),
    "map": (["defects", "--kind", "der"], E2_MAP_DOC),
    "retract": (["validate"], k2_doc()["retract"]),
    "transfer": (["transfer"], k2_doc()),
    "moments": (["cumulants"], {"moments": ["1/2", "-3", "2/7"]}),
}


def _mutations(doc):
    """(what, document) for every single-place mutation of `doc`: each value,
    the whole document included, replaced by each of BOUNDARY_VALUES, and
    each key of an object deleted."""

    def places(node, path=()):
        yield path
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                yield from places(child, path + (key,))

    for path in places(doc):
        for value in BOUNDARY_VALUES:
            yield f"{list(path)} = {value!r}", _changed(doc, path, value)
        if path and isinstance(_at(doc, path[:-1]), dict):
            yield f"del {list(path)}", _changed(doc, path)


_DELETE = object()


def _changed(doc, path, value=_DELETE):
    """A copy of `doc` with the value at `path` replaced, or deleted."""
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = _at(out, path[:-1])
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("role", sorted(BOUNDARY_JOBS))
def test_every_single_mutation_of_a_valid_document_gets_a_report(tmp_path, capsys, role):
    argv, doc = BOUNDARY_JOBS[role]
    path = tmp_path / "input.json"
    for what, mutated in _mutations(doc):
        path.write_text(json.dumps(mutated), encoding="utf-8")
        code = cli.run(argv + ["--weight-cap", "3", "--input", f"{role}={path}"])
        captured = capsys.readouterr()
        assert code in (0, 1, 2), what
        assert "Traceback" not in captured.err, what
        if code == 1:
            report = json.loads(captured.out)
            assert report["ok"] is False, what
            # a failed transfer reports its error as a string
            error = report.get("error")
            witness = error.get("witness", {}) if isinstance(error, dict) else {}
            if witness.get("kind") == "schema":
                _resolve(mutated, witness["pointer"])
