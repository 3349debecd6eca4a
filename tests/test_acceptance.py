"""Acceptance gate: one test per shipped guarantee, every comparison exact."""
import json
import random
from fractions import Fraction

import pytest

import cumalg as cm
import cumalg.cli as cli

from conftest import k2_doc, random_commutative_algebra, random_family, tensor_law_report

CAP = 5
RETRACT_CAP = 3


@pytest.fixture(scope="module")
def fixture_algebras(e2, p8, k2):
    return [e2, p8, k2.algebra,
            random_commutative_algebra(11), random_commutative_algebra(23)]


def test_criterion_01_bijection_satisfies_the_comorphism_law(fixture_algebras):
    """Reduced coproduct commutes with the bijection on all of F_5."""
    for alg in fixture_algebras:
        ctx = cm.cumulant_context(alg, CAP)
        report = tensor_law_report(ctx.tau_tilde, "comorphism")
        assert report.ok, report.witness
        assert report.checked == sum(1 for _ in cm.monomials_up_to(alg, CAP))
        assert cm.check_comorphism(ctx.tau_tilde).to_doc() == report.to_doc()
    print("criterion 01: PASS (comorphism law on five algebras up to weight 5)")


def test_criterion_02_bijection_is_triangular_with_exact_inverse(fixture_algebras):
    """tau_tilde moves a monomial only below its weight and inverts exactly."""
    for alg in fixture_algebras:
        ctx = cm.cumulant_context(alg, CAP)
        for w in cm.monomials_up_to(alg, CAP):
            tail = ctx.tau_tilde.on_monomial(w) - cm.SElement(alg, CAP, {w: 1})
            assert all(m.weight < w.weight for m in tail.terms)
        ident = cm.SMap.identity(alg, CAP)
        assert ctx.tau_tilde_inverse.compose(ctx.tau_tilde).equal_up_to(ident)
        assert ctx.tau_tilde.compose(ctx.tau_tilde_inverse).equal_up_to(ident)
    print("criterion 02: PASS (triangular tail and two-sided inverse on F_5)")


def test_criterion_03_low_arity_defects_match_their_closed_forms(p8, e2, k2):
    """Arity-2 and arity-3 defect tables equal the spelled-out formulas."""
    f8 = cm.LinearMap(
        p8, p8, 0, {i: {i: Fraction(1), min(i + 1, 7): Fraction(1)} for i in range(8)}
    )
    fe = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)},
                                  2: {2: Fraction(2)}})
    for alg, f in ((p8, f8), (e2, fe)):
        tables = cm.defect_family(f, "hom", RETRACT_CAP).tables
        g2, g3 = tables.get(2, {}), tables.get(3, {})
        for w in cm.canonical_monomials(alg, 2):
            i, j = w.indices
            want = cm.g2_closed_form(f, alg, alg.generator(i), alg.generator(j))
            assert g2.get(w, cm.Vector(alg)) == want
        for w in cm.canonical_monomials(alg, 3):
            i, j, k = w.indices
            want = cm.g3_closed_form(
                f, alg, alg.generator(i), alg.generator(j), alg.generator(k)
            )
            assert g3.get(w, cm.Vector(alg)) == want
    d8 = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(1)} for i in range(8)})
    de = cm.LinearMap(e2, e2, 0, {2: {2: Fraction(1)}})
    for alg, d in ((p8, d8), (e2, de), (k2.algebra, k2.d)):
        h2 = cm.defect_family(d, "der", RETRACT_CAP).tables.get(2, {})
        for w in cm.canonical_monomials(alg, 2):
            i, j = w.indices
            want = cm.h2_closed_form(d, alg, alg.generator(i), alg.generator(j))
            assert h2.get(w, cm.Vector(alg)) == want
    print("criterion 03: PASS (g2, g3, h2 closed forms on every low monomial)")


def test_criterion_04_brute_force_conjugation_rebuilds_arity_three(p8):
    """Two independent routes conjugate a non-derivation to the same table."""
    d = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(1)} for i in range(8)})
    series = cm.tau_tilde_series(p8, RETRACT_CAP)
    inverse = cm.extend_coalgebra_map(
        cm.mobius_inverse_family(p8, RETRACT_CAP), RETRACT_CAP
    )
    bare = cm.extend_coderivation(cm.TaylorFamily.from_linear_map(d), RETRACT_CAP)
    brute = inverse.compose(bare).compose(series)
    tables = cm.defect_family(d, "der", RETRACT_CAP).tables
    assert cm.taylor_extract(brute, 2) == tables.get(2, {})
    table = tables.get(3, {})
    assert cm.taylor_extract(brute, 3) == table
    disagreements = []
    for w in cm.canonical_monomials(p8, 3):
        i, j, k = w.indices
        variant = cm.h3_seven_term_variant(
            d, p8, p8.generator(i), p8.generator(j), p8.generator(k)
        )
        if variant != table.get(w, cm.Vector(p8)):
            disagreements.append(w.names(p8))
    total = len(cm.canonical_monomials(p8, 3))
    print(f"criterion 04 report: seven-term variant disagrees with the computed "
          f"arity-3 table on {len(disagreements)} of {total} monomials; "
          f"first three: {disagreements[:3]}")
    assert disagreements
    print("criterion 04: PASS (brute-force oracle matches; variant flagged)")


def test_criterion_05_true_morphisms_have_no_higher_defects(p8, e2):
    """Defects vanish through arity 5, and one wrong entry shows at arity 2."""
    f8 = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(2) ** (i + 1)} for i in range(8)})
    fe = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1), 1: Fraction(2)},
                                  1: {1: Fraction(1)}, 2: {2: Fraction(1)}})
    euler = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(i + 1)} for i in range(8)})
    de = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)},
                                  2: {2: Fraction(2)}})
    for m, kind in ((f8, "hom"), (fe, "hom"), (euler, "der"), (de, "der")):
        family = cm.defect_family(m, kind, CAP)
        assert cm.vanishes_above_one(family)
        assert set(family.tables) <= {1}
    bad_f = cm.LinearMap(
        p8, p8, 0,
        {i: {i: Fraction(2) ** (i + 1)} for i in range(7)} | {7: {7: Fraction(1)}},
    )
    bad_d = cm.LinearMap(
        p8, p8, 0,
        {i: {i: Fraction(i + 1)} for i in range(7)} | {7: {7: Fraction(7)}},
    )
    assert cm.defect_family(bad_f, "hom", 2).tables.get(2, {})
    assert cm.defect_family(bad_d, "der", 2).tables.get(2, {})
    print("criterion 05: PASS (defects vanish to arity 5; perturbations detected)")


def test_criterion_06_conjugation_preserves_brackets_and_squares(e2, k2):
    """Push-conjugation is a Lie map and keeps square-zero square-zero."""
    for alg, seed in ((e2, 6), (k2.algebra, 7)):
        rng = random.Random(seed)
        fam1 = random_family(rng, alg, 0, 3)
        fam2 = random_family(rng, alg, -1, 3)
        assert fam1.tables and fam2.tables
        d1 = cm.extend_coderivation(fam1, CAP)
        d2 = cm.extend_coderivation(fam2, CAP)
        lhs = cm.conjugate(cm.bracket(d1, d2), "push")
        rhs = cm.bracket(cm.conjugate(d1, "push"), cm.conjugate(d2, "push"))
        assert lhs.equal_up_to(rhs)
    de = cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    for alg, d in ((e2, de), (k2.algebra, k2.d)):
        bare = cm.extend_coderivation(cm.TaylorFamily.from_linear_map(d), CAP)
        assert bare.compose(bare).equal_up_to(
            cm.SMap(alg, alg, CAP, -2, lambda w: cm.SElement(alg, CAP))
        )
        pushed = cm.conjugate(bare, "push")
        zero = cm.SMap(alg, alg, CAP, -2, lambda w: cm.SElement(alg, CAP))
        assert pushed.compose(pushed).equal_up_to(zero)
    print("criterion 06: PASS (brackets preserved; squares stay zero on F_5)")


def test_criterion_07_chain_maps_intertwine_after_conjugation(e2, k2, p4, p8):
    """f.d_A = d_B.f carries over to the conjugated extensions on F_5."""
    de = cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    phi = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(2)},
                                   1: {0: Fraction(3), 1: Fraction(1)},
                                   2: {2: Fraction(2)}})
    psi = cm.LinearMap(k2.algebra, k2.algebra, 0,
                       {0: {0: Fraction(2)}, 1: {1: Fraction(4)},
                        2: {2: Fraction(4)}})
    euler4 = cm.LinearMap(p4, p4, 0, {i: {i: Fraction(i + 1)} for i in range(4)})
    euler8 = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(i + 1)} for i in range(8)})
    include = cm.LinearMap(p4, p8, 0, {i: {i: Fraction(1)} for i in range(4)})
    cases = [
        (de, de, phi),
        (k2.d, k2.d, psi),
        (euler4, euler8, include),
    ]
    for d_source, d_target, f in cases:
        assert f.compose(d_source) == d_target.compose(f)
        f_hat = cm.conjugate(
            cm.extend_coalgebra_map(cm.TaylorFamily.from_linear_map(f), CAP), "push"
        )
        d_src = cm.conjugate(
            cm.extend_coderivation(cm.TaylorFamily.from_linear_map(d_source), CAP),
            "push",
        )
        d_tgt = cm.conjugate(
            cm.extend_coderivation(cm.TaylorFamily.from_linear_map(d_target), CAP),
            "push",
        )
        assert f_hat.compose(d_src).equal_up_to(d_tgt.compose(f_hat))
    print("criterion 07: PASS (three chain maps intertwine after conjugation)")


def test_criterion_08_retract_pipeline_certifies_and_refuses(k2, k2_transfer):
    """The squeezed-point retract passes end to end; ablation is refused."""
    report = cm.validate_retract(k2)
    assert report.ok and all(c.ok for c in report.checks)
    result = cm.induced_cumulant_bijection(k2_transfer, RETRACT_CAP)
    assert [c.law for c in result.certifications] == [
        "weight-one identity",
        "comorphism",
        "intertwines the transferred coderivation with the complex differential",
        "triangular and invertible",
    ]
    assert all(c.ok for c in result.certifications)
    ident = cm.SMap.identity(k2.complex, RETRACT_CAP)
    assert result.tau_tilde_c.equal_up_to(ident)
    assert result.inverse.equal_up_to(ident)
    iota = k2_transfer.iota
    bare_iota = cm.TaylorFamily(iota.source, iota.target, iota.degree, {1: iota.tables[1]})
    broken = cm.TransferInput(k2, k2_transfer.d_infinity, bare_iota)
    with pytest.raises(cm.TransferError) as err:
        cm.induced_cumulant_bijection(broken, RETRACT_CAP)
    failing = [c for c in err.value.report.checks if not c.ok]
    assert failing
    assert failing[0].witness["monomial"] == ["c", "c"]
    print("criterion 08: PASS (retract certified; ablated input refused with witness)")


def test_criterion_09_classical_cumulants_from_moments():
    """Moment-to-cumulant conversion agrees with the recursive oracle."""
    rng = random.Random(914)
    for _ in range(100):
        n = rng.randint(1, 6)
        moments = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        assert cm.cumulants_from_moments(moments) == cm.oracle_cumulants(moments)
    half = Fraction(1, 2)
    assert cm.cumulants_from_moments([half] * 4) == [
        half, Fraction(1, 4), Fraction(0), Fraction(-1, 8)
    ]
    c = Fraction(-5, 3)
    kappas = cm.cumulants_from_moments([c ** j for j in range(1, 7)])
    assert kappas[0] == c
    assert all(k == 0 for k in kappas[1:])
    print("criterion 09: PASS (100 random sequences, a fair coin, a constant)")


def _p4_doc():
    gens = [{"name": f"x{k}", "degree": 0} for k in range(1, 5)]
    prods = [
        {"left": f"x{a}", "right": f"x{b}",
         "value": [{"gen": f"x{a + b}", "coeff": "1"}]}
        for a in range(1, 5) for b in range(a, 5) if a + b <= 4
    ]
    return {"generators": gens, "products": prods}


def _euler_doc():
    alg = _p4_doc()
    return {
        "source": alg, "target": alg, "degree": 0,
        "entries": [
            {"gen": f"x{k}", "value": [{"gen": f"x{k}", "coeff": str(k)}]}
            for k in range(1, 5)
        ],
    }


def test_criterion_10_cli_runs_are_byte_identical(tmp_path, capsys):
    """Every command writes the same bytes when run twice on the same input."""
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    alg = write("p4.json", _p4_doc())
    emap = write("euler.json", _euler_doc())
    transfer = write("k2.json", k2_doc())
    moments = write("moments.json", {"moments": ["1/2", "1/2", "1/2", "1/2"]})
    jobs = [
        ("validate", ["validate", "--input", f"algebra={alg}"]),
        ("lift", ["lift", "--weight-cap", "4", "--input", f"algebra={alg}"]),
        ("invert", ["invert", "--weight-cap", "4", "--input", f"algebra={alg}"]),
        ("defects", ["defects", "--kind", "der", "--weight-cap", "3",
                     "--input", f"map={emap}"]),
        ("transfer", ["transfer", "--weight-cap", "3",
                      "--input", f"transfer={transfer}"]),
        ("cumulants", ["cumulants", "--input", f"moments={moments}"]),
    ]
    for name, argv in jobs:
        first = tmp_path / f"{name}1.json"
        second = tmp_path / f"{name}2.json"
        assert cli.run(argv + ["--output", str(first)]) == 0
        assert cli.run(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    print("criterion 10: PASS (six commands byte-identical across repeat runs)")
