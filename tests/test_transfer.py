"""Deformation-retract validation and the induced cumulant bijection."""
import json
from fractions import Fraction

import pytest

import cumalg as cm
from cumalg import transfer

from conftest import defect_operator, k2_doc

CAP = 3


def check_by_law(checks, law):
    for c in checks:
        if c.law == law:
            return c
    raise AssertionError(f"no check named {law!r}")


def test_retract_fixture_validates(k2):
    report = cm.validate_retract(k2)
    assert report.ok
    assert len(report.checks) == 6
    assert all(c.ok for c in report.checks)


def test_homotopy_with_the_opposite_sign_fails(k2):
    flipped = cm.RetractData(
        k2.algebra, k2.d, k2.complex, k2.inclusion, k2.projection,
        (-1) * k2.homotopy,
    )
    report = cm.validate_retract(flipped)
    assert not report.ok
    failing = check_by_law(report.checks, "homotopy identity")
    assert not failing.ok
    assert "a" in failing.witness["generators"]
    assert set(failing.witness["generators"]) == {"a", "b"}


def test_retract_shape_validation(k2):
    with pytest.raises(cm.ValidationError):
        cm.RetractData(
            k2.algebra, k2.d, k2.complex, k2.inclusion, k2.projection,
            cm.LinearMap(k2.algebra, k2.algebra, 0, {}),
        )


def test_complex_side_carries_no_product(k2):
    assert not isinstance(k2.complex, cm.AlgebraPresentation)
    assert not hasattr(k2.complex, "products")


def test_transferred_differential_picks_up_the_product(k2):
    d_tilde = cm.transferred_differential(k2, CAP)
    A = k2.algebra
    cc = cm.monomial(A, (0, 0))
    assert cm.taylor_coefficient(d_tilde, cc) == A.generator(2)
    assert cm.check_coderivation(d_tilde).ok


@pytest.mark.parametrize("cap", range(3, 9))
def test_transferred_differential_is_the_pull_conjugate(k2, cap):
    # the recursion's coderivation against τ̃⁻¹∘(bare coderivation of d)∘τ̃
    reference = defect_operator(k2.d, "der", cap)
    assert cm.transferred_differential(k2, cap).equal_up_to(reference)


def test_transfer_hypotheses_validate(k2_transfer):
    report = cm.validate_transfer_input(k2_transfer, CAP)
    assert report.ok
    intertwine = check_by_law(
        report.checks, "iota extension intertwines the differentials"
    )
    assert intertwine.ok
    injective = check_by_law(report.checks, "extension is injective up to the cap")
    assert injective.ok
    assert injective.checked == 3


def test_induced_bijection_is_the_identity_here(k2_transfer):
    result = cm.induced_cumulant_bijection(k2_transfer, CAP)
    assert result.ok
    assert result.inverse is not None
    C = k2_transfer.retract.complex
    ident = cm.SMap.identity(C, CAP)
    assert result.tau_tilde_c.equal_up_to(ident)
    assert result.inverse.equal_up_to(ident)
    assert cm.vanishes_above_one(result.family)
    assert result.family.arity_one_map() == cm.LinearMap.identity(C)


def test_certifications_all_pass(k2_transfer):
    result = cm.induced_cumulant_bijection(k2_transfer, CAP)
    laws = [c.law for c in result.certifications]
    assert laws == [
        "weight-one identity",
        "comorphism",
        "intertwines the transferred coderivation with the complex differential",
        "triangular and invertible",
    ]
    assert all(c.ok for c in result.certifications)


def test_result_document_shape(k2_transfer):
    doc = cm.induced_cumulant_bijection(k2_transfer, CAP).to_doc()
    assert doc["ok"] is True
    assert doc["weight_cap"] == CAP
    assert {"hypotheses", "certifications", "tau_tilde_c", "taylor_family"} <= set(doc)
    json.dumps(doc)


def test_dropping_the_weight_two_correction_is_refused(k2, k2_transfer):
    iota = k2_transfer.iota
    bare_iota = cm.TaylorFamily(iota.source, iota.target, iota.degree, {1: iota.tables[1]})
    broken = cm.TransferInput(k2, k2_transfer.d_infinity, bare_iota)
    with pytest.raises(cm.TransferError) as err:
        cm.induced_cumulant_bijection(broken, CAP)
    report = err.value.report
    assert not report.ok
    failing = check_by_law(
        report.checks, "iota extension intertwines the differentials"
    )
    # a transfer difference counts the whole carrier c, c∧c, c∧c∧c
    assert failing.to_doc() == {
        "law": "iota extension intertwines the differentials",
        "ok": False,
        "checked": 3,
        "witness": {
            "monomial": ["c", "c"],
            "lhs": [],
            "rhs": [{"monomial": ["a"], "coeff": "1"}],
        },
    }


def test_iota_must_extend_the_inclusion(k2, k2_transfer):
    C, A = k2.complex, k2.algebra
    wrong = cm.TaylorFamily(
        C, A, 0,
        {1: {cm.monomial(C, (0,)): 2 * A.generator(0)},
         2: dict(k2_transfer.iota.tables[2])},
    )
    report = cm.validate_transfer_input(
        cm.TransferInput(k2, k2_transfer.d_infinity, wrong), CAP
    )
    assert not report.ok
    failing = check_by_law(report.checks, "iota extends the inclusion")
    assert not failing.ok
    assert failing.witness["generators"] == ["c"]


def test_weight_two_correction_can_be_solved_for(k2):
    """Derive the weight-2 coefficient from the intertwining equation alone."""
    A, C = k2.algebra, k2.complex
    d_tilde = cm.transferred_differential(k2, CAP)
    # unknowns: coefficients of the degree-0 generators c, b
    degree_zero = [i for i, d in enumerate(A.degrees) if d == 0]
    rhs_vec = cm.taylor_coefficient(d_tilde, cm.monomial(A, (0, 0)))
    rows = sorted({k for i in degree_zero
                   for k in k2.d.apply(A.generator(i)).terms}
                  | set(rhs_vec.terms))
    matrix = [
        [k2.d.apply(A.generator(i)).get(k) for i in degree_zero]
        for k in rows
    ]
    solution = cm.solve(matrix, [-rhs_vec.get(k) for k in rows])
    assert solution == [Fraction(0), Fraction(-1)]
    value = sum(
        (coeff * A.generator(i) for coeff, i in zip(solution, degree_zero)),
        cm.Vector(A),
    )
    iota = cm.TaylorFamily(
        C, A, 0,
        {1: {cm.monomial(C, (0,)): A.generator(0)},
         2: {cm.monomial(C, (0, 0)): value}},
    )
    d_inf = cm.TaylorFamily(C, C, -1, {})
    result = cm.induced_cumulant_bijection(
        cm.TransferInput(k2, d_inf, iota), CAP
    )
    assert result.ok


def test_trivial_retract_reproduces_the_bijection(k2):
    """Retracting onto itself: the induced bijection is the original one."""
    A = k2.algebra
    C = cm.ChainComplex(
        list(zip(A.names, A.degrees)),
        {i: col.terms for i, col in k2.d.columns.items()},
    )
    ident_cols = {i: {i: Fraction(1)} for i in range(len(A))}
    retract = cm.RetractData(
        A, k2.d, C,
        cm.LinearMap(C, A, 0, ident_cols),
        cm.LinearMap(A, C, 0, ident_cols),
        cm.LinearMap(A, A, 1, {}),
    )
    assert cm.validate_retract(retract).ok

    d_tilde = cm.transferred_differential(retract, CAP)
    moved = cm.extract_family(d_tilde, CAP)
    translated = cm.TaylorFamily(
        C, C, -1,
        {
            arity: {
                cm.monomial(C, mono.indices): cm.Vector(C, value.terms)
                for mono, value in table.items()
            }
            for arity, table in moved.tables.items()
        },
    )
    iota = cm.TaylorFamily.from_linear_map(retract.inclusion)
    result = cm.induced_cumulant_bijection(
        cm.TransferInput(retract, translated, iota), CAP
    )
    assert result.ok
    tau_a = cm.cumulant_context(A, CAP).tau_tilde
    for w in cm.monomials_up_to(C, CAP):
        got = result.tau_tilde_c.on_monomial(w)
        want = tau_a.on_monomial(cm.monomial(A, w.indices))
        assert {m.indices: c for m, c in got.terms.items()} == {
            m.indices: c for m, c in want.terms.items()
        }


def test_parse_round_trip_matches_the_fixtures(k2, k2_transfer):
    parsed = cm.parse_transfer_input(json.dumps(k2_doc()))
    assert cm.validate_retract(parsed.retract).ok
    result = cm.induced_cumulant_bijection(parsed, CAP)
    assert result.ok
    assert parsed.iota.tables[2] == {
        cm.monomial(parsed.retract.complex, (0, 0)):
            (-1) * parsed.retract.algebra.generator(1)
    }


def test_parse_rejects_missing_pieces():
    doc = k2_doc()
    del doc["retract"]["s"]
    with pytest.raises(cm.SchemaError):
        cm.parse_transfer_input(doc)
    doc = k2_doc()
    del doc["iota"]
    with pytest.raises(cm.SchemaError):
        cm.parse_transfer_input(doc)


def test_parse_rejects_wrong_degrees():
    doc = k2_doc()
    doc["retract"]["d"]["degree"] = 0
    with pytest.raises(cm.AlgebraError):
        cm.parse_transfer_input(doc)


def test_non_triangular_operator_is_refused_at_its_first_witness(k2):
    C = k2.complex

    def doubles_above_weight_one(w):
        return cm.SElement(C, 3, {w: 1 if w.weight == 1 else 2})

    op = cm.SMap(C, C, 3, 0, doubles_above_weight_one)
    report, inverse = transfer._triangular_and_invertible(op)
    assert inverse is None
    assert (report.ok, report.checked) == (False, 2)
    assert report.witness == {
        "monomial": ["c", "c"],
        "lhs": [{"monomial": ["c", "c"], "coeff": "2"}],
    }
