"""Extensions from Taylor coefficients and the coefficient calculus."""
import hashlib
import json
import random
from fractions import Fraction

import pytest

import cumalg as cm
from cumalg.morphisms import _wedge_in

from conftest import random_family, random_selement, tensor_law_report

CAP = 4


@pytest.fixture(scope="session")
def dg_family(e2):
    # degree -1 square-zero differential: d(g) = a
    return cm.TaylorFamily.from_linear_map(
        cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    )


def se(basis, cap, indices, coeff=1):
    return cm.SElement(basis, cap, {cm.monomial(basis, indices): coeff})


def test_arity_one_coderivation_obeys_the_signed_leibniz_rule(e2, dg_family):
    D = cm.extend_coderivation(dg_family, CAP)
    assert D.on_monomial(cm.monomial(e2, (2, 2))) == se(e2, CAP, (0, 2), 2)
    assert D.on_monomial(cm.monomial(e2, (0, 2))).is_zero()
    # -(b^d(g)) reorders to +(a^b)
    assert D.on_monomial(cm.monomial(e2, (1, 2))) == se(e2, CAP, (0, 1))


def test_weight_one_insertion_refuses_a_tail_at_the_cap(e2):
    """`_wedge_in` refuses to wedge a generator onto a word of the cap's
    weight, so no extension drops a term past the cap (`"overflow": false`)."""
    out = cm.SElement(e2, 2)
    with pytest.raises(cm.ValidationError, match="exceeds weight cap 2"):
        _wedge_in(out, e2.generator(2), [(cm.monomial(e2, (0, 1)), 1)])
    _wedge_in(out, e2.generator(2), [(cm.monomial(e2, (0,)), 1)])
    assert out.to_doc() == [{"monomial": ["a", "g"], "coeff": "1"}]


def test_coderivation_eats_one_block_per_term(p8):
    x5 = p8.generator(4)
    T = cm.TaylorFamily(p8, p8, 0, {2: {cm.monomial(p8, (0, 1)): x5}})
    D = cm.extend_coderivation(T, CAP)
    got = D.on_monomial(cm.monomial(p8, (0, 1, 2)))
    assert got == se(p8, CAP, (2, 4))
    assert D.on_monomial(cm.monomial(p8, (0, 2, 3))).is_zero()


def test_coderivation_weight_never_increases(p8):
    rng = random.Random(2)
    fam = random_family(rng, p8, 0, 3)
    D = cm.extend_coderivation(fam, CAP)
    for w in cm.monomials_up_to(p8, CAP):
        img = D.on_monomial(w)
        assert img.max_weight() <= w.weight


@pytest.mark.parametrize("degree", [-1, 0, 1])
@pytest.mark.parametrize("seed", [1, 2])
def test_coderivation_extension_satisfies_co_leibniz(e2, p8, degree, seed):
    rng = random.Random(seed)
    for basis in (e2, p8):
        fam = random_family(rng, basis, degree, 3)
        report = tensor_law_report(cm.extend_coderivation(fam, CAP), "co-Leibniz")
        assert report.ok, report.witness


@pytest.mark.parametrize("seed", [3, 4])
def test_comorphism_extension_satisfies_the_coalgebra_law(e2, p8, seed):
    rng = random.Random(seed)
    for basis in (e2, p8):
        fam = random_family(rng, basis, 0, 3)
        report = tensor_law_report(cm.extend_coalgebra_map(fam, CAP), "comorphism")
        assert report.ok, report.witness


def test_comorphism_blocks_multiply(p8):
    f = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(2)} for i in range(8)})
    T = cm.TaylorFamily(p8, p8, 0, {2: {cm.monomial(p8, (0, 1)): p8.generator(4)}})
    fam = cm.TaylorFamily(
        p8, p8, 0, {1: cm.TaylorFamily.from_linear_map(f).tables[1], 2: T.tables[2]}
    )
    G = cm.extend_coalgebra_map(fam, CAP)
    got = G.on_monomial(cm.monomial(p8, (0, 1)))
    assert got == se(p8, CAP, (0, 1), 4) + se(p8, CAP, (4,))


def test_missing_arity_kills_the_partition(p8):
    table = {}
    for i in range(4):
        for j in range(i, 4):
            table[cm.monomial(p8, (i, j))] = p8.generator(7)
    fam = cm.TaylorFamily(p8, p8, 0, {2: table})
    G = cm.extend_coalgebra_map(fam, CAP)
    assert G.on_monomial(cm.monomial(p8, (0, 1, 2))).is_zero()
    got = G.on_monomial(cm.monomial(p8, (0, 1, 2, 3)))
    assert got == se(p8, CAP, (7, 7), 3)


def test_comorphism_extension_rejects_nonzero_degree(e2):
    fam = cm.TaylorFamily(
        e2, e2, -1, {1: {cm.monomial(e2, (2,)): e2.generator(0)}}
    )
    with pytest.raises(cm.ValidationError):
        cm.extend_coalgebra_map(fam, CAP)


@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_coderivation_round_trips_through_extraction(p8, degree):
    rng = random.Random(degree + 10)
    fam = random_family(rng, p8, degree, 3)
    D = cm.extend_coderivation(fam, CAP)
    assert cm.extract_family(D, CAP) == fam


def test_comorphism_round_trips_through_extraction(e2, p8):
    rng = random.Random(17)
    for basis in (e2, p8):
        fam = random_family(rng, basis, 0, 3)
        G = cm.extend_coalgebra_map(fam, CAP)
        assert cm.extract_family(G, CAP) == fam


def test_extension_round_trip_on_graded_signs(e2):
    T = cm.TaylorFamily(e2, e2, 0, {2: {cm.monomial(e2, (0, 1)): e2.generator(2)}})
    D = cm.extend_coderivation(T, CAP)
    assert cm.taylor_coefficient(D, cm.monomial(e2, (0, 1))) == e2.generator(2)
    assert T.evaluate((1, 0)) == (-1) * e2.generator(2)
    assert T.evaluate((0, 0)).is_zero()


def test_taylor_family_rejects_inhomogeneous_values(e2):
    with pytest.raises(cm.ValidationError):
        cm.TaylorFamily(e2, e2, 0, {2: {cm.monomial(e2, (0, 1)): e2.generator(0)}})
    # keys that are not canonical monomials over the source: an index past
    # its last generator, and `a` (degree 1) claimed at degree 2
    for key in (cm.WedgeMonomial((7,), (1,)), cm.WedgeMonomial((0,), (2,))):
        with pytest.raises(cm.ValidationError, match="not canonical"):
            cm.TaylorFamily(e2, e2, 0, {1: {key: e2.generator(0)}})


def test_a_computed_family_checks_values_in_its_window_and_computes_none_outside(e2):
    # e2's degrees are 1 and 2: a degree-0 value is 0 at a word of degree 3
    asked = []

    def fn(w):
        asked.append(w)
        return e2.generator(2)  # of degree 2: right at a∧b, off degree at a

    family = cm.TaylorFamily(e2, e2, 0, cap=3, fn=fn)
    a, a_b, a_g = (cm.monomial(e2, w) for w in ((0,), (0, 1), (0, 2)))
    assert family.coefficient(a_b) == e2.generator(2)
    with pytest.raises(cm.ValidationError, match="not homogeneous of degree 1"):
        family.coefficient(a)
    assert family.coefficient(a_g).is_zero()
    assert asked == [a_b, a]


@pytest.mark.parametrize("degree", [-1, 0, 1])
def test_tables_compute_exactly_the_words_of_the_window(e2, degree):
    # the window is shifted onto the target: |w| + degree must be 1 or 2
    asked = []

    def fn(w):
        asked.append(w)
        return cm.Vector(e2)

    assert cm.TaylorFamily(e2, e2, degree, cap=3, fn=fn).tables == {}
    assert asked == [w for w in cm.monomials_up_to(e2, 3) if w.degree + degree in (1, 2)]


def test_taylor_family_doc_normalizes_monomials(e2):
    doc = {
        "degree": 0,
        "arities": {
            "2": [{"monomial": ["b", "a"], "value": [{"gen": "g", "coeff": "1"}]}]
        },
    }
    fam = cm.TaylorFamily.from_doc(doc, e2, e2)
    assert fam.coefficient(cm.monomial(e2, (0, 1))) == (-1) * e2.generator(2)


def family_row(names, gen, coeff):
    return {"monomial": names, "value": [{"gen": gen, "coeff": coeff}]}


ABEFG = cm.parse_algebra({"generators": [
    {"name": "a", "degree": 0}, {"name": "b", "degree": 0},
    {"name": "e", "degree": 1}, {"name": "f", "degree": 1}, {"name": "g", "degree": 2},
]})


@pytest.mark.parametrize(
    "arities, pointer",
    [
        ({"2": [family_row(["a", "b"], "a", "1"), family_row(["b", "a"], "a", "1")]},
         "/arities/2/1/monomial"),
        ({"2": [family_row(["e", "f"], "g", "1"), family_row(["f", "e"], "g", "-1")]},
         "/arities/2/1/monomial"),
        ({"2": [family_row(["a", "b"], "a", "1")], "02": [family_row(["a", "b"], "a", "1")]},
         "/arities/02/0/monomial"),
        # a word that repeats an odd generator is 0, and is stated once too
        ({"2": [family_row(["e", "e"], "g", "0")], "02": [family_row(["e", "e"], "g", "0")]},
         "/arities/02/0/monomial"),
    ],
    ids=["even-pair-both-orders", "odd-pair-consistent-signs", "arity-keys-2-and-02",
         "zero-word-twice"],
)
def test_taylor_family_doc_refuses_a_word_stated_twice(arities, pointer):
    # two rows of one word would be summed: f(a,b) = a stated twice reads 2a
    with pytest.raises(cm.SchemaError, match="monomial stated more than once") as err:
        cm.TaylorFamily.from_doc({"arities": arities}, ABEFG, ABEFG)
    assert err.value.witness == {"kind": "schema", "pointer": pointer}


@pytest.mark.parametrize(
    "arities, pointer",
    [
        ({"2": [family_row(["e", "e"], "g", "7")]}, "/arities/2/0/value"),
        # a zero value at a zero word is read, and the next row still checked
        ({"3": [family_row(["f", "e", "f"], "g", "0"), family_row(["e", "a", "e"], "b", "1/2")]},
         "/arities/3/1/value"),
    ],
    ids=["e-e-of-value-7g", "e-a-e-after-a-zero-row"],
)
def test_taylor_family_doc_refuses_a_value_at_a_zero_word(arities, pointer):
    # a row at a word that is 0 was dropped unread: e∧e = 7g was accepted
    with pytest.raises(cm.SchemaError, match="an odd generator repeats") as err:
        cm.TaylorFamily.from_doc({"arities": arities}, ABEFG, ABEFG)
    assert err.value.witness == {"kind": "schema", "pointer": pointer}


def test_taylor_family_doc_reads_a_zero_word_of_value_zero():
    doc = {"arities": {"2": [{"monomial": ["e", "e"], "value": []},
                             family_row(["e", "a"], "e", "1")],
                       "3": [family_row(["f", "a", "f"], "g", "0")]}}
    fam = cm.TaylorFamily.from_doc(doc, ABEFG, ABEFG)
    assert fam == cm.TaylorFamily.from_doc(
        {"arities": {"2": [family_row(["e", "a"], "e", "1")], "3": []}}, ABEFG, ABEFG)


def test_taylor_family_doc_round_trip(p8):
    rng = random.Random(23)
    fam = random_family(rng, p8, 0, 3)
    assert cm.TaylorFamily.from_doc(fam.to_doc(), p8, p8) == fam


def test_from_linear_map_round_trip(e2):
    m = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(2), 1: Fraction(1)},
                                 2: {2: Fraction(-1, 3)}})
    assert cm.TaylorFamily.from_linear_map(m).arity_one_map() == m


def test_smap_is_linear(p8):
    rng = random.Random(31)
    fam = random_family(rng, p8, 0, 3)
    D = cm.extend_coderivation(fam, CAP)
    u = random_selement(rng, p8, CAP)
    v = random_selement(rng, p8, CAP)
    assert D(u + 3 * v) == D(u) + 3 * D(v)


def test_smap_addition_rejects_degree_mismatch(e2, dg_family):
    D = cm.extend_coderivation(dg_family, CAP)
    ident = cm.SMap.identity(e2, CAP)
    with pytest.raises(cm.ValidationError):
        D + ident


def test_bracket_is_again_a_coderivation(p8):
    rng = random.Random(41)
    f1 = random_family(rng, p8, 0, 3)
    f2 = random_family(rng, p8, 0, 2)
    D1 = cm.extend_coderivation(f1, CAP)
    D2 = cm.extend_coderivation(f2, CAP)
    report = cm.check_coderivation(cm.bracket(D1, D2))
    assert report.ok, report.witness


def test_bracket_arity_one_matches_the_linear_bracket(e2, dg_family):
    euler = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)},
                                     2: {2: Fraction(2)}})
    E = cm.extend_coderivation(cm.TaylorFamily.from_linear_map(euler), CAP)
    D = cm.extend_coderivation(dg_family, CAP)
    br = cm.bracket(E, D)
    got = cm.extract_family(br, 1).arity_one_map()
    want = cm.linear_bracket(euler, dg_family.arity_one_map())
    assert got == want


def test_odd_self_bracket_doubles_the_square(e2, dg_family):
    D = cm.extend_coderivation(dg_family, CAP)
    assert cm.bracket(D, D).equal_up_to(2 * D.compose(D))
    assert D.compose(D).equal_up_to(
        cm.SMap(e2, e2, CAP, -2, lambda w: cm.SElement(e2, CAP))
    )


def test_comorphism_check_reports_the_first_witness(e2):
    ident = cm.SMap.identity(e2, CAP)

    def fn(w):
        if w == cm.monomial(e2, (0, 1)):
            return cm.SElement(e2, CAP)
        return ident.on_monomial(w)

    bad = cm.SMap(e2, e2, CAP, 0, fn)
    report = cm.check_comorphism(bad)
    assert not report.ok
    assert report.witness["monomial"] == ["a", "b"]
    assert report.checked == 4


def test_coderivation_check_reports_the_first_witness(e2):
    def fn(w):
        if w == cm.monomial(e2, (0,)):
            return cm.SElement(e2, CAP, {w: 1})
        return cm.SElement(e2, CAP)

    bad = cm.SMap(e2, e2, CAP, 0, fn)
    report = cm.check_coderivation(bad)
    assert not report.ok
    assert report.witness["monomial"] == ["a", "b"]


# one term off a seeded extension at the weight-3 word a∧b∧g of e2: the law,
# the degree, the term, and the SHA-256 of the failing report's JSON
BROKEN_LAWS = {
    "comorphism": (cm.extend_coalgebra_map, cm.check_comorphism, 0, (2, 2),
                   "c399b476d8181c9b1b9562db7b3c559c1fd72dcecc37b82f1f776687d6b9cb5f"),
    "co-Leibniz": (cm.extend_coderivation, cm.check_coderivation, -1, (0, 2),
                   "99776cf6662751db306e35ec0e8989defbb322f7ce1704aceb857889c6d1ba4a"),
}


@pytest.mark.parametrize("law", sorted(BROKEN_LAWS))
def test_a_broken_law_reports_the_oracle_witness(e2, law):
    """The checker reports the plain tensor walk's witness at the word where
    the law first breaks, its expected side included, down to the bytes."""
    extend, check, degree, term, digest = BROKEN_LAWS[law]
    lawful = extend(random_family(random.Random(11), e2, degree, 3), CAP)
    w = cm.monomial(e2, (0, 1, 2))
    bump = se(e2, CAP, term, Fraction(-3, 2))

    def fn(v):
        return lawful.on_monomial(v) + bump if v == w else lawful.on_monomial(v)

    op = cm.SMap(e2, e2, CAP, degree, fn)
    got, want = check(op).to_doc(), tensor_law_report(op, law).to_doc()
    assert got == want
    assert not got["ok"] and got["witness"]["monomial"] == ["a", "b", "g"]
    text = json.dumps(got, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_weight_one_identity_check(e2):
    assert cm.check_filtration_one_identity(cm.SMap.identity(e2, CAP)).ok
    report = cm.check_filtration_one_identity(2 * cm.SMap.identity(e2, CAP))
    assert not report.ok
    assert report.witness["monomial"] == ["a"]
    ident = cm.SMap.identity(e2, CAP)
    fixes_a_only = cm.SMap(
        e2, e2, CAP, 0, lambda w: (2 if w.indices == (1,) else 1) * ident.on_monomial(w)
    )
    # `checked` counts the walk up to and including the witness
    assert cm.check_filtration_one_identity(fixes_a_only).to_doc() == {
        "law": "weight-one identity",
        "ok": False,
        "checked": 2,
        "witness": {
            "monomial": ["b"],
            "lhs": [{"monomial": ["b"], "coeff": "2"}],
            "rhs": [{"monomial": ["b"], "coeff": "1"}],
        },
    }


def test_weight_one_identity_needs_an_endo_operator(e2, p4):
    op = cm.SMap(e2, p4, CAP, 0, lambda w: cm.SElement(p4, CAP))
    with pytest.raises(cm.ValidationError, match="operator shape mismatch"):
        cm.check_filtration_one_identity(op)


def test_triangular_inverse_round_trips(e2):
    ident = cm.SMap.identity(e2, CAP)
    bump = se(e2, CAP, (2,))

    def fn(w):
        out = ident.on_monomial(w)
        if w == cm.monomial(e2, (0, 1)):
            out = out + bump
        return out

    op = cm.SMap(e2, e2, CAP, 0, fn)
    inv = cm.triangular_inverse(op)
    assert op.compose(inv).equal_up_to(ident)
    assert inv.compose(op).equal_up_to(ident)


def test_triangular_inverse_rejects_weight_preserving_remainders(e2):
    inv = cm.triangular_inverse(2 * cm.SMap.identity(e2, CAP))
    with pytest.raises(cm.ValidationError):
        inv.on_monomial(cm.monomial(e2, (0,)))


def test_extension_degree_bookkeeping(e2, dg_family):
    assert cm.extend_coderivation(dg_family, CAP).degree == -1
