"""The moment/cumulant bijection, its inverses, and defect tables."""
import copy
import gc
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import cumalg as cm
from cumalg import coalgebra, morphisms, transfer

from conftest import (
    E2_DOC,
    E2_MAP_DOC,
    k2_doc,
    random_commutative_algebra,
    random_family,
    tensor_law_report,
)

CAP = 4


def se(basis, cap, indices, coeff=1):
    return cm.SElement(basis, cap, {cm.monomial(basis, indices): coeff})


@pytest.fixture(scope="session")
def e3():
    """Odd-friendly cousin: a (odd), g (even), t = a*g (odd)."""
    return cm.parse_algebra(
        {
            "generators": [
                {"name": "a", "degree": 1},
                {"name": "g", "degree": 2},
                {"name": "t", "degree": 3},
            ],
            "products": [
                {"left": "a", "right": "g", "value": [{"gen": "t", "coeff": "1"}]}
            ],
        }
    )


@pytest.fixture(scope="session")
def random_algebras():
    return [random_commutative_algebra(seed) for seed in (101, 202)]


def test_tau_multiplies_the_factors(e2, p8):
    assert cm.tau(e2, cm.monomial(e2, (0, 1))) == e2.generator(2)
    assert cm.tau(e2, cm.monomial(e2, (2,))) == e2.generator(2)
    assert cm.tau(e2, cm.monomial(e2, (0, 1, 2))).is_zero()
    assert cm.tau(p8, cm.monomial(p8, (0, 0, 0))) == p8.generator(2)


def test_tau_tilde_accumulates_blockwise_products(p8):
    ctx = cm.cumulant_context(p8, CAP)
    lifted = ctx.tau_tilde.on_monomial(cm.monomial(p8, (0, 1)))
    assert lifted == se(p8, CAP, (2,)) + se(p8, CAP, (0, 1))
    cubed = ctx.tau_tilde.on_monomial(cm.monomial(p8, (0, 0, 0)))
    assert cubed == se(p8, CAP, (2,)) + se(p8, CAP, (0, 1), 3) + se(p8, CAP, (0, 0, 0))


def test_tau_tilde_inverse_subtracts_the_product(p8):
    ctx = cm.cumulant_context(p8, CAP)
    got = ctx.tau_tilde_inverse.on_monomial(cm.monomial(p8, (0, 1)))
    assert got == se(p8, CAP, (0, 1)) - se(p8, CAP, (2,))


def test_tau_tilde_is_triangular(e2, p8, random_algebras):
    for alg in [e2, p8, *random_algebras]:
        ctx = cm.cumulant_context(alg, CAP)
        for w in cm.monomials_up_to(alg, CAP):
            lifted = ctx.tau_tilde.on_monomial(w)
            assert lifted.max_weight() == w.weight
            top = {u: c for u, c in lifted.terms.items() if u.weight == w.weight}
            assert cm.SElement(alg, CAP, top) == se(alg, CAP, w.indices)


def test_tau_tilde_fixes_weight_one(e2, p8):
    for alg in (e2, p8):
        ctx = cm.cumulant_context(alg, CAP)
        assert cm.check_filtration_one_identity(ctx.tau_tilde).ok
        assert cm.check_filtration_one_identity(ctx.tau_tilde_inverse).ok


def test_tau_tilde_satisfies_the_comorphism_law(e2, p8, random_algebras):
    for alg in [e2, p8, *random_algebras]:
        ctx = cm.cumulant_context(alg, CAP)
        report = tensor_law_report(ctx.tau_tilde, "comorphism")
        assert report.ok, report.witness


def test_tau_tilde_round_trips(e2, p8, random_algebras):
    for alg in [e2, p8, *random_algebras]:
        ctx = cm.cumulant_context(alg, CAP)
        both = ctx.tau_tilde_inverse.compose(ctx.tau_tilde)
        back = ctx.tau_tilde.compose(ctx.tau_tilde_inverse)
        ident = cm.SMap.identity(alg, CAP)
        assert both.equal_up_to(ident)
        assert back.equal_up_to(ident)


def test_series_route_agrees_with_the_partition_route(e2, p8, random_algebras):
    for alg in [e2, p8, *random_algebras]:
        ctx = cm.cumulant_context(alg, CAP)
        assert cm.tau_tilde_series(alg, CAP).equal_up_to(ctx.tau_tilde)


def test_factorial_coefficient_route_agrees_with_the_inverse(e2, p8, random_algebras):
    # the context's inverse extends the closed form too, over its own product
    # memo; back-substitution through tau_tilde is the independent route
    for alg in [e2, p8, *random_algebras]:
        ctx = cm.cumulant_context(alg, CAP)
        closed = cm.extend_coalgebra_map(cm.mobius_inverse_family(alg, CAP), CAP)
        assert closed.equal_up_to(ctx.tau_tilde_inverse)
        assert cm.triangular_inverse(ctx.tau_tilde).equal_up_to(ctx.tau_tilde_inverse)


def test_one_context_per_algebra_and_cap(p8):
    ctx = cm.cumulant_context(p8, CAP)
    assert cm.cumulant_context(p8, CAP) is ctx


def test_push_after_pull_is_the_identity(p8):
    f = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(i + 1)} for i in range(8)})
    bare = cm.extend_coalgebra_map(cm.TaylorFamily.from_linear_map(f), CAP)
    pulled = cm.conjugate(bare, "pull")
    assert cm.conjugate(pulled, "push").equal_up_to(bare)


def test_conjugation_rejects_unknown_directions(p8):
    ident = cm.SMap.identity(p8, CAP)
    with pytest.raises(cm.ValidationError):
        cm.conjugate(ident, "sideways")


def test_arity_one_defect_is_the_map_itself(p8):
    f = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(2)} for i in range(8)})
    assert cm.defect_family(f, "hom", CAP).tables[1] == cm.TaylorFamily.from_linear_map(f).tables[1]


def test_homomorphism_defects_vanish_exactly_for_homomorphisms(p8):
    good = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(2) ** (i + 1)} for i in range(8)})
    assert cm.vanishes_above_one(cm.defect_family(good, "hom", CAP))

    cols = {i: {i: Fraction(2) ** (i + 1)} for i in range(7)}
    cols[7] = {7: Fraction(1)}
    bad = cm.LinearMap(p8, p8, 0, cols)
    fam = cm.defect_family(bad, "hom", CAP)
    assert not cm.vanishes_above_one(fam)
    assert fam.tables.get(2, {})


def test_graded_homomorphism_defects_vanish(e2):
    f = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1), 1: Fraction(2)},
                                 1: {1: Fraction(1)}, 2: {2: Fraction(1)}})
    assert cm.vanishes_above_one(cm.defect_family(f, "hom", CAP))


def test_derivation_defects_vanish_exactly_for_derivations(p8):
    euler = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(i + 1)} for i in range(8)})
    assert cm.vanishes_above_one(cm.defect_family(euler, "der", CAP))

    tweaked = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(1)} for i in range(8)})
    fam = cm.defect_family(tweaked, "der", CAP)
    assert not cm.vanishes_above_one(fam)


def test_odd_derivation_defects_vanish(e3):
    # a -> g is a genuine odd derivation: every Leibniz instance lands on
    # a product that survives the truncation
    d = cm.LinearMap(e3, e3, 1, {0: {1: Fraction(1)}})
    assert cm.vanishes_above_one(cm.defect_family(d, "der", CAP))


def test_g2_table_matches_its_closed_form(p8, e2, random_algebras):
    rng = random.Random(55)
    cases = []
    f8 = cm.LinearMap(
        p8, p8, 0, {i: {i: Fraction(1), min(i + 1, 7): Fraction(1)} for i in range(8)}
    )
    cases.append((p8, f8))
    fe = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)},
                                  2: {2: Fraction(2)}})
    cases.append((e2, fe))
    for alg in random_algebras:
        cols = {
            i: {j: Fraction(rng.randint(-2, 2)) for j in range(3)} for i in range(3)
        }
        cases.append((alg, cm.LinearMap(alg, alg, 0, cols)))
    for alg, f in cases:
        table = cm.defect_family(f, "hom", CAP).tables.get(2, {})
        for w in cm.canonical_monomials(alg, 2):
            i, j = w.indices
            want = cm.g2_closed_form(f, alg, alg.generator(i), alg.generator(j))
            assert table.get(w, cm.Vector(alg)) == want


def test_g3_table_matches_its_closed_form(p8, e2):
    f8 = cm.LinearMap(
        p8, p8, 0, {i: {i: Fraction(1), min(i + 1, 7): Fraction(1)} for i in range(8)}
    )
    fe = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)},
                                  2: {2: Fraction(2)}})
    for alg, f in ((p8, f8), (e2, fe)):
        table = cm.defect_family(f, "hom", CAP).tables.get(3, {})
        for w in cm.canonical_monomials(alg, 3):
            i, j, k = w.indices
            want = cm.g3_closed_form(
                f, alg, alg.generator(i), alg.generator(j), alg.generator(k)
            )
            assert table.get(w, cm.Vector(alg)) == want


def test_h2_table_matches_its_closed_form(e2, e3):
    d_even = cm.LinearMap(e2, e2, 0, {2: {2: Fraction(1)}})
    d_odd = cm.LinearMap(e3, e3, -1, {2: {1: Fraction(1)}})
    for alg, d in ((e2, d_even), (e3, d_odd)):
        table = cm.defect_family(d, "der", CAP).tables.get(2, {})
        for w in cm.canonical_monomials(alg, 2):
            i, j = w.indices
            want = cm.h2_closed_form(d, alg, alg.generator(i), alg.generator(j))
            assert table.get(w, cm.Vector(alg)) == want


def test_h3_table_matches_its_closed_form(p8, e3):
    d8 = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(1)} for i in range(8)})
    d_odd = cm.LinearMap(e3, e3, -1, {2: {1: Fraction(1)}})
    for alg, d in ((p8, d8), (e3, d_odd)):
        table = cm.defect_family(d, "der", CAP).tables.get(3, {})
        for w in cm.canonical_monomials(alg, 3):
            i, j, k = w.indices
            want = cm.h3_closed_form(
                d, alg, alg.generator(i), alg.generator(j), alg.generator(k)
            )
            assert table.get(w, cm.Vector(alg)) == want


def test_closed_forms_refuse_inhomogeneous_arguments(e2):
    d = cm.LinearMap(e2, e2, 0, {2: {2: Fraction(1)}})
    a, g = e2.generator(0), e2.generator(2)
    with pytest.raises(cm.ValidationError, match="closed forms need homogeneous arguments"):
        cm.h2_closed_form(d, e2, a + g, a)


def test_seven_term_variant_parts_ways_with_the_computed_table(p8):
    euler = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(i + 1)} for i in range(8)})
    assert cm.defect_family(euler, "der", CAP).tables.get(3, {}) == {}
    mismatches = []
    for w in cm.canonical_monomials(p8, 3):
        i, j, k = w.indices
        variant = cm.h3_seven_term_variant(
            euler, p8, p8.generator(i), p8.generator(j), p8.generator(k)
        )
        if not variant.is_zero():
            mismatches.append(w)
    assert mismatches


def test_pull_conjugation_preserves_brackets(p8):
    rng = random.Random(77)
    D1 = cm.extend_coderivation(random_family(rng, p8, 0, 2), CAP)
    D2 = cm.extend_coderivation(random_family(rng, p8, 0, 3), CAP)
    lhs = cm.conjugate(cm.bracket(D1, D2), "pull")
    rhs = cm.bracket(cm.conjugate(D1, "pull"), cm.conjugate(D2, "pull"))
    assert lhs.equal_up_to(rhs, 3)


def test_push_conjugate_of_a_square_zero_operator_squares_to_zero(e2):
    d = cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    D = cm.extend_coderivation(cm.TaylorFamily.from_linear_map(d), CAP)
    pushed = cm.conjugate(D, "push")
    square = pushed.compose(pushed)
    for w in cm.monomials_up_to(e2, CAP):
        assert square.on_monomial(w).is_zero()


def test_defect_kind_and_degree_validation(e2, e3):
    d = cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    with pytest.raises(cm.ValidationError, match="homomorphism defects need a degree-zero map"):
        cm.defect_family(d, "hom", CAP)
    with pytest.raises(cm.ValidationError, match="unknown defect kind 'flux'"):
        cm.defect_family(d, "flux", CAP)
    across = cm.LinearMap(e2, e3, 0, {0: {0: Fraction(1)}, 2: {1: Fraction(1)}})
    with pytest.raises(cm.ValidationError, match="a coderivation needs source and target to agree"):
        cm.defect_family(across, "der", CAP)
    bare = cm.LinearMap.identity(cm.ChainComplex([("c", 0)]))
    with pytest.raises(cm.ValidationError, match="cumulant machinery needs a product table"):
        cm.defect_family(bare, "der", CAP)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_composite_of_derivations_has_defects_through_its_order(p8, power):
    """The Euler derivation x_k -> k x_k composed `power` times is an
    operator of order `power`: its der tables fill arities 1..power exactly."""
    euler = cm.LinearMap(p8, p8, 0, {i: {i: Fraction(i + 1) ** power} for i in range(8)})
    assert list(cm.defect_family(euler, "der", 5).tables) == list(range(1, power + 1))


# computed families over E2 and its map f, a new family on every call
COMPUTED = {
    "products": lambda A, f: cm.CumulantContext(A, CAP).products,
    "hom defects": lambda A, f: cm.defect_family(f, "hom", CAP),
    "der defects": lambda A, f: cm.defect_family(f, "der", CAP),
    "tau_family": lambda A, f: cm.tau_family(A, CAP),
}


@pytest.mark.parametrize("kind", sorted(COMPUTED))
def test_a_computed_family_answers_as_its_tables_do(kind):
    """Every view of a family given by a coefficient function, asked before
    anything is tabulated, equals that view of the family built from its
    tables; E2's odd generators sign the products."""
    A = cm.parse_algebra(E2_DOC)
    f = cm.parse_linear_map(E2_MAP_DOC, A, A)
    build = COMPUTED[kind]
    first = build(A, f)
    tabled = cm.TaylorFamily(first.source, first.target, first.degree, first.tables)
    assert build(A, f) == tabled and first == tabled
    assert build(A, f).to_doc() == tabled.to_doc()
    assert build(A, f).arity_one_map() == tabled.arity_one_map()
    assert list(build(A, f).tables) == list(tabled.tables)
    assert cm.vanishes_above_one(build(A, f)) == cm.vanishes_above_one(tabled)


def test_the_shared_products_are_the_n_fold_products():
    A = cm.parse_algebra(E2_DOC)
    products = cm.cumulant_context(A, CAP).products
    assert products.to_doc() == cm.tau_family(A, CAP).to_doc()
    assert list(products.tables) == [1, 2]


def test_defect_families_of_different_moments_differ():
    one, two = (
        cm.defect_family(cm.expectation_map(moments), "hom", 3)
        for moments in ([1, 2, 3], [5, 7, 11])
    )
    assert one != two
    assert one.arity_one_map() != two.arity_one_map()
    assert not cm.vanishes_above_one(one) and not cm.vanishes_above_one(two)


def test_accumulation_never_writes_into_shared_values(monkeypatch):
    """Sums accumulate in place, but only into fresh objects: product tables,
    family memos, each family's shared zero, cached operator images and the
    values a computed family memoizes (tau's products, the moments and the
    defect recursion, which sums into fresh vectors next to memoized ones)
    stay as they were handed out."""
    A = cm.parse_algebra(E2_DOC)
    f = cm.parse_linear_map(E2_MAP_DOC, A, A)
    t = cm.parse_transfer_input(k2_doc())
    bases = (A, t.retract.algebra, t.retract.complex)
    handed_out = []

    def keep(value):
        # bases compare by identity, so the copy must share them
        handed_out.append((value, copy.deepcopy(value, {id(b): b for b in bases})))

    def recording(extend):
        def record(family, cap):
            keep(dict(family._memo))  # the values memoized so far
            keep(family._zero)
            return extend(family, cap)
        return record

    # `cumulant` imports `extend_coalgebra_map` from `morphisms` where it calls it
    for module, name in (
        (morphisms, "extend_coalgebra_map"),
        (transfer, "extend_coalgebra_map"),
        (transfer, "extend_coderivation"),
    ):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    coefficient = cm.TaylorFamily.coefficient
    lazy = []

    def memoizing(family, w):
        # computed on first lookup, then handed out from the memo
        miss = family._fn is not None and w not in family._memo
        value = coefficient(family, w)
        if miss:
            keep(value)
            lazy.append(family)
        return value

    monkeypatch.setattr(cm.TaylorFamily, "coefficient", memoizing)
    on_monomial = cm.SMap.on_monomial

    def caching(op, w):
        miss = w not in op._cache
        image = on_monomial(op, w)
        if miss:
            keep(image)
        return image

    monkeypatch.setattr(cm.SMap, "on_monomial", caching)
    keep(A.products)
    keep(t.retract.algebra.products)

    ctx = cm.cumulant_context(A, CAP)
    keep(ctx.products._zero)
    ctx.tau_tilde.to_doc()
    ctx.tau_tilde_inverse.to_doc()
    cm.defect_family(f, "hom", cap=3).to_doc()
    cm.defect_family(f, "der", cap=3).to_doc()
    # tau's products at caps 4 and 3, the inverse's Moebius family, the
    # moments of "hom" and both recursions
    assert len({id(family) for family in lazy}) == 6
    assert cm.induced_cumulant_bijection(t, 5).ok

    assert len(handed_out) > 100
    for value, copied in handed_out:
        assert value == copied


def test_repeated_jobs_keep_live_memory_flat():
    """A context and its tau_tilde caches live as long as their presentation:
    re-parsing the same documents job after job holds no more memory."""

    def job():
        A = cm.parse_algebra(E2_DOC)
        f = cm.parse_linear_map(E2_MAP_DOC, A, A)
        ctx = cm.cumulant_context(A, CAP)
        ctx.tau_tilde.to_doc()
        ctx.tau_tilde_inverse.to_doc()
        cm.defect_family(f, "hom", cap=CAP).to_doc()
        cm.defect_family(f, "der", cap=CAP).to_doc()

    def live_after(rounds):
        for _ in range(rounds):
            job()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        first = live_after(1)  # fills the process-wide coproduct memo
        later = live_after(10)
    finally:
        tracemalloc.stop()
    assert later - first < 16 * 1024, (first, later)


def test_coproduct_memo_stays_within_its_bound(monkeypatch):
    """The split memo is shared by every job in a process and keyed by word
    shape (repetition pattern and factor parities), so 5050 distinct even
    weight-2 words leave two entries.  However many shapes a process splits,
    the memo keeps at most its bound, here lowered to 8 so that 30 shapes
    exceed it, and the latest shape still hits."""
    monkeypatch.setattr(coalgebra, "_coproduct_memo", {})
    words = [
        cm.WedgeMonomial(pair, (0, 0))
        for pair in itertools.combinations_with_replacement(range(100), 2)
    ]
    assert len(words) == 5050
    for w in words:
        cm.coproduct(w)
    assert len(coalgebra._coproduct_memo) <= 2

    monkeypatch.setattr(coalgebra, "COPRODUCT_MEMO_ENTRIES", 8)
    shapes = [
        cm.WedgeMonomial(tuple(range(n)), degrees)
        for n in range(1, 5)
        for degrees in itertools.product((0, 1), repeat=n)
    ]
    assert len(shapes) == 30
    for w in shapes:
        cm.coproduct(w)
        assert len(coalgebra._coproduct_memo) <= 8
    assert coalgebra.splits(shapes[-1]) is coalgebra.splits(shapes[-1])
