"""Property tests on random graded algebras with even and odd generators.

Each algebra is a tensor product of truncated polynomial algebras (one even
generator, whose powers repeat in wedge words) and exterior algebras (one
odd generator, which never repeats), with mixed degrees.
"""
import copy
import itertools
import json
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cumalg as cm
from cumalg import cli, coalgebra, tables
from cumalg.algebra import Rational, exact
from cumalg.coalgebra import (
    WedgeMonomial,
    _sort_sign,
    _split_table,
    repetition_pattern,
    splits,
)
from cumalg.morphisms import _wedge_in

from conftest import (
    associativity_reference,
    change_of_basis,
    defect_operator,
    random_selement,
    random_vector,
    rational_change_of_basis,
    reference_inverse,
    split_rows,
    subset_coproduct,
    tensor_law_report,
)

# (degree, top power): an even degree gives a truncated polynomial factor,
# an odd degree an exterior factor (top power 1)
factor = st.one_of(
    st.tuples(st.sampled_from([0, 2, -2]), st.integers(1, 3)),
    st.tuples(st.sampled_from([1, -1, 3]), st.just(1)),
)


def exponents(factors):
    """Exponent vectors of the nonunit monomials of a tensor product."""
    return [e for e in itertools.product(*(range(top + 1) for _, top in factors)) if any(e)]


def tensor_algebra(factors):
    """The tensor product of the factors, on the basis of its nonunit
    monomials g1^a1 ... gk^ak; products add exponents, vanish past a top
    power, and pick up the Koszul sign of moving odd generators past each
    other."""
    basis = exponents(factors)
    degrees = [sum(a * d for a, (d, _) in zip(e, factors)) for e in basis]
    names = ["".join(f"g{i}^{a}" for i, a in enumerate(e) if a) for e in basis]
    index = {e: n for n, e in enumerate(basis)}
    products = {}
    for (i, u), (j, v) in itertools.product(enumerate(basis), repeat=2):
        w = tuple(a + b for a, b in zip(u, v))
        if any(c > top for c, (_, top) in zip(w, factors)):
            continue
        crossings = sum(
            u[p] * v[q] * factors[p][0] * factors[q][0]
            for p in range(len(factors)) for q in range(p)
        )
        products[(i, j)] = {index[w]: -1 if crossings % 2 else 1}
    return cm.AlgebraPresentation(list(zip(names, degrees)), products)


factor_lists = st.lists(factor, min_size=1, max_size=3).filter(
    lambda fs: 2 <= len(exponents(fs)) <= 7
)
algebras = factor_lists.map(tensor_algebra)
# at least one odd generator, so that Koszul signs are exercised
odd_algebras = factor_lists.filter(lambda fs: any(d % 2 for d, _ in fs)).map(
    tensor_algebra
)


def random_family(seed, basis, degree, arities):
    """Random homogeneous coefficients of the given degree on the given
    arities only."""
    rng = random.Random(seed)
    tables = {}
    for arity in arities:
        table = {}
        for mono in cm.canonical_monomials(basis, arity):
            value = random_vector(rng, basis, mono.degree + degree)
            if not value.is_zero():
                table[mono] = value
        tables[arity] = table
    return cm.TaylorFamily(basis, basis, degree, tables)


def both_ways(tabulated, k):
    """A tabulated family and the same coefficients as a function, computed
    up to weight k only (zero past it)."""
    A = tabulated.source
    return tabulated, cm.TaylorFamily(A, A, tabulated.degree, cap=k, fn=tabulated.coefficient)


def block_sign(w, blocks):
    """Koszul sign of listing the factors of w block by block."""
    order = [p for block in blocks for p in block]
    moved = [order.index(p) for p in range(w.weight)]
    return cm.koszul_sign(w.factor_degrees, moved)


def partition_sum(family, w, cap):
    """The coalgebra-map extension at w as a plain signed sum over all set
    partitions of its factor positions."""
    out = cm.SElement(family.target, cap)
    for blocks in cm.set_partitions(w.weight):
        piece = None
        for block in blocks:
            value = family.evaluate(tuple(w.indices[p] for p in block))
            if value.is_zero():
                piece = None
                break
            head = cm.SElement.from_vector(value, cap)
            piece = head if piece is None else cm.wedge(piece, head)
        if piece is None:
            continue
        out = out + block_sign(w, blocks) * piece
    return out


def subset_sum(family, w, cap):
    """The coderivation extension at w as a plain signed sum over every
    nonempty subset of its factor positions: the subset is moved to the
    front and evaluated, and the complement is wedged back on."""
    basis = family.source
    out = cm.SElement(basis, cap)
    positions = range(w.weight)
    for size in range(1, w.weight + 1):
        for subset in itertools.combinations(positions, size):
            value = family.evaluate(tuple(w.indices[p] for p in subset))
            if value.is_zero():
                continue
            piece = cm.SElement.from_vector(value, cap)
            complement = tuple(p for p in positions if p not in subset)
            if complement:
                tail = cm.monomial(basis, tuple(w.indices[p] for p in complement))
                piece = cm.wedge(piece, cm.SElement(basis, cap, {tail: 1}))
            out = out + block_sign(w, (subset, complement)) * piece
    return out


def integer_map(seed, basis):
    """A random degree-zero endomorphism with integer entries."""
    rng = random.Random(seed)
    columns = {
        i: {j: rng.randint(-3, 3) for j, e in enumerate(basis.degrees) if e == d}
        for i, d in enumerate(basis.degrees)
    }
    return cm.LinearMap(basis, basis, 0, columns)


def coefficients(op, cap):
    """Every coefficient of an operator's images up to the cap."""
    for w in cm.monomials_up_to(op.source, cap):
        yield from op.on_monomial(w).terms.values()


CAP = 4


@settings(max_examples=40, deadline=None)
@given(
    algebras,
    st.integers(0, 2**32),
    st.sets(st.integers(1, CAP), min_size=1),
    st.integers(1, CAP),
)
def test_orbit_sums_equal_the_plain_partition_sum(A, seed, arities, k):
    for family in both_ways(random_family(seed, A, 0, sorted(arities)), k):
        op = cm.extend_coalgebra_map(family, CAP)
        for w in cm.monomials_up_to(A, CAP):
            assert op.on_monomial(w) == partition_sum(family, w, CAP), w


@settings(max_examples=60, deadline=None)
@given(st.lists(factor, min_size=1, max_size=4).filter(lambda fs: sum(m for _, m in fs) <= 8))
def test_coproduct_equals_the_plain_subset_split(runs):
    # a word of runs of equal factors: an even factor repeats up to three
    # times, an odd one never
    indices = tuple(k for k, (_, m) in enumerate(runs) for _ in range(m))
    w = cm.WedgeMonomial(indices, tuple(runs[k][0] for k in indices))
    got, want = cm.coproduct(w), subset_coproduct(w)
    assert got == want


# a word of runs of equal factors, as in the test above, whose indices may
# skip between runs; up to weight 5, so that words of one weight and
# different shapes often meet in one list
run_words = st.lists(
    st.tuples(factor, st.integers(1, 2)), min_size=1, max_size=4,
).filter(lambda runs: sum(m for (_, m), _ in runs) <= 5)


def run_word(runs):
    indices, degrees, k = [], [], 0
    for (degree, m), step in runs:
        k += step
        indices += [k] * m
        degrees += [degree] * m
    return WedgeMonomial(tuple(indices), tuple(degrees))


@settings(max_examples=100, deadline=None)
@given(st.lists(run_words.map(run_word), min_size=1, max_size=16))
def test_split_memo_gives_each_word_shape_its_own_table(words):
    """`splits` keys its memo by which neighbouring indices are equal and
    by the parities; whichever words entered it first, each word gets the
    table of its own repetition pattern and parities."""
    coalgebra._coproduct_memo.clear()
    for _ in range(2):  # the first round fills the memo, the second reads it
        for w in words:
            parities = tuple(d % 2 for d in w[1])
            want = _split_table(repetition_pattern(w[0]), parities)
            assert split_rows(splits(w), w.weight) == split_rows(want, w.weight), w


@settings(max_examples=40, deadline=None)
@given(odd_algebras, st.integers(0, 2**32))
def test_weight_one_insertion_equals_wedge(A, seed):
    rng = random.Random(seed)
    odd = next(i for i, d in enumerate(A.degrees) if d % 2)
    # the odd generator on both sides: those terms must vanish
    lead = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
    value = cm.Vector(A, {**random_vector(rng, A).terms, odd: lead})
    below = random_selement(rng, A, CAP - 1, density=0.5)
    tail = cm.SElement(A, CAP, below.terms) + cm.SElement(A, CAP, {cm.monomial(A, (odd,)): 1})
    scale = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    got = cm.SElement(A, CAP)
    _wedge_in(got, value, tail.terms.items(), scale)
    assert got == scale * cm.wedge(cm.SElement.from_vector(value, CAP), tail)


@settings(max_examples=30, deadline=None)
@given(odd_algebras, st.integers(0, 2**32))
def test_weight_one_insertion_read_from_the_memo_equals_wedge(A, seed):
    """A second `_wedge_in` of the same terms reads every insertion from the
    memo the first one filled on the basis, signs and zeros included, and
    still equals `wedge`, after a rational change of basis."""
    B = rational_change_of_basis(A, seed)
    rng = random.Random(seed)
    odd = [i for i, d in enumerate(B.degrees) if d % 2]
    # the last odd generator passes the first one in the tail (a sign) and
    # meets itself there (a zero)
    value = cm.Vector(B, {**random_vector(rng, B).terms, odd[-1]: Fraction(-3, 2)})
    lone = cm.SElement(B, CAP, {cm.monomial(B, (i,)): 1 for i in (odd[0], odd[-1])})
    tail = cm.SElement(B, CAP, random_selement(rng, B, CAP - 1, density=0.5).terms) + lone
    want = cm.wedge(cm.SElement.from_vector(value, CAP), tail)
    for _ in range(2):
        got = cm.SElement(B, CAP)
        _wedge_in(got, value, tail.terms.items())
        assert got == want
    assert all(set(value.terms) <= set(B.insertions[t]) for t in tail.terms)


@pytest.mark.parametrize("degree", [-1, 0, 1])
@settings(max_examples=25, deadline=None)
@given(
    odd_algebras,
    st.integers(0, 2**32),
    st.sets(st.integers(1, CAP), min_size=1),
    st.integers(1, CAP),
)
def test_coderivation_extension_equals_the_plain_subset_sum(degree, A, seed, arities, k):
    for family in both_ways(random_family(seed, A, degree, sorted(arities)), k):
        op = cm.extend_coderivation(family, CAP)
        for w in cm.monomials_up_to(A, CAP):
            assert op.on_monomial(w) == subset_sum(family, w, CAP), w


@settings(max_examples=40, deadline=None)
@given(algebras, st.integers(1, CAP))
def test_lazy_tau_tilde_equals_the_tabulated_extension(A, cap):
    lazy = cm.cumulant_context(A, cap).tau_tilde
    tabulated = cm.extend_coalgebra_map(cm.tau_family(A, cap), cap)
    assert lazy.equal_up_to(tabulated)


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32))
def test_integer_structure_constants_never_leave_int(A, seed):
    # tau_tilde, its inverse, the Moebius closed form, back-substitution
    # through tau_tilde and the defects of an integer map never divide, so
    # every coefficient stays an exact int
    ctx = cm.cumulant_context(A, CAP)
    mobius = cm.extend_coalgebra_map(cm.mobius_inverse_family(A, CAP), CAP)
    triangular = cm.triangular_inverse(ctx.tau_tilde)
    assert triangular.equal_up_to(ctx.tau_tilde_inverse)
    for op in (ctx.tau_tilde, ctx.tau_tilde_inverse, mobius, triangular):
        for c in coefficients(op, CAP):
            assert type(c) is int, c
    defects = cm.defect_family(integer_map(seed, A), "hom", CAP)
    for table in defects.tables.values():
        for value in table.values():
            for c in value.terms.values():
                assert type(c) is int, c


def bilinear_sum(A, u, v):
    """u·v term by term through `add_term`: the reference for the sparse
    product kernel."""
    out = cm.Vector(A)
    for i, cu in u.terms.items():
        for j, cv in v.terms.items():
            for k, x in A.products[i][j].terms.items():
                out.add_term(k, cu * cv * x)
    return out


def cancelling_pair(A):
    """Some u = a·e_i + b·e_j and e_k whose product loses a key t that both
    e_i·e_k and e_j·e_k hold, or None."""
    n = len(A)
    for i, j, k in itertools.permutations(range(n), 3):
        shared = A.products[i][k].terms.keys() & A.products[j][k].terms.keys()
        if shared:
            t = min(shared)
            a, b = A.products[j][k].terms[t], -A.products[i][k].terms[t]
            return cm.Vector(A, {i: a, j: b}), A.generator(k), t
    return None


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32))
def test_multiply_equals_the_plain_bilinear_sum(A, seed):
    B = rational_change_of_basis(A, seed)
    rng = random.Random(seed)
    pairs = [(random_vector(rng, B), random_vector(rng, B)) for _ in range(10)]
    cancelling = cancelling_pair(B)
    if cancelling is not None:
        u, v, t = cancelling
        assert t not in B.multiply(u, v).terms
        pairs.append((u, v))
    for u, v in pairs:
        got = B.multiply(u, v)
        assert got == bilinear_sum(B, u, v)
        assert all(c != 0 for c in got.terms.values())


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32), st.integers(1, CAP))
def test_tau_tilde_after_a_rational_change_of_basis_equals_the_series(A, seed, cap):
    B = rational_change_of_basis(A, seed)
    lazy = cm.cumulant_context(B, cap).tau_tilde
    assert lazy.equal_up_to(cm.tau_tilde_series(B, cap))


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32), st.integers(1, CAP))
def test_inverse_after_a_rational_change_of_basis_equals_back_substitution(A, seed, cap):
    # the Moebius extension over the context's product memo, which builds no
    # tau_tilde, against the triangular inverse of tau_tilde, on dense
    # rational structure constants
    ctx = cm.cumulant_context(rational_change_of_basis(A, seed), cap)
    ctx.tau_tilde_inverse.to_doc()
    assert ctx._tau_tilde is None
    assert ctx.tau_tilde_inverse.equal_up_to(cm.triangular_inverse(ctx.tau_tilde))


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32), st.integers(1, CAP), st.booleans())
def test_context_products_equal_the_left_to_right_tau(A, seed, cap, longest_first):
    """A context reads tau(w) as the memoized tau of w without its last
    factor times that factor, one product per word; `tau` multiplies left to
    right with fresh generators.  Both give the same vectors, whichever
    words are asked for first."""
    B = rational_change_of_basis(A, seed)
    words = list(cm.monomials_up_to(B, cap))
    expected = {w: cm.tau(B, w) for w in words}
    multiply, products = B.multiply, []
    B.multiply = lambda u, v: products.append((u, v)) or multiply(u, v)
    family = cm.CumulantContext(B, cap).products
    for w in reversed(words) if longest_first else words:
        assert family.coefficient(w) == expected[w]
    assert len(products) <= sum(w.weight > 1 for w in words)


def perturbed(op, rng):
    """op plus one random term at one random word: a monomial whose degree is
    the word's shifted by op's degree, with a nonzero coefficient.  Returns
    op itself when no monomial has that degree."""
    words = list(cm.monomials_up_to(op.source, op.cap))
    w = rng.choice(words)
    fits = [u for u in words if u.degree == w.degree + op.degree]
    if not fits:
        return op
    coeff = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
    term = cm.SElement(op.target, op.cap, {rng.choice(fits): coeff})

    def fn(v):
        return op.on_monomial(v) + term if v == w else op.on_monomial(v)

    return cm.SMap(op.source, op.target, op.cap, op.degree, fn)


LAWS = {
    "comorphism": (cm.extend_coalgebra_map, cm.check_comorphism),
    "co-Leibniz": (cm.extend_coderivation, cm.check_coderivation),
}


@pytest.mark.parametrize("law", sorted(LAWS))
@settings(max_examples=30, deadline=None)
@given(
    odd_algebras,
    st.integers(0, 2**32),
    st.sets(st.integers(1, 3), min_size=1),
    st.sampled_from([-1, 0, 1]),
    st.booleans(),
)
def test_law_checks_agree_with_the_tensor_oracle(law, A, seed, arities, degree, perturb):
    extend, check = LAWS[law]
    if law == "comorphism":
        degree = 0
    op = extend(random_family(seed, A, degree, sorted(arities)), 3)
    if perturb:
        op = perturbed(op, random.Random(seed))
    got, want = check(op), tensor_law_report(op, law)
    assert (got.ok, got.checked, got.witness) == (want.ok, want.checked, want.witness)


@pytest.mark.parametrize("law", sorted(LAWS))
def test_law_checks_refuse_weight_one_values_off_the_stated_degree(law):
    # a degree-one value at a weight-one word of an operator stated to have
    # degree 0: no law is checked, and the error names the stated degree
    A = tensor_algebra([(1, 1), (0, 2)])
    odd = A.degrees.index(1)
    off = cm.SElement.from_vector(A.generator(odd), 3)
    op = cm.SMap(A, A, 3, 0, lambda w: off if w.weight == 1 else cm.SElement(A, 3))
    with pytest.raises(cm.ValidationError, match=f"{law} check of an operator of degree 0"):
        LAWS[law][1](op)


@pytest.mark.parametrize("law", sorted(LAWS))
def test_law_checks_refuse_an_off_degree_value_ahead_of_a_broken_law(law):
    # the weight-two values break the law, and the weight-one part at a
    # weight-three word is off the stated degree: the whole corestriction is
    # checked before any law, so the refusal wins over the earlier failure
    A = tensor_algebra([(1, 1), (0, 2)])
    odd, even = A.degrees.index(1), A.degrees.index(0)
    off = cm.monomial(A, (even,) * 3)  # of degree 0

    def fn(w):
        out = cm.SElement(A, 3, {w: 3 if w.weight == 2 else 1})
        if w == off:
            out.terms[cm.monomial(A, (odd,))] = 1
        return out

    op = cm.SMap(A, A, 3, 0, fn)
    broken = tensor_law_report(op, law)
    assert not broken.ok and len(broken.witness["monomial"]) == 2
    with pytest.raises(cm.ValidationError, match=f"{law} check of an operator of degree 0"):
        LAWS[law][1](op)


def random_map(seed, basis, degree):
    """A random linear endomorphism of the given degree, rational entries."""
    rng = random.Random(seed)
    columns = {
        i: random_vector(rng, basis, d + degree).terms for i, d in enumerate(basis.degrees)
    }
    return cm.LinearMap(basis, basis, degree, columns)


def multigrading(B, M, factors, scale):
    """The map e -> scale(e)·e on the monomial basis of
    `tensor_algebra(factors)`, e being an exponent vector, written in the
    basis f_i = sum_r M[r][i] e_r of B (`change_of_basis`): column i solves
    M·x = (M[r][i]·scale(e_r))_r."""
    scales = [scale(e) for e in exponents(factors)]
    n = len(scales)
    columns = {}
    for i in range(n):
        coords = cm.solve(M, [M[r][i] * scales[r] for r in range(n)])
        columns[i] = {k: c for k, c in enumerate(coords) if c}
    return cm.LinearMap(B, B, 0, columns)


def weighing(lam):
    """e -> λ·e, the exponents weighed by one λ_i per factor."""
    return lambda e: sum(l * a for l, a in zip(lam, e))


@pytest.mark.parametrize("order", [1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(factor_lists, st.integers(0, 2**32))
def test_composite_of_multigrading_derivations_has_defects_through_its_order(
        order, factors, seed):
    # e -> (λ·e)·e is a derivation for every λ; a composite of `order` of
    # them, with every λ_i >= 1, has der tables at 1..order exactly, up to
    # the longest word with a nonzero product: its arity-n value at
    # x_1 ∧ ... ∧ x_n is x_1···x_n times a sum, over the maps of the order
    # factors onto the n words, of positive weights
    B, M = change_of_basis(tensor_algebra(factors), seed)
    rng = random.Random(seed)
    d = cm.LinearMap.identity(B)
    for _ in range(order):
        d = d.compose(multigrading(B, M, factors, weighing([rng.randint(1, 3) for _ in factors])))
    longest = sum(top for _, top in factors)
    assert list(cm.defect_family(d, "der", CAP).tables) == list(range(1, min(order, longest) + 1))


@settings(max_examples=20, deadline=None)
@given(factor_lists, st.integers(0, 2**32))
def test_multigrading_scaling_is_a_homomorphism(factors, seed):
    B, M = change_of_basis(tensor_algebra(factors), seed)
    weight = weighing([random.Random(seed).randint(-3, 3) for _ in factors])
    scaling = multigrading(B, M, factors, lambda e: Fraction(2) ** weight(e))
    assert list(cm.defect_family(scaling, "hom", CAP).tables) == [1]


@pytest.mark.parametrize("kind, degree", [("hom", 0), ("der", -1), ("der", 0), ("der", 1)])
@settings(max_examples=25, deadline=None)
@given(odd_algebras, st.integers(0, 2**32), st.integers(2, CAP))
def test_defect_tables_equal_the_corestricted_conjugate(kind, degree, A, seed, cap):
    B = rational_change_of_basis(A, seed)
    m = random_map(seed, B, degree)
    family = cm.defect_family(m, kind, cap)
    assert family == cm.extract_family(defect_operator(m, kind, cap), cap)
    fresh = cm.defect_family(m, kind, cap)
    for w in cm.monomials_up_to(m.source, cap):
        assert fresh.coefficient(w) == family.coefficient(w)


@pytest.mark.parametrize("direction", ["pull", "push"])
@settings(max_examples=10, deadline=None)
@given(algebras, st.integers(0, 2**32), st.sampled_from([-1, 0, 1]))
def test_conjugation_preserves_brackets_after_a_change_of_basis(direction, A, seed, degree):
    B = rational_change_of_basis(A, seed)
    D1 = cm.extend_coderivation(random_family(seed, B, 0, [1, 2]), 3)
    D2 = cm.extend_coderivation(random_family(seed + 1, B, degree, [1, 2, 3]), 3)
    lhs = cm.conjugate(cm.bracket(D1, D2), direction)
    rhs = cm.bracket(cm.conjugate(D1, direction), cm.conjugate(D2, direction))
    assert lhs.equal_up_to(rhs)


@pytest.mark.parametrize("direction", ["pull", "push"])
@settings(max_examples=10, deadline=None)
@given(algebras, st.integers(0, 2**32))
def test_conjugate_of_a_square_zero_coderivation_squares_to_zero(direction, A, seed):
    # d of odd degree δ sends the generators of one degree k into those of
    # degree k + δ and every other generator to 0, so d∘d = 0 and its
    # coderivation squares to 0
    B = rational_change_of_basis(A, seed)
    rng = random.Random(seed)
    degrees = sorted(set(B.degrees))
    shifts = [(k, delta) for delta in (-1, 1) for k in degrees if k + delta in degrees]
    assume(shifts)
    k, delta = rng.choice(shifts)
    columns = {i: random_vector(rng, B, k + delta).terms for i, e in enumerate(B.degrees) if e == k}
    assume(any(columns.values()))
    d = cm.LinearMap(B, B, delta, columns)
    D = cm.extend_coderivation(cm.TaylorFamily.from_linear_map(d), 3)
    conjugated = cm.conjugate(D, direction)
    square = conjugated.compose(conjugated)
    for w in cm.monomials_up_to(B, 3):
        assert square.on_monomial(w).is_zero()


def square_zero_algebra(factors):
    """One generator per factor, of its degree, and every product 0: a sum
    of two of its degrees is one of them only when it equals one."""
    return cm.AlgebraPresentation([(f"a{p}", d) for p, (d, _) in enumerate(factors)], {})


@settings(max_examples=25, deadline=None)
@given(factor_lists, st.integers(0, 2**32), st.integers(2, CAP))
# source degrees {1}, target degrees {1, 2}: g(a0∧a1) = -f(a0)f(a1) is of a
# degree only the target has
@example([(1, 1), (1, 1)], 1, 3)
@example([(2, 3)], 1, 3)
def test_hom_defects_into_a_target_with_degrees_the_source_lacks(factors, seed, cap):
    A = square_zero_algebra(factors)
    B = rational_change_of_basis(tensor_algebra(factors), seed)
    rng = random.Random(seed)
    f = cm.LinearMap(A, B, 0, {p: random_vector(rng, B, d).terms for p, d in enumerate(A.degrees)})
    family = cm.defect_family(f, "hom", cap)
    assert family == cm.extract_family(defect_operator(f, "hom", cap), cap)
    x = A.generators()
    for w in cm.canonical_monomials(A, 2):
        assert family.coefficient(w) == cm.g2_closed_form(f, A, *(x[i] for i in w.indices))
    for w in cm.canonical_monomials(A, 3) if cap >= 3 else ():
        assert family.coefficient(w) == cm.g3_closed_form(f, A, *(x[i] for i in w.indices))


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_canonical_monomials_equal_the_filtered_combinations(A):
    # weights 0 to 5, past the number of generators too (2 to 7 of them)
    for weight in range(6):
        want = []
        for combo in itertools.combinations_with_replacement(range(len(A)), weight):
            degrees = tuple(A.degrees[i] for i in combo)
            if _sort_sign(combo, degrees) is not None:
                want.append(WedgeMonomial(combo, degrees))
        got = cm.canonical_monomials(A, weight)
        assert got == want and all(type(w) is WedgeMonomial for w in got)
    assert list(cm.monomials_up_to(A, 5)) == [
        w for weight in range(1, 6) for w in cm.canonical_monomials(A, weight)
    ]


def perturbed_table(A, i, j, k, c):
    """A's product table as term dicts, with c·e_k added to e_i·e_j and its
    graded reflection to e_j·e_i, so that homogeneity (|k| = |i| + |j|) and
    graded commutativity still hold."""
    table = [[dict(value.terms) for value in row] for row in A.products]
    table[i][j][k] = table[i][j].get(k, 0) + c
    if i != j:
        table[j][i][k] = table[j][i].get(k, 0) + cm.parity_sign(A.degrees[i], A.degrees[j]) * c
    return table


def assert_refused_with_the_reference_witness(A, table):
    """The presentation of `table` is refused with the reference's first
    failing triple as its witness, or accepted when there is none; returns
    that triple."""
    want = associativity_reference(A.names, table)
    products = {(i, j): terms for i, row in enumerate(table) for j, terms in enumerate(row)}
    generators = list(zip(A.names, A.degrees))
    if want is None:
        cm.AlgebraPresentation(generators, products)
    else:
        with pytest.raises(cm.ValidationError) as err:
            cm.AlgebraPresentation(generators, products)
        assert err.value.witness == {"kind": "associativity", "triple": want}
    return want


@settings(max_examples=40, deadline=None)
@given(algebras, st.integers(0, 2**32))
def test_associativity_check_refuses_with_the_reference_witness(A, seed):
    rng = random.Random(seed)
    n, degrees = len(A), A.degrees
    entries = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)
               if degrees[k] == degrees[i] + degrees[j] and not (i == j and degrees[i] % 2)]
    assume(entries)
    c = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    assert_refused_with_the_reference_witness(A, perturbed_table(A, *rng.choice(entries), c))


def test_associativity_witness_whose_pair_degree_no_generator_has():
    # g1 of degree -2, g0 of degree 2 and g0·g1 of degree 0; g1·(g0·g1) gains
    # a g1 term, so (g1·g1)·g0 = 0 differs from g1·(g1·g0) = g1·(g0·g1)
    A = tensor_algebra([(2, 1), (-2, 1)])
    assert A.names == ("g1^1", "g0^1", "g0^1g1^1")
    want = assert_refused_with_the_reference_witness(A, perturbed_table(A, 0, 2, 0, 1))
    assert want == ["g1^1", "g1^1", "g0^1"]
    assert -4 not in A.degree_set  # the degree of the pair g1·g1


# the operands of exact arithmetic: ints (zero and negatives among them),
# plain Fractions, integral ones too, and Rationals
rationals = st.fractions().filter(lambda q: q.denominator != 1).map(exact)
operands = st.one_of(st.integers(-(10**20), 10**20), st.fractions(), rationals)
OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def assert_same_scalar(got, want):
    """`got` is the exact scalar of the Fraction `want`: equal, with equal
    hash and str, an int exactly when integral and a Rational otherwise, and
    so after copy, deepcopy and a pickle round trip."""
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert type(got) is (int if want.denominator == 1 else Rational)
    for again in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
        assert again == got and type(again) is type(got)


@settings(max_examples=400, deadline=None)
@given(rationals, operands, st.sampled_from(sorted(OPERATIONS)), st.booleans())
def test_rational_arithmetic_is_fraction_arithmetic(q, other, op, rational_left):
    # with a plain Fraction on the left, only the subclass rule, which tries
    # Rational's reflected method first, makes the result an int or a Rational
    left, right = (q, other) if rational_left else (other, q)
    assert_same_scalar(OPERATIONS[op](left, right), OPERATIONS[op](Fraction(left), Fraction(right)))
    assert_same_scalar(-q, -Fraction(q))


# Rationals made with the constructor, which may be integral
constructed = st.fractions().map(Rational)


@settings(max_examples=400, deadline=None)
@given(st.one_of(rationals, constructed), st.one_of(operands, constructed))
@example(Rational(4, 2), 2)
@example(Rational(4, 2), Fraction(2))
@example(Rational(-3, 1), -3)
@example(Rational(0), 0)
def test_rational_equality_and_hash_are_fraction_equality_and_hash(q, other):
    """`==` and `!=` of a Rational with an int, a Fraction or a Rational, in
    either order, and its hash, agree with Fraction's, so dict and set
    lookups find the same entries."""
    want = Fraction(q) == Fraction(other)
    assert (q == other) is want and (other == q) is want
    assert (q != other) is (not want) and (other != q) is (not want)
    assert hash(q) == hash(Fraction(q))
    assert ({other: "x"}.get(q) == "x") is want and ({q: "x"}.get(other) == "x") is want
    assert (q in {other}) is want and (other in {q}) is want


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32))
def test_rational_coefficients_never_fall_back_to_plain_fractions(A, seed):
    # after a rational change of basis, every coefficient that tau_tilde, its
    # inverse, both defect recursions and a comorphism check memoize is an
    # int or a Rational: no hot loop runs on Fraction's own arithmetic
    B = rational_change_of_basis(A, seed)
    ctx = cm.cumulant_context(B, CAP)
    operators = [ctx.tau_tilde, ctx.tau_tilde_inverse]
    for op in operators:
        for _ in coefficients(op, CAP):
            pass
    families = [ctx.products] + [
        cm.defect_family(random_map(seed, B, 0), kind, CAP) for kind in ("hom", "der")
    ]
    for family in families:
        family.tables  # computes every value up to the cap
    extension = cm.extend_coalgebra_map(random_family(seed, B, 0, range(1, CAP + 1)), CAP)
    assert cm.check_comorphism(extension).ok
    memos = [op._cache for op in operators + [extension]] + [f._memo for f in families]
    kinds = {type(c) for memo in memos for value in memo.values() for c in value.terms.values()}
    assert kinds <= {int, Rational}, kinds


def assert_written_as(value, doc):
    """The JSON writer gives json.dumps of `doc` for a report value holding
    table nodes, also nested."""
    assert cli._json_text(value) == json.dumps(doc, sort_keys=True, indent=2)
    nested = {"report": [value, {"again": value}]}
    assert cli._json_text(nested) == json.dumps(
        {"report": [doc, {"again": doc}]}, sort_keys=True, indent=2
    )


def arity_tables(family):
    """A family's nonzero values as one table node per arity, keyed by the
    arity as a string."""
    rows = {}
    for w in cm.monomials_up_to(family.source, max(family.tables, default=1)):
        if family.coefficient(w).terms:
            rows.setdefault(str(w.weight), []).append((w, family.coefficient(w)))
    return {key: tables._Table(family.source, family.target, table) for key, table in rows.items()}


def operator_rows(op, cap):
    return [(w, op.on_monomial(w)) for w in cm.monomials_up_to(op.source, cap)]


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32), st.integers(1, 3))
def test_table_rows_are_written_as_their_doc(A, seed, cap):
    # tau_tilde, its inverse and an operator that vanishes in weight one,
    # whose rows hold zero values, as `SMap.to_doc`; defect tables by arity
    # as the "arities" of `TaylorFamily.to_doc`
    B = rational_change_of_basis(A, seed)
    ctx = cm.cumulant_context(B, cap)
    tau = ctx.tau_tilde
    shifted = cm.SMap(B, B, cap, 0, lambda w: tau.on_monomial(w) - cm.SElement(B, cap, {w: 1}))
    for op in (ctx.tau_tilde, ctx.tau_tilde_inverse, shifted):
        assert_written_as(tables._Table(B, B, operator_rows(op, cap)), op.to_doc())
    for kind in ("hom", "der"):
        family = cm.defect_family(random_map(seed, B, 0), kind, cap)
        assert_written_as(arity_tables(family), family.to_doc()["arities"])
    assert_written_as(tables._Table(B, B, []), [])


def test_table_rows_escape_names_and_sort_arity_keys_as_strings():
    # a quote, a backslash and non-ASCII names
    A = cm.AlgebraPresentation(
        [('q"1', 1), ("b\\s", 1), ("\u00e9\u2603", 2)], {(0, 1): {2: 1}, (1, 0): {2: -1}}
    )
    ctx = cm.cumulant_context(A, 3)
    for op in (ctx.tau_tilde, ctx.tau_tilde_inverse):
        assert_written_as(tables._Table(A, A, operator_rows(op, 3)), op.to_doc())
    # two moments at cap 10 have defect tables at arities 1..10: "10" sorts
    # before "2"
    family = cm.defect_family(cm.expectation_map([Fraction(1, 2), Fraction(2, 3)]), "hom", 10)
    assert "10" in family.to_doc()["arities"]
    assert_written_as(arity_tables(family), family.to_doc()["arities"])


def near_identity(basis, cap, seed, bad=frozenset()):
    """An operator w -> w + random lower-weight terms with rational
    coefficients.  At a word of `bad` it is not triangular: the coefficient
    of w is 0, 2 or 1/2, or a term of w's weight joins in; its lower terms
    come first either way."""
    def fn(w):
        rng = random.Random(f"{seed}:{w!r}")
        terms = {
            u: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            for u in cm.monomials_up_to(basis, w.weight - 1) if rng.random() < 0.4
        }
        if w in bad:
            same = [u for u in cm.canonical_monomials(basis, w.weight) if u != w]
            fault = rng.choice(["drop", 2, Fraction(1, 2)] + (["same"] if same else []))
            if fault == "same":
                terms[rng.choice(same)] = 1
                terms[w] = 1
            elif fault != "drop":
                terms[w] = fault
        else:
            terms[w] = 1
        return cm.SElement(basis, cap, terms)

    return cm.SMap(basis, basis, cap, 0, fn)


def inverse_at(inverse, w):
    """The inverse's value at w, or the message of its refusal."""
    try:
        return inverse.on_monomial(w)
    except cm.ValidationError as err:
        return str(err)


@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32), st.integers(1, CAP))
def test_triangular_inverse_equals_the_whole_element_recursion(A, seed, cap):
    B = rational_change_of_basis(A, seed)
    op = near_identity(B, cap, seed)
    inverse, reference = cm.triangular_inverse(op), reference_inverse(op)
    words = list(cm.monomials_up_to(B, cap))
    random.Random(seed).shuffle(words)
    for w in words:
        assert inverse.on_monomial(w) == reference.on_monomial(w)
    assert inverse.compose(op).equal_up_to(cm.SMap.identity(B, cap))


@pytest.mark.parametrize("density", [0.3, 1.0], ids=["some-words", "every-word"])
@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32), st.integers(2, CAP))
def test_triangular_inverse_refuses_with_the_reference_witness(density, A, seed, cap):
    # each word is asked for first, heaviest words first, of fresh operators:
    # the refusal names the word whose own remainder is at fault, not a
    # lower one that its remainder reaches
    rng = random.Random(seed)
    words = list(cm.monomials_up_to(A, cap))
    bad = frozenset(w for w in words if rng.random() < density)
    for w in reversed(words):
        op = near_identity(A, cap, seed, bad)
        got = inverse_at(cm.triangular_inverse(op), w)
        assert got == inverse_at(reference_inverse(op), w)
        if w in bad:
            assert got == f"triangular inverse: operator is not triangular at {w.names(A)}"


@pytest.mark.parametrize("degree", [-1, 0, 1])
@settings(max_examples=20, deadline=None)
@given(algebras, st.integers(0, 2**32))
# two odd generators x, y with x·y·d(x) != 0, which tells y·x from x·y
@example(tensor_algebra([(1, 1), (1, 1), (0, 1)]), 1)
@example(tensor_algebra([(1, 1), (3, 1), (2, 1)]), 1)
def test_arity3_comparison_rows_equal_the_seven_term_variant(degree, A, seed):
    B = rational_change_of_basis(A, seed)
    d = random_map(seed, B, degree)
    family = cm.defect_family(d, "der", 3)
    comparison = tables._arity3_comparison(d, family)
    table = comparison["rows"]
    monomials = cm.canonical_monomials(B, 3)
    assert [row[0] for row in table.rows] == monomials
    rows = []
    for w in monomials:
        variant = cm.h3_seven_term_variant(d, B, *(B.generator(i) for i in w.indices))
        rows.append({"monomial": w.names(B), "computed": family.coefficient(w).to_doc(),
                     "match": family.coefficient(w) == variant, "variant": variant.to_doc()})
    assert_written_as(table, rows)
    assert comparison["variant_matches_everywhere"] == all(row["match"] for row in rows)


@pytest.mark.parametrize("degree", [-1, 0, 1])
@settings(max_examples=40, deadline=None)
@given(algebras, st.integers(1, 5))
# degrees 2, -2 and 0: a word's degree can leave the window and come back
@example(tensor_algebra([(2, 1), (-2, 1)]), 5)
@example(tensor_algebra([(1, 1), (-1, 1), (2, 2)]), 5)
def test_tables_compute_the_window_words_in_canonical_order(degree, A, cap):
    asked = []

    def fn(w):
        asked.append(w)
        return cm.Vector(A)

    assert cm.TaylorFamily(A, A, degree, cap=cap, fn=fn).tables == {}
    window = {e - degree for e in A.degrees}
    assert asked == [w for w in cm.monomials_up_to(A, cap) if w.degree in window]


@pytest.mark.parametrize("kind, degree", [("hom", 0), ("der", -1), ("der", 0), ("der", 1)])
@settings(max_examples=25, deadline=None)
@given(algebras, st.integers(0, 2**32))
def test_arity3_defects_equal_their_closed_forms(kind, degree, A, seed):
    B = rational_change_of_basis(A, seed)
    m = random_map(seed, B, degree)
    family = cm.defect_family(m, kind, 3)
    closed_form = cm.g3_closed_form if kind == "hom" else cm.h3_closed_form
    x = B.generators()
    for triple in itertools.product(range(len(B)), repeat=3):
        want = closed_form(m, B, *(x[i] for i in triple))
        assert family.evaluate(triple) == want, [B.names[i] for i in triple]
