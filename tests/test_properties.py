"""Property tests on random graded algebras with even and odd generators.

Each algebra is a tensor product of truncated polynomial algebras (one even
generator, whose powers repeat in wedge words) and exterior algebras (one
odd generator, which never repeats), with mixed degrees.
"""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cumalg as cm
from cumalg.coalgebra import _wedge_in, coefficient_table
from cumalg.cumulant import defect_coefficients

from conftest import (
    defect_operator,
    random_selement,
    random_vector,
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


def rational_change_of_basis(A, seed):
    """A in the basis f_i = sum_r M[r][i] e_r, for a random upper triangular
    rational M with nonzero diagonal that mixes only equal degrees."""
    rng = random.Random(seed)
    n = len(A)
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        for r in range(i):
            if A.degrees[r] == A.degrees[i]:
                M[r][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    products = {}
    for i, j in itertools.product(range(n), repeat=2):
        value = cm.Vector(A)
        for r, s in itertools.product(range(n), repeat=2):
            if M[r][i] and M[s][j]:
                value.accumulate(A.products[r][s], M[r][i] * M[s][j])
        coords = cm.solve(M, [value.get(k) for k in range(n)])
        products[(i, j)] = {k: c for k, c in enumerate(coords) if c}
    return cm.AlgebraPresentation(
        [(f"f{i}", d) for i, d in enumerate(A.degrees)], products
    )


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
)
def test_orbit_sums_equal_the_plain_partition_sum(A, seed, arities):
    family = random_family(seed, A, 0, sorted(arities))
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


@pytest.mark.parametrize("degree", [-1, 0, 1])
@settings(max_examples=25, deadline=None)
@given(
    odd_algebras,
    st.integers(0, 2**32),
    st.sets(st.integers(1, CAP), min_size=1),
)
def test_coderivation_extension_equals_the_plain_subset_sum(degree, A, seed, arities):
    family = random_family(seed, A, degree, sorted(arities))
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
    # tau_tilde, its inverse, the Moebius closed form and the defects of an
    # integer map never divide, so every coefficient stays an exact int
    ctx = cm.cumulant_context(A, CAP)
    mobius = cm.extend_coalgebra_map(cm.mobius_inverse_family(A, CAP), CAP)
    for op in (ctx.tau_tilde, ctx.tau_tilde_inverse, mobius):
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


def random_map(seed, basis, degree):
    """A random linear endomorphism of the given degree, rational entries."""
    rng = random.Random(seed)
    columns = {
        i: random_vector(rng, basis, d + degree).terms for i, d in enumerate(basis.degrees)
    }
    return cm.LinearMap(basis, basis, degree, columns)


def multigrading(A, factors, scale):
    """The diagonal map e -> scale(e)·e on the monomial basis of
    `tensor_algebra(factors)`, e being an exponent vector."""
    return cm.LinearMap(A, A, 0, {n: {n: scale(e)} for n, e in enumerate(exponents(factors))})


def weighing(lam):
    """e -> λ·e, the exponents weighed by one λ_i per factor."""
    return lambda e: sum(l * a for l, a in zip(lam, e))


ORDER_FACTORS = [(0, 3), (1, 1), (2, 2)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_composite_of_multigrading_derivations_has_defects_through_its_order(order):
    # e -> (λ·e)·e is a derivation for every λ; a composite of `order` of
    # them is an operator of that order, with der tables at 1..order exactly
    A = tensor_algebra(ORDER_FACTORS)
    rng = random.Random(order)
    weights = [[rng.randint(1, 3) for _ in ORDER_FACTORS] for _ in range(order)]
    d = cm.LinearMap.identity(A)
    for lam in weights:
        d = d.compose(multigrading(A, ORDER_FACTORS, weighing(lam)))
    assert cm.defect_family(d, "der", CAP).arities() == list(range(1, order + 1))


def test_multigrading_scaling_is_a_homomorphism():
    A = tensor_algebra(ORDER_FACTORS)
    weight = weighing((1, 2, 3))
    scaling = multigrading(A, ORDER_FACTORS, lambda e: 2 ** weight(e))
    assert cm.defect_family(scaling, "hom", CAP).arities() == [1]


@pytest.mark.parametrize("kind, degree", [("hom", 0), ("der", -1), ("der", 0), ("der", 1)])
@settings(max_examples=25, deadline=None)
@given(odd_algebras, st.integers(0, 2**32), st.integers(2, CAP))
def test_defect_tables_equal_the_corestricted_conjugate(kind, degree, A, seed, cap):
    B = rational_change_of_basis(A, seed)
    m = random_map(seed, B, degree)
    family = cm.defect_family(m, kind, cap)
    assert family == cm.extract_family(defect_operator(m, kind, cap), cap)
    for n in range(1, cap + 1):
        table = coefficient_table(m.source, n, defect_coefficients(m, kind, cap).coefficient)
        assert table == family.tables.get(n, {})
