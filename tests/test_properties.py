"""Property tests on random graded algebras with even and odd generators.

Each algebra is a tensor product of truncated polynomial algebras (one even
generator, whose powers repeat in wedge words) and exterior algebras (one
odd generator, which never repeats), with mixed degrees.
"""
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import cumalg as cm

from conftest import random_vector

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


algebras = st.lists(factor, min_size=1, max_size=3).filter(
    lambda fs: 2 <= len(exponents(fs)) <= 7
).map(tensor_algebra)


def random_degree_zero_family(seed, basis, arities):
    """Random homogeneous coefficients on the given arities only."""
    rng = random.Random(seed)
    tables = {}
    for arity in arities:
        table = {}
        for mono in cm.canonical_monomials(basis, arity):
            value = random_vector(rng, basis, mono.degree)
            if not value.is_zero():
                table[mono] = value
        tables[arity] = table
    return cm.TaylorFamily(basis, basis, 0, tables)


def partition_sum(family, w, cap):
    """The coalgebra-map extension at w as a plain signed sum over all set
    partitions of its factor positions."""
    out = cm.SElement.zero(family.target, cap)
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
        order = [p for block in blocks for p in block]
        moved = [order.index(p) for p in range(w.weight)]
        out = out + cm.koszul_sign(w.factor_degrees, moved) * piece
    return out


CAP = 4


@settings(max_examples=40, deadline=None)
@given(
    algebras,
    st.integers(0, 2**32),
    st.sets(st.integers(1, CAP), min_size=1),
)
def test_orbit_sums_equal_the_plain_partition_sum(A, seed, arities):
    family = random_degree_zero_family(seed, A, sorted(arities))
    op = cm.extend_coalgebra_map(family, CAP)
    for w in cm.monomials_up_to(A, CAP):
        assert op.on_monomial(w) == partition_sum(family, w, CAP), w


@settings(max_examples=40, deadline=None)
@given(algebras, st.integers(1, CAP))
def test_lazy_tau_tilde_equals_the_tabulated_extension(A, cap):
    lazy = cm.cumulant_context(A, cap).tau_tilde
    tabulated = cm.extend_coalgebra_map(cm.tau_family(A, cap), cap)
    assert lazy.first_difference(tabulated) is None
