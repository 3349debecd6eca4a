"""Shared fixtures: small graded algebras, a retract, and seeded randomness."""
import itertools
import random
from fractions import Fraction

import pytest

import cumalg as cm
from cumalg.algebra import LinearCombination
from cumalg.coalgebra import _rearrangement_sign, coproduct
from cumalg.morphisms import _tensor_doc

E2_DOC = {
    "generators": [
        {"name": "a", "degree": 1},
        {"name": "b", "degree": 1},
        {"name": "g", "degree": 2},
    ],
    "products": [
        {"left": "a", "right": "b", "value": [{"gen": "g", "coeff": "1"}]}
    ],
}


# a degree-zero endomorphism of e2 that is neither a homomorphism nor a
# derivation, so both kinds of defect table have rows above arity one
E2_MAP_DOC = {
    "source": E2_DOC,
    "degree": 0,
    "entries": [
        {"gen": "a", "value": [{"gen": "a", "coeff": "2"}, {"gen": "b", "coeff": "1"}]},
        {"gen": "b", "value": [{"gen": "b", "coeff": "3"}]},
        {"gen": "g", "value": [{"gen": "g", "coeff": "1"}]},
    ],
}


def p_algebra(n):
    """Truncated polynomial algebra: x1..xn, all even, products cut past xn."""
    return cm.truncated_polynomial_algebra(n)


@pytest.fixture(scope="session")
def e2():
    return cm.parse_algebra(E2_DOC)


@pytest.fixture(scope="session")
def p8():
    return p_algebra(8)


@pytest.fixture(scope="session")
def p4():
    return p_algebra(4)


def k2_pieces():
    """The retract fixture: a three-dimensional algebra squeezed onto a point.

    A is spanned by c, b = c*c and a with d(b) = a; C keeps only c.  The
    homotopy is forced to s(a) = -b by the homotopy identity.
    """
    A = cm.parse_algebra(K2_ALGEBRA_DOC)
    C = cm.ChainComplex([("c", 0)])
    d = cm.LinearMap(A, A, -1, {1: {2: Fraction(1)}})
    inc = cm.LinearMap(C, A, 0, {0: {0: Fraction(1)}})
    prj = cm.LinearMap(A, C, 0, {0: {0: Fraction(1)}})
    s = cm.LinearMap(A, A, 1, {2: {1: Fraction(-1)}})
    return cm.RetractData(A, d, C, inc, prj, s)


@pytest.fixture(scope="session")
def k2():
    return k2_pieces()


@pytest.fixture(scope="session")
def k2_transfer(k2):
    """Transfer input for the retract: d-infinity vanishes, iota gets the
    weight-2 correction that makes the differentials intertwine."""
    C, A = k2.complex, k2.algebra
    iota = cm.TaylorFamily(
        C,
        A,
        0,
        {
            1: {cm.monomial(C, (0,)): A.generator(0)},
            2: {cm.monomial(C, (0, 0)): (-1) * A.generator(1)},
        },
    )
    d_inf = cm.TaylorFamily(C, C, -1, {})
    return cm.TransferInput(k2, d_inf, iota)


K2_ALGEBRA_DOC = {
    "generators": [
        {"name": "c", "degree": 0},
        {"name": "b", "degree": 0},
        {"name": "a", "degree": -1},
    ],
    "products": [
        {"left": "c", "right": "c", "value": [{"gen": "b", "coeff": "1"}]}
    ],
}


def k2_doc():
    """The retract fixture as a transfer document, mirroring the fixtures."""
    return {
        "retract": {
            "algebra": K2_ALGEBRA_DOC,
            "complex": {"generators": [{"name": "c", "degree": 0}]},
            "d": {"degree": -1,
                  "entries": [{"gen": "b", "value": [{"gen": "a", "coeff": "1"}]}]},
            "i": {"degree": 0,
                  "entries": [{"gen": "c", "value": [{"gen": "c", "coeff": "1"}]}]},
            "I": {"degree": 0,
                  "entries": [{"gen": "c", "value": [{"gen": "c", "coeff": "1"}]}]},
            "s": {"degree": 1,
                  "entries": [{"gen": "a", "value": [{"gen": "b", "coeff": "-1"}]}]},
        },
        "d_infinity": {"degree": -1, "arities": {}},
        "iota": {
            "degree": 0,
            "arities": {
                "1": [{"monomial": ["c"], "value": [{"gen": "c", "coeff": "1"}]}],
                "2": [{"monomial": ["c", "c"],
                       "value": [{"gen": "b", "coeff": "-1"}]}],
            },
        },
    }


def _matrix_inverse(m):
    n = len(m)
    cols = []
    for k in range(n):
        rhs = [Fraction(int(i == k)) for i in range(n)]
        x = cm.solve([list(row) for row in m], rhs)
        if x is None:
            return None
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def random_commutative_algebra(seed):
    """A 3-generator commutative associative algebra in a scrambled basis.

    Transports the truncated polynomial product through a random invertible
    rational change of basis; the presentation validator re-checks the laws.
    """
    rng = random.Random(seed)
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        minv = _matrix_inverse(m)
        if minv is not None:
            break
    products = {}
    for i in range(3):
        for j in range(3):
            u = [minv[r][i] for r in range(3)]
            v = [minv[r][j] for r in range(3)]
            w = [Fraction(0)] * 3
            for a in range(3):
                for b in range(3):
                    k = a + b + 1
                    if k < 3:
                        w[k] += u[a] * v[b]
            res = [sum(m[r][s] * w[s] for s in range(3)) for r in range(3)]
            entry = {r: res[r] for r in range(3) if res[r] != 0}
            if entry:
                products[(i, j)] = entry
    return cm.AlgebraPresentation([(f"e{k}", 0) for k in (1, 2, 3)], products)


def random_vector(rng, basis, degree=None):
    coeffs = {}
    for i, d in enumerate(basis.degrees):
        if degree is not None and d != degree:
            continue
        if rng.random() < 0.6:
            coeffs[i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return cm.Vector(basis, coeffs)


def random_selement(rng, basis, cap, density=0.3):
    terms = {}
    for w in cm.monomials_up_to(basis, cap):
        if rng.random() < density:
            terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return cm.SElement(basis, cap, terms)


def random_family(rng, basis, degree, max_arity):
    """A degree-homogeneous random coefficient family over one basis."""
    tables = {}
    for arity in range(1, max_arity + 1):
        table = {}
        for mono in cm.canonical_monomials(basis, arity):
            v = random_vector(rng, basis, mono.degree + degree)
            if not v.is_zero():
                table[mono] = v
        if table:
            tables[arity] = table
    return cm.TaylorFamily(basis, basis, degree, tables)


def subset_coproduct(mono):
    """The reduced coproduct the plain way, as `coproduct`'s oracle: one
    signed term per nonempty proper subset of positions, merged on equal
    pairs of parts."""
    out = LinearCombination()
    n = mono.weight
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            complement = tuple(p for p in range(n) if p not in subset)
            sign = _rearrangement_sign(mono, (subset, complement))
            out.add_term((mono.part(subset), mono.part(complement)), sign)
    return out


def _apply_left(op, pairs):
    """(op⊗1) on a tensor-pair sum."""
    out = LinearCombination()
    for (l, r), c in pairs.terms.items():
        for wl, cl in op.on_monomial(l).terms.items():
            out.add_term((wl, r), c * cl)
    return out


def _apply_right(op, pairs):
    """(1⊗op) on a tensor-pair sum, with the sign of moving op past l."""
    out = LinearCombination()
    for (l, r), c in pairs.terms.items():
        sign = cm.parity_sign(op.degree, l.degree)
        for wr, cr in op.on_monomial(r).terms.items():
            out.add_term((l, wr), sign * c * cr)
    return out


def _apply_either(op, pairs):
    """(op⊗1 + 1⊗op) on a tensor-pair sum."""
    return _apply_left(op, pairs).accumulate(_apply_right(op, pairs))


def _apply_both(op, pairs):
    """(op⊗op) on a tensor-pair sum."""
    out = LinearCombination()
    for (l, r), c in pairs.terms.items():
        left = op.on_monomial(l)
        right = op.on_monomial(r)
        for wl, cl in left.terms.items():
            for wr, cr in right.terms.items():
                out.add_term((wl, wr), c * cl * cr)
    return out


def tensor_law_report(op, kind):
    """The coproduct law checked the plain way, as the checkers' oracle: at
    every monomial w up to the cap, Δ̄(op(w)) against (op⊗op)Δ̄(w) for kind
    "comorphism" or (op⊗1 + 1⊗op)Δ̄(w) for kind "co-Leibniz", as tensor-pair
    sums.  Same report as `check_comorphism`/`check_coderivation`."""
    rhs = {"comorphism": _apply_both, "co-Leibniz": _apply_either}[kind]
    memo = {}

    def split(u):
        # each word's Δ̄ is built once; sums only read it
        pairs = memo.get(u)
        if pairs is None:
            pairs = memo[u] = coproduct(u)
        return pairs

    checked = 0
    for w in cm.monomials_up_to(op.source, op.cap):
        checked += 1
        lhs = LinearCombination()
        for u, c in op.on_monomial(w).terms.items():
            lhs.accumulate(split(u), c)
        expected = rhs(op, split(w))
        if lhs != expected:
            witness = {
                "monomial": w.names(op.source),
                "lhs": _tensor_doc(lhs, op.target, op.target),
                "rhs": _tensor_doc(expected, op.target, op.target),
            }
            return cm.CheckReport(kind, False, checked, witness)
    return cm.CheckReport(kind, True, checked)


def defect_operator(m, kind, cap):
    """The defect tables' reference route: the pull conjugate τ̃⁻¹∘bare∘τ̃ of
    the bare extension of a linear map, as a coalgebra map (kind "hom") or a
    coderivation (kind "der").  Its Taylor coefficients are what
    `defect_family` computes by the moment–cumulant recursion."""
    family = cm.TaylorFamily.from_linear_map(m)
    extend = {"hom": cm.extend_coalgebra_map, "der": cm.extend_coderivation}[kind]
    return cm.conjugate(extend(family, cap), "pull")
