"""Independent routes that no command runs: the tests' and the benchmark's
oracles.

Each recomputes, by a different road, something a command computes: the
Koszul sign of an explicit permutation and the Sweedler iterates of the
coproduct, tau_tilde as the coproduct series and its inverse as the
coalgebra-map extension of the Möbius family, the low-arity defects in
closed form (and a plausible but wrong seven-term variant, which `defects`
reports next to the computed arity-3 table), graded commutators of
operators and of linear maps, and an exact linear solve.  No command
imports this module, so a CLI process never compiles it.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import (
    AlgebraPresentation,
    LinearCombination,
    LinearMap,
    ValidationError,
    Vector,
    exact,
    parity_sign,
)
from .coalgebra import SElement, TaylorFamily, WedgeMonomial, _sort_sign, wedge
from .cumulant import cumulant_context, tau
from .linalg import _echelon
from .morphisms import SMap


def koszul_sign(degrees, permutation) -> int:
    """Sign picked up when graded factors are rearranged.

    `permutation[i]` is the position factor i moves to; each pair of factors
    that crosses contributes (-1)^(d_i*d_j).
    """
    n = len(permutation)
    if sorted(permutation) != list(range(n)) or len(degrees) != n:
        raise ValidationError("malformed permutation")
    return _sort_sign(permutation, degrees)


def _ordered_splits(positions, k):
    """Ordered partitions of `positions` (a tuple) into k nonempty blocks."""
    if k == 1:
        yield (positions,)
        return
    n = len(positions)
    # first block is any nonempty subset leaving enough elements behind
    for size in range(1, n - k + 2):
        for block in itertools.combinations(positions, size):
            rest = tuple(p for p in positions if p not in set(block))
            for tail in _ordered_splits(rest, k - 1):
                yield (block,) + tail


def _rearrangement_sign(mono: WedgeMonomial, degrees, blocks) -> int:
    """Koszul sign of listing the factors block by block, `degrees` being
    the generators' degrees: the sign of sorting the listed positions back
    into order."""
    order = [p for block in blocks for p in block]
    return _sort_sign(order, [degrees[mono[p]] for p in order])


def iterated_coproduct(w: WedgeMonomial, basis, k: int):
    """Sweedler iterate: signed k-tuples of monomials splitting w over `basis`.

    k = 1 is the identity; k = weight(w) lists all factor orderings.  The
    result is normalized (duplicate tuples accumulate) and independent of
    the parenthesization used to compute it.
    """
    if not 1 <= k <= w.weight:
        raise ValidationError(f"iterate count {k} out of range for weight {w.weight}")
    acc = LinearCombination()
    for blocks in _ordered_splits(tuple(range(w.weight)), k):
        parts = tuple(w.part(block) for block in blocks)
        acc.add_term(parts, _rearrangement_sign(w, basis.degrees, blocks))
    return sorted(
        ((c, parts) for parts, c in acc.terms.items()),
        key=lambda item: tuple(p.sort_key() for p in item[1]),
    )


def tau_tilde_series(algebra: AlgebraPresentation, cap: int) -> SMap:
    """Independent route to tau_tilde: the exponential-style series.

    Sums, over k, the k-fold coproduct with tau applied to every block and
    the blocks wedged back together, divided by k! because ordered splits
    overcount each unordered partition once per block ordering.
    """
    ctx = cumulant_context(algebra, cap)

    def fn(w: WedgeMonomial) -> SElement:
        out = SElement(algebra, cap)
        for k in range(1, w.weight + 1):
            scale = exact(Fraction(1, math.factorial(k)))
            for coeff, parts in iterated_coproduct(w, algebra, k):
                piece = None
                for part in parts:
                    value = tau(algebra, part)
                    if value.is_zero():
                        piece = None
                        break
                    head = SElement.from_vector(value, cap)
                    piece = head if piece is None else wedge(piece, head)
                if piece is not None:
                    out.accumulate(piece, scale * coeff)
        return out

    return SMap(algebra, algebra, ctx.cap, 0, fn, "series")


def mobius_inverse_family(algebra: AlgebraPresentation, max_arity: int) -> TaylorFamily:
    """Taylor coefficients of the inverse bijection in closed form.

    The arity-n coefficient is (-1)^(n-1) (n-1)! times the n-fold product;
    extending it as a coalgebra map gives a second, recursion-free route to
    the inverse.
    """
    def coefficient(mono: WedgeMonomial) -> Vector:
        n = mono.weight
        return (-1) ** (n - 1) * math.factorial(n - 1) * tau(algebra, mono)

    return TaylorFamily(algebra, algebra, 0, cap=max_arity, fn=coefficient)


def _deg(v: Vector) -> int:
    """The degree of a homogeneous vector, 0 for the zero vector."""
    degs = {v.basis.degrees[i] for i in v.terms}
    if len(degs) > 1:
        raise ValidationError("closed forms need homogeneous arguments")
    return degs.pop() if degs else 0


def g2_closed_form(f: LinearMap, A: AlgebraPresentation, x: Vector, y: Vector) -> Vector:
    """f(xy) - f(x)f(y), the arity-2 homomorphism defect."""
    return f.apply(A.multiply(x, y)) - f.target.multiply(f.apply(x), f.apply(y))


def g3_closed_form(f: LinearMap, A: AlgebraPresentation,
                   x: Vector, y: Vector, z: Vector) -> Vector:
    """The arity-3 homomorphism defect in closed form.

    f(xyz) - f(xy)f(z) - e1 f(xz)f(y) - e2 f(yz)f(x) + 2 f(x)f(y)f(z), with
    e1, e2 the Koszul signs of pulling z (resp. y and z) past y (resp. x).
    """
    e1 = parity_sign(_deg(y), _deg(z))
    e2 = parity_sign(_deg(x), _deg(y) + _deg(z))
    m = f.target.multiply

    xyz = A.multiply(A.multiply(x, y), z)
    return (
        f.apply(xyz)
        - m(f.apply(A.multiply(x, y)), f.apply(z))
        - e1 * m(f.apply(A.multiply(x, z)), f.apply(y))
        - e2 * m(f.apply(A.multiply(y, z)), f.apply(x))
        + 2 * m(m(f.apply(x), f.apply(y)), f.apply(z))
    )


def h2_closed_form(d: LinearMap, A: AlgebraPresentation, x: Vector, y: Vector) -> Vector:
    """d(xy) - d(x)y - (-1)^(|d||x|) x d(y), the arity-2 derivation defect."""
    sx = parity_sign(d.degree, _deg(x))
    return (
        d.apply(A.multiply(x, y))
        - A.multiply(d.apply(x), y)
        - sx * A.multiply(x, d.apply(y))
    )


def h3_closed_form(d: LinearMap, A: AlgebraPresentation,
                   x: Vector, y: Vector, z: Vector) -> Vector:
    """The arity-3 derivation defect in closed form (ten Koszul-signed terms)."""

    m = A.multiply
    dx, dy, dz = d.apply(x), d.apply(y), d.apply(z)
    e1 = parity_sign(_deg(y), _deg(z))
    e2 = parity_sign(_deg(x), _deg(y) + _deg(z))
    sx = parity_sign(d.degree, _deg(x))
    sxy = parity_sign(d.degree, _deg(x) + _deg(y))
    sxz = parity_sign(d.degree, _deg(x) + _deg(z))
    syz = parity_sign(d.degree, _deg(y) + _deg(z))
    xyz = m(m(x, y), z)
    return (
        d.apply(xyz)
        - m(d.apply(m(x, y)), z) - sxy * m(m(x, y), dz)
        - e1 * (m(d.apply(m(x, z)), y) + sxz * m(m(x, z), dy))
        - e2 * (m(d.apply(m(y, z)), x) + syz * m(m(y, z), dx))
        + 2 * (m(m(dx, y), z) + sx * m(m(x, dy), z) + sxy * m(m(x, y), dz))
    )


def h3_seven_term_variant(d: LinearMap, A: AlgebraPresentation,
                          x: Vector, y: Vector, z: Vector) -> Vector:
    """A circulating seven-term candidate for the arity-3 derivation defect.

    Looks plausible but garbles one factor (y·x·d(x) where y·z·d(x) belongs),
    so it fails on genuine derivations; kept so reports can show exactly
    where it and the computed table part ways.
    """

    m = A.multiply

    return (
        d.apply(m(m(x, y), z))
        - m(d.apply(m(x, y)), z)
        + m(m(x, y), d.apply(z))
        - m(d.apply(m(y, z)), x)
        + m(m(y, x), d.apply(x))
        - m(d.apply(m(z, x)), y)
        + m(m(z, x), d.apply(y))
    )


def bracket(d1: SMap, d2: SMap) -> SMap:
    """Graded commutator d1∘d2 - (-1)^(|d1||d2|) d2∘d1."""
    first, second = d1.compose(d2), d2.compose(d1)
    first._check_peer(second)
    sign = parity_sign(d1.degree, d2.degree)

    def fn(w):
        return first.on_monomial(w) - sign * second.on_monomial(w)

    return SMap(first.source, first.target, first.cap, first.degree, fn)


def linear_bracket(m1: LinearMap, m2: LinearMap) -> LinearMap:
    """Graded commutator m1∘m2 - (-1)^(|m1||m2|) m2∘m1 of endomorphism maps."""
    sign = parity_sign(m1.degree, m2.degree)
    return m1.compose(m2) - sign * m2.compose(m1)


def solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs, or None when inconsistent.

    Free variables are set to zero.
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    rows = [[exact(x) for x in row] + [exact(b)] for row, b in zip(matrix, rhs)]
    if len(rhs) != m:
        raise ValidationError("rhs length mismatch")
    pivots = _echelon(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return None
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = rows[r][n]
    return x
