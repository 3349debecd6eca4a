"""The cumulant bijection, its inverse, conjugation, and defect coefficients.

tau multiplies the factors of a wedge monomial; its coalgebra-map extension
tau_tilde rewrites moments into cumulant coordinates.  Conjugating a bare
operator extension by tau_tilde and corestricting yields, arity by arity,
exactly how far a linear map is from being a homomorphism (g tables) or a
derivation (h tables), which `defect_family` computes in the target by the
moment–cumulant recursion, without building that conjugate.  The products,
the moments and the defects are `TaylorFamily`s given by a coefficient
function: each word is computed on first lookup and memoized.
"""
from __future__ import annotations

import math
import weakref
from fractions import Fraction

from .algebra import (
    DEFAULT_WEIGHT_CAP,
    AlgebraPresentation,
    LinearMap,
    ValidationError,
    Vector,
    exact,
    parity_sign,
)
from .coalgebra import (
    SElement,
    TaylorFamily,
    WedgeMonomial,
    as_monomial,
    iterated_coproduct,
    splits,
    wedge,
)

# `cumalg.morphisms` is imported where its operators are built, so that the
# cumulants and the defect recursion run without loading it


def tau(algebra: AlgebraPresentation, w: WedgeMonomial) -> Vector:
    """Left-to-right product of the factors of a wedge monomial."""
    out = algebra.generator(w.indices[0])
    for i in w.indices[1:]:
        if out.is_zero():
            break
        out = algebra.multiply(out, algebra.generator(i))
    return out


def tau_family(algebra: AlgebraPresentation, max_arity: int) -> TaylorFamily:
    """Taylor coefficients of tau_tilde up to `max_arity`: the n-fold products."""
    return TaylorFamily(algebra, algebra, 0, cap=max_arity, fn=lambda mono: tau(algebra, mono))


class CumulantContext:
    """Shared, lazily built tau_tilde machinery for one algebra at one cap."""

    def __init__(self, algebra: AlgebraPresentation, cap: int = DEFAULT_WEIGHT_CAP):
        if not isinstance(algebra, AlgebraPresentation):
            raise ValidationError("cumulant machinery needs a product table")
        self.algebra = algebra
        self.cap = int(cap)
        # tau's Taylor family, one memo for tau_tilde and the defect tables
        self.products = TaylorFamily(algebra, algebra, 0, cap=self.cap, fn=self._product)
        self._tau_tilde: SMap | None = None
        self._inverse: SMap | None = None

    def _product(self, w: WedgeMonomial) -> Vector:
        """tau(w) as tau(w without its last factor) times that factor, both
        read from the memo: the same left-to-right products as `tau`."""
        indices, degrees = w
        if len(indices) == 1:
            return self.algebra.generator(indices[0])
        coefficient = self.products.coefficient
        head = coefficient(as_monomial((indices[:-1], degrees[:-1])))
        if not head.terms:
            return head
        last = coefficient(as_monomial((indices[-1:], degrees[-1:])))
        return self.algebra.multiply(head, last)

    @property
    def tau_tilde(self) -> SMap:
        if self._tau_tilde is None:
            from .morphisms import extend_coalgebra_map

            self._tau_tilde = extend_coalgebra_map(self.products, self.cap)
        return self._tau_tilde

    @property
    def tau_tilde_inverse(self) -> SMap:
        if self._inverse is None:
            from .morphisms import triangular_inverse

            self._inverse = triangular_inverse(self.tau_tilde, "cumulant bijection")
        return self._inverse


# every live context by (presentation uid, cap); the presentation owns them
_contexts = weakref.WeakValueDictionary()


def cumulant_context(algebra: AlgebraPresentation, cap: int = DEFAULT_WEIGHT_CAP) -> CumulantContext:
    """The one shared cache per (presentation, cap).

    The presentation holds its contexts, so a context and its tau_tilde
    caches are freed together with the presentation they belong to.
    """
    key = (algebra.uid, int(cap))
    ctx = _contexts.get(key)
    if ctx is None:
        ctx = CumulantContext(algebra, cap)
        algebra.contexts[key[1]] = ctx
        _contexts[key] = ctx
    return ctx


def tau_tilde_series(algebra: AlgebraPresentation, cap: int) -> SMap:
    """Independent route to tau_tilde: the exponential-style series.

    Sums, over k, the k-fold coproduct with tau applied to every block and
    the blocks wedged back together, divided by k! because ordered splits
    overcount each unordered partition once per block ordering.
    """
    from .morphisms import SMap

    ctx = cumulant_context(algebra, cap)

    def fn(w: WedgeMonomial) -> SElement:
        out = SElement(algebra, cap)
        for k in range(1, w.weight + 1):
            scale = exact(Fraction(1, math.factorial(k)))
            for coeff, parts in iterated_coproduct(w, k):
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


def conjugate(op: SMap, direction: str = "pull") -> SMap:
    """Conjugate an operator by the cumulant bijections of its two algebras.

    "pull" computes inverse∘op∘tau_tilde: the result's Taylor coefficients
    are the defect tables, and tau intertwines the bare operator with it.
    "push" is the other direction, tau_tilde∘op∘inverse.
    """
    source = cumulant_context(op.source, op.cap)
    target = cumulant_context(op.target, op.cap)
    if direction == "pull":
        return target.tau_tilde_inverse.compose(op).compose(source.tau_tilde)
    if direction == "push":
        return target.tau_tilde.compose(op).compose(source.tau_tilde_inverse)
    raise ValidationError(f"unknown conjugation direction {direction!r}")


def defect_family(m: LinearMap, kind: str, cap: int = DEFAULT_WEIGHT_CAP) -> TaylorFamily:
    """The defect tables of a map up to the cap, each word computed on first
    lookup: the Taylor coefficients of the pull conjugate of its bare
    extension, by the moment–cumulant recursion in the target.
    Corestricting F∘tau_tilde = tau_tilde∘G (kind "hom", a degree-zero f) or
    D∘tau_tilde = tau_tilde∘H (kind "der", an endomorphism d) at w, and
    splitting off the block B that holds the first factor, gives

        g(w) = phi(w) - sum over splits with first != 0 of first · g(w_B)·phi(w_R),
        h(w) = d(tau(w)) - sum over all splits of coeff · h(w_B)·tau(w_R),

    with moments phi(w) = f(tau(w)), and no sign for the degree of d, which
    acts on the block listed first (`splits` gives coeff and first).
    """
    if kind not in ("hom", "der"):
        raise ValidationError(f"unknown defect kind {kind!r}")
    hom = kind == "hom"
    if hom and m.degree != 0:
        raise ValidationError("homomorphism defects need a degree-zero map")
    if not hom and m.source is not m.target:
        raise ValidationError("a coderivation needs source and target to agree")
    products = cumulant_context(m.source, cap).products
    multiply = cumulant_context(m.target, cap).algebra.multiply

    def moment(w: WedgeMonomial) -> Vector:
        return m.apply(products.coefficient(w))

    def fn(w: WedgeMonomial) -> Vector:
        out = moment(w)
        indices, degrees = w
        for _, _, coeff, first, take, leave in splits(w):
            n = first if hom else coeff
            if n:
                value = family.coefficient(as_monomial((take(indices), take(degrees))))
                if value.terms:
                    tail = rests.coefficient(as_monomial((leave(indices), leave(degrees))))
                    if tail.terms:
                        out.accumulate(multiply(value, tail), -n)
        return out

    rests = TaylorFamily(m.source, m.target, 0, cap=cap, fn=moment) if hom else products
    family = TaylorFamily(m.source, m.target, m.degree, cap=cap, fn=fn)
    return family


def vanishes_above_one(family: TaylorFamily) -> bool:
    return all(arity == 1 for arity in family.tables)


def _deg(v: Vector) -> int:
    d = v.degree()
    if d is None and not v.is_zero():
        raise ValidationError("closed forms need homogeneous arguments")
    return 0 if d is None else d


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
