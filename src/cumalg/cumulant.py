"""The cumulant bijection, its inverse, conjugation, and defect coefficients.

tau multiplies the factors of a wedge monomial; its coalgebra-map extension
tau_tilde rewrites moments into cumulant coordinates, and its inverse extends
(-1)^(n-1) (n-1)! times the n-fold products (the partition lattice's Moebius
function).  Conjugating a bare operator extension by tau_tilde and
corestricting yields, arity by arity, exactly how far a linear map is from
being a homomorphism (g tables) or a derivation (h tables), which
`defect_family` computes in the target by the moment–cumulant recursion,
without building that conjugate.  The products, the moments and the defects
are `TaylorFamily`s given by a coefficient function: each word is computed on
first lookup and memoized.
"""
from __future__ import annotations

import weakref
from math import factorial

from .algebra import (
    DEFAULT_WEIGHT_CAP,
    AlgebraPresentation,
    LinearMap,
    ValidationError,
    Vector,
)
from .coalgebra import TaylorFamily, WedgeMonomial, as_monomial, splits

# `cumalg.morphisms` is imported where its operators are built, so that the
# cumulants and the defect recursion run without loading it


def tau(algebra: AlgebraPresentation, w: WedgeMonomial) -> Vector:
    """Left-to-right product of the factors of a wedge monomial."""
    out = algebra.generator(w[0])
    for i in w[1:]:
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
        # tau's Taylor family: one memo for tau_tilde, its inverse and the defects
        self.products = TaylorFamily(algebra, algebra, 0, cap=self.cap, fn=self._product)
        self._tau_tilde: SMap | None = None
        self._inverse: SMap | None = None

    def _product(self, w: WedgeMonomial) -> Vector:
        """tau(w) as tau(w without its last factor) times that factor, both
        read from the memo: the same left-to-right products as `tau`."""
        if len(w) == 1:
            return self.algebra.generator(w[0])
        coefficient = self.products.coefficient
        head = coefficient(as_monomial(w[:-1]))
        if not head.terms:
            return head
        last = coefficient(as_monomial(w[-1:]))
        return self.algebra.multiply(head, last)

    def _mobius(self, w: WedgeMonomial) -> Vector:
        """The inverse's Taylor coefficient at w: (-1)^(n-1) (n-1)! tau(w)
        for a word of n factors, tau(w) read from the memo."""
        n = len(w)
        return (-1) ** (n - 1) * factorial(n - 1) * self.products.coefficient(w)

    @property
    def tau_tilde(self) -> SMap:
        if self._tau_tilde is None:
            from .morphisms import extend_coalgebra_map

            self._tau_tilde = extend_coalgebra_map(self.products, self.cap)
        return self._tau_tilde

    @property
    def tau_tilde_inverse(self) -> SMap:
        if self._inverse is None:
            from .morphisms import extend_coalgebra_map

            mobius = TaylorFamily(self.algebra, self.algebra, 0, cap=self.cap, fn=self._mobius)
            self._inverse = extend_coalgebra_map(mobius, self.cap)
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
    expand = cumulant_context(m.target, cap).algebra.expand

    def moment(w: WedgeMonomial) -> Vector:
        return m.apply(products.coefficient(w))

    def fn(w: WedgeMonomial) -> Vector:
        pairs = {}  # the sum by generator pair (i, j), expanded once at the end
        get = pairs.get
        for coeff, first, take, leave in splits(w, m.source):
            n = first if hom else coeff
            if n:
                value = family.coefficient(as_monomial(take(w)))
                if value.terms:
                    tail = rests.coefficient(as_monomial(leave(w))).terms
                    if tail:
                        for i, a in value.terms.items():
                            a = -n * a
                            for j, b in tail.items():
                                key = (i, j)
                                old = get(key)
                                pairs[key] = a * b if old is None else old + a * b
        return moment(w).accumulate(expand(pairs))

    rests = TaylorFamily(m.source, m.target, 0, cap=cap, fn=moment) if hom else products
    family = TaylorFamily(m.source, m.target, m.degree, cap=cap, fn=fn)
    return family


def vanishes_above_one(family: TaylorFamily) -> bool:
    return all(arity == 1 for arity in family.tables)
