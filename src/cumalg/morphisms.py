"""Operators on the symmetric coalgebra built from arity-indexed coefficients.

A family of Taylor coefficients (one multilinear symmetric map per arity)
extends in two ways: as a coderivation, acting on one block of factors at a
time, or as a coalgebra map, acting on every block of a partition at once.
Conversely any operator yields coefficients by corestricting to weight one.
Everything is lazy and memoized per monomial; all arithmetic is exact.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable

from .algebra import (
    GradedBasis,
    LinearCombination,
    ValidationError,
    Vector,
    exact,
    format_scalar,
)
from .coalgebra import (
    SElement,
    TaylorFamily,
    WedgeMonomial,
    as_monomial,
    canonical_monomials,
    coproduct,
    monomials_up_to,
    parity,
    splits,
)


class SMap:
    """A linear operator on truncated coalgebra elements, memoized per monomial."""

    def __init__(
        self,
        source: GradedBasis,
        target: GradedBasis,
        cap: int,
        degree: int,
        fn: Callable[[WedgeMonomial], SElement],
        label: str = "",
    ):
        self.source = source
        self.target = target
        self.cap = int(cap)
        self.degree = int(degree)
        self._fn = fn
        self.label = label
        self._cache: dict = {}

    @classmethod
    def identity(cls, basis: GradedBasis, cap: int) -> "SMap":
        def fn(w, _basis=basis, _cap=cap):
            return SElement(_basis, _cap, {w: 1})

        return cls(basis, basis, cap, 0, fn, "id")

    def on_monomial(self, w: WedgeMonomial) -> SElement:
        out = self._cache.get(w)
        if out is None:
            out = self._fn(w)
            self._cache[w] = out
        return out

    def __call__(self, v: SElement) -> SElement:
        if v.basis is not self.source or v.cap != self.cap:
            raise ValidationError("element does not match the operator's source")
        out = SElement(self.target, self.cap)
        for w, c in v.terms.items():
            out.accumulate(self.on_monomial(w), c)
        return out

    def compose(self, inner: "SMap") -> "SMap":
        if inner.target is not self.source or inner.cap != self.cap:
            raise ValidationError("composition mismatch")
        outer = self

        def fn(w):
            return outer(inner.on_monomial(w))

        label = f"{self.label}∘{inner.label}" if self.label and inner.label else ""
        return SMap(inner.source, self.target, self.cap, self.degree + inner.degree, fn, label)

    def _check_peer(self, other: "SMap"):
        if (
            self.source is not other.source
            or self.target is not other.target
            or self.cap != other.cap
        ):
            raise ValidationError("operator shape mismatch")

    def __rmul__(self, scale) -> "SMap":
        def fn(w):
            return scale * self.on_monomial(w)

        return SMap(self.source, self.target, self.cap, self.degree, fn, self.label)

    def equal_up_to(self, other: "SMap", max_weight: int | None = None) -> bool:
        """Whether the two operators agree on every canonical monomial up to
        `max_weight` (default the cap)."""
        return _walk(self, other, max_weight)[0] is None

    def to_doc(self):
        return [
            {"monomial": w.names(self.source), "value": self.on_monomial(w).to_doc()}
            for w in monomials_up_to(self.source, self.cap)
        ]


def _walk(lhs: SMap, rhs: SMap, top: int | None = None):
    """The first canonical monomial up to weight `top` (default the cap) at
    which two operators of one shape differ, or None, and how many
    monomials the walk took, that one included."""
    lhs._check_peer(rhs)
    walked = 0
    for w in monomials_up_to(lhs.source, lhs.cap if top is None else top):
        walked += 1
        if lhs.on_monomial(w) != rhs.on_monomial(w):
            return w, walked
    return None, walked


def _wedge_in(out: SElement, value: Vector, tail, scale=1) -> None:
    """Add scale * (value ∧ t) into `out` for the (monomial t, coefficient)
    pairs of `tail`, `value` being of weight one.  Wedging generator i onto t
    is read from the target basis's `insertions` memo, a row per t filled on
    first use by `_insertion`.  Refuses a product past the cap, memo hit or
    not.  A scale that is not an `int` goes through `exact` first.  The sums
    go straight into `out.terms` (inlined `add_term`: a product `a * c` is
    never 0, as `value` and `tail` hold no zero terms and a zero scaled `c`
    is skipped)."""
    if type(scale) is not int:
        scale = exact(scale)
    degrees, cap, terms, memo = out.basis.degrees, out.cap, out.terms, out.basis.insertions
    get = terms.get
    heads = [(i, a, -a) for i, a in value.terms.items()]
    scaled = scale != 1
    for t, c in tail:
        if len(t[0]) >= cap:
            raise ValidationError(f"wedge product exceeds weight cap {cap}")
        if scaled:
            c = scale * c
            if not c:
                continue
        row = memo[t]
        for i, a, minus in heads:
            hit = row.get(i)
            if hit is None:
                hit = row[i] = _insertion(t, i, degrees[i])
            if hit:
                mono, flip = hit
                old = get(mono)
                if old is None:
                    terms[mono] = (minus if flip else a) * c
                else:
                    old += (minus if flip else a) * c
                    if old:
                        terms[mono] = old
                    else:
                        del terms[mono]


def _insertion(t: WedgeMonomial, i: int, d: int):
    """Generator i, of degree d, wedged onto the canonical word t: the
    canonical monomial and whether the Koszul sign flips, or () for zero.
    i is bisected into t's sorted indices; an odd i changes sign per odd
    factor it passes and gives zero if t holds it already."""
    indices, degs = t
    p = bisect_left(indices, i)
    flip = False
    if d % 2:
        if p < len(indices) and indices[p] == i:
            return ()
        flip = sum(map(parity, degs[:p])) % 2 == 1
    return as_monomial((indices[:p] + (i,) + indices[p:], degs[:p] + (d,) + degs[p:])), flip


def extend_coderivation(family: TaylorFamily, cap: int) -> SMap:
    """The unique coderivation whose Taylor coefficients are `family`.

    The whole word goes to the coefficient of its arity; every split of the
    word into a block and the rest (`splits`, the terms of the reduced
    coproduct) feeds the block to the coefficient of its arity and wedges
    the rest back on, so equal even factors are summed once with their
    multiplicity.
    """
    if family.source is not family.target:
        raise ValidationError("a coderivation needs source and target to agree")
    basis = family.source

    def fn(w: WedgeMonomial) -> SElement:
        out = SElement.from_vector(family.coefficient(w), cap)
        indices, degrees = w
        for coeff, _, take, leave in splits(w):
            value = family.coefficient(as_monomial((take(indices), take(degrees))))
            if value.terms:
                rest = as_monomial((leave(indices), leave(degrees)))
                _wedge_in(out, value, ((rest, coeff),))
        return out

    return SMap(basis, basis, cap, family.degree, fn)


def extend_coalgebra_map(family: TaylorFamily, cap: int) -> SMap:
    """The unique coalgebra map whose Taylor coefficients are `family`.

    Its value at w sums, over the unordered partitions of the factor
    positions, the coefficients of the blocks wedged in block order with the
    rearrangement Koszul sign; missing arities make a partition vanish.  The
    block B that holds the first factor splits that sum:

        F(w) = f(w) + sum over B != all of sign(B, Bᶜ) f(w_B) ∧ F(w_Bᶜ),

    where F(w_Bᶜ) is this operator's own memoized value on a shorter word
    (sorted positions of a canonical monomial are canonical).  Blocks that
    differ only by which equal factors they take are counted once with
    their multiplicity, the `first` count of `splits`.  Only degree-zero
    families compose consistently here, so other degrees are rejected.
    """
    if family.degree != 0:
        raise ValidationError("coalgebra-map extension needs a degree-zero family")
    source, target = family.source, family.target

    def fn(w: WedgeMonomial) -> SElement:
        out = SElement.from_vector(family.coefficient(w), cap)
        indices, degrees = w
        for _, first, take, leave in splits(w):
            if first:
                value = family.coefficient(as_monomial((take(indices), take(degrees))))
                if value.terms:
                    tail = extension.on_monomial(as_monomial((leave(indices), leave(degrees))))
                    _wedge_in(out, value, tail.terms.items(), first)
        return out

    extension = SMap(source, target, cap, 0, fn)
    return extension


def taylor_coefficient(op: SMap, mono: WedgeMonomial) -> Vector:
    """Corestriction to weight one of the operator's value at a monomial."""
    return op.on_monomial(mono).weight_one_vector()


def taylor_extract(op: SMap, arity: int) -> dict:
    """The arity-n coefficient table of an operator, sparse on canonical monomials."""
    values = ((mono, taylor_coefficient(op, mono)) for mono in canonical_monomials(op.source, arity))
    return {mono: value for mono, value in values if value.terms}


def extract_family(op: SMap, max_arity: int) -> TaylorFamily:
    """The Taylor coefficients of an operator up to `max_arity`, every one
    computed, in one walk of the canonical monomials, and checked on return."""
    tables: dict = {}
    for mono in monomials_up_to(op.source, max_arity):
        value = op.on_monomial(mono).weight_one_vector()
        if value.terms:
            tables.setdefault(len(mono[0]), {})[mono] = value
    return TaylorFamily(op.source, op.target, op.degree, tables)


def coproduct_element(v: SElement) -> LinearCombination:
    """The reduced coproduct of an element, term by term."""
    out = LinearCombination()
    for w, c in v.terms.items():
        out.accumulate(coproduct(w), c)
    return out


def _tensor_doc(pairs: LinearCombination, basis_l: GradedBasis, basis_r: GradedBasis):
    """The rows of a sum of (left, right) monomial pairs, in the order of the
    left monomial and then the right one."""
    return [
        {
            "left": l.names(basis_l),
            "right": r.names(basis_r),
            "coeff": format_scalar(c),
        }
        for (l, r), c in sorted(
            pairs.terms.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
        )
    ]


class CheckReport:
    """Outcome of a coalgebra-law check, with the first counterexample and,
    for a coproduct law, the corestriction it extracted (`family`)."""

    __slots__ = ("law", "ok", "checked", "witness", "family")

    def __init__(self, law: str, ok: bool, checked: int, witness: dict | None = None):
        self.law = law
        self.ok = ok
        self.checked = checked
        self.witness = witness
        self.family = None

    def to_doc(self):
        doc = {"law": self.law, "ok": self.ok, "checked": self.checked}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def compare(law: str, lhs: SMap, rhs: SMap, top: int | None = None,
            sides=None) -> CheckReport:
    """Report `law` as lhs = rhs on the canonical monomials up to weight
    `top` (default the cap).  `checked` counts the monomials walked, up to
    and including the first difference w; the witness holds w and the
    entries of `sides(w)`, by default both operators' values at w.  Raises
    ValidationError when the two operators differ in shape."""
    w, walked = _walk(lhs, rhs, top)
    if w is None:
        return CheckReport(law, True, walked)
    if sides is None:
        def sides(w):
            return {"lhs": lhs.on_monomial(w).to_doc(), "rhs": rhs.on_monomial(w).to_doc()}
    return CheckReport(law, False, walked, {"monomial": w.names(lhs.source), **sides(w)})


def _coproduct_law(law: str, op: SMap, extend) -> CheckReport:
    """Compare op with `extend` of its corestriction E, monomial by monomial
    up to the cap; at the first monomial w where the two differ, report
    Δ̄(op(w)) against Δ̄(E(w)), the law's expected side, as tensor sums.

    The extension of a corestriction is the one operator of its kind with
    those weight-one values.  Say op and that extension E agree below weight
    n.  At a weight-n word w every split of Δ̄(w) is shorter, so the law's
    right side, (op⊗op)Δ̄w or (op⊗1 + 1⊗op)Δ̄w, is the same with E in place
    of op, which is Δ̄(E(w)); the law holds at w iff op(w) - E(w) is
    primitive.  Both have the same weight-one part, and over ℚ Δ̄ is
    injective on weight >= 2 (μ∘Δ̄ = (2ⁿ - 2)·id on weight n), so the law
    holds at w iff op(w) = E(w).  The first difference is thus the first
    broken law, and `checked` counts what the plain tensor walk would.

    The corestriction must be of op's stated degree, which the law's Koszul
    signs use: a weight-one value off that degree raises ValidationError
    before any law is checked.
    """
    try:
        family = extract_family(op, op.cap)
    except ValidationError as err:
        raise ValidationError(
            f"{law} check of an operator of degree {op.degree}: {err}"
        ) from None
    again = extend(family, op.cap)

    def tensor_sides(w):
        return {
            "lhs": _tensor_doc(coproduct_element(op.on_monomial(w)), op.target, op.target),
            "rhs": _tensor_doc(coproduct_element(again.on_monomial(w)), op.target, op.target),
        }

    try:
        report = compare(law, op, again, sides=tensor_sides)
    finally:
        again._cache.clear()  # a coalgebra-map extension's memo refers to itself
    report.family = family
    return report


def check_coderivation(op: SMap) -> CheckReport:
    """Verify the co-Leibniz law Δ̄∘op = (op⊗1 + 1⊗op)∘Δ̄, by comparing op
    with the coderivation extension of its corestriction (`_coproduct_law`)."""
    if op.source is not op.target:
        raise ValidationError("co-Leibniz needs an endo-operator")
    return _coproduct_law("co-Leibniz", op, extend_coderivation)


def check_comorphism(op: SMap) -> CheckReport:
    """Verify the coalgebra-map law Δ̄∘op = (op⊗op)∘Δ̄, by comparing op with
    the coalgebra-map extension of its corestriction (`_coproduct_law`)."""
    if op.degree != 0:
        raise ValidationError("comorphism check needs a degree-zero operator")
    return _coproduct_law("comorphism", op, extend_coalgebra_map)


def check_filtration_one_identity(op: SMap) -> CheckReport:
    """Verify the operator fixes every weight-one monomial.  An operator whose
    source is not its target raises ValidationError ("operator shape
    mismatch")."""
    return compare("weight-one identity", op, SMap.identity(op.source, op.cap), top=1)


def triangular_inverse(op: SMap) -> SMap:
    """Invert an operator of the form identity plus weight-lowering remainder.

    The recursion inv(w) = w - inv(op(w) - w) terminates because the
    remainder strictly drops weight.  It is summed straight from the terms
    of op(w), as inv(w) = w - sum over u != w of c_u inv(u), into one fresh
    element.  Every term of the remainder is checked before any inv(u) is
    evaluated: a term at or above the input weight (a u != w that heavy, or
    a coefficient of w other than 1) is reported as a validation failure
    with the witness monomial, whichever word was asked for first.
    """
    if op.source is not op.target:
        raise ValidationError("triangular inversion needs an endo-operator")
    basis, cap = op.source, op.cap

    def fn(w: WedgeMonomial) -> SElement:
        image = op.on_monomial(w).terms
        weight = len(w[0])
        if image.get(w) != 1 or any(len(u[0]) >= weight for u in image if u != w):
            raise ValidationError(
                f"triangular inverse: operator is not triangular at {w.names(basis)}")
        out = SElement(basis, cap)
        out.terms[w] = 1
        for u, c in image.items():
            if u != w:
                out.accumulate(inverse.on_monomial(u), -c)
        return out

    inverse = SMap(basis, basis, cap, 0, fn, "inv")
    return inverse
