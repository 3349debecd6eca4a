"""Wedge monomials, Koszul signs and the reduced coproduct, up to a weight cap.

The symmetric coalgebra over a graded basis is spanned, in each weight n, by
canonical wedge monomials: non-decreasing index tuples in which an odd-degree
index never repeats.  The reduced coproduct splits a monomial over all ordered
pairs of complementary nonempty position subsets; reassembling blocks by
wedging later sums over unordered partitions, which is the convention under
which the cumulant bijection fixes the leading term with coefficient 1.  A
`TaylorFamily` holds an operator's coefficients on these monomials, given by
one table per arity or by a coefficient function memoized per word.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache, partial
from operator import eq, itemgetter

from .algebra import (
    DEFAULT_WEIGHT_CAP,  # noqa: F401 (public here too)
    GradedBasis,
    LinearCombination,
    LinearMap,
    SchemaError,
    ValidationError,
    Vector,
    field,
    name_at,
    read_vector,
    reader,
)


def _sort_sign(indices, degrees):
    """Koszul sign of stably sorting `indices` ascending; None if an odd
    degree repeats (the monomial is zero).  The general loop that counts odd
    inversions; `_split_table` counts those of its block-before-rest orders
    in its fold over the runs."""
    sign = 1
    n = len(indices)
    for i in range(n):
        for j in range(i + 1, n):
            if indices[i] > indices[j]:
                if (degrees[i] % 2) and (degrees[j] % 2):
                    sign = -sign
            elif indices[i] == indices[j] and degrees[i] % 2:
                return None
    return sign


class WedgeMonomial(tuple):
    """A canonical wedge monomial: sorted generator indices plus their degrees.

    A plain `(indices, factor_degrees)` tuple underneath, so hashing and
    equality run in C; monomials key every sparse element and cache.
    """

    __slots__ = ()

    def __new__(cls, indices: tuple, factor_degrees: tuple):
        return tuple.__new__(cls, (indices, factor_degrees))

    def __getnewargs__(self):
        # copy and pickle rebuild a monomial through __new__
        return tuple(self)

    indices = property(itemgetter(0))
    factor_degrees = property(itemgetter(1))

    @property
    def weight(self) -> int:
        return len(self[0])

    @property
    def degree(self) -> int:
        return sum(self[1])

    def sort_key(self):
        return (len(self[0]), self[0])

    def names(self, basis: GradedBasis):
        return [basis.names[i] for i in self[0]]

    def part(self, positions) -> "WedgeMonomial":
        """The factors at the given sorted positions, as a monomial."""
        indices, degrees = self
        return WedgeMonomial(
            tuple(indices[p] for p in positions),
            tuple(degrees[p] for p in positions),
        )

    def __repr__(self):
        return "w(" + ",".join(map(str, self[0])) + ")"


# an (indices, degrees) pair as a monomial, with no Python-level call: how the
# split loops build blocks and rests from the getters of `splits`
as_monomial = partial(tuple.__new__, WedgeMonomial)
# a degree's parity, d % 2, as a C-level call for `map`
parity = (2).__rmod__


def monomial(basis: GradedBasis, indices) -> WedgeMonomial:
    """Construct a canonical monomial; indices must already be sorted."""
    indices = tuple(indices)
    degrees = tuple(basis.degrees[i] for i in indices)
    if list(indices) != sorted(indices):
        raise ValidationError(f"monomial indices not sorted: {indices}")
    if _sort_sign(indices, degrees) is None:
        raise ValidationError("repeated odd-degree factor gives the zero monomial")
    return WedgeMonomial(indices, degrees)


def normalize_monomial(basis: GradedBasis, factors):
    """Sort a factor list into canonical form with its Koszul sign.

    Returns (monomial, sign) or None when the result is zero (an odd-degree
    factor repeats).
    """
    factors = list(factors)
    if not factors:
        raise ValidationError("empty factor list")
    degrees = [basis.degrees[i] for i in factors]
    return _normalize(tuple(factors), tuple(degrees))


def _normalize(indices, degrees):
    sign = _sort_sign(indices, degrees)
    if sign is None:
        return None
    order = sorted(range(len(indices)), key=lambda k: (indices[k], k))
    sorted_idx = tuple(indices[k] for k in order)
    sorted_deg = tuple(degrees[k] for k in order)
    return WedgeMonomial(sorted_idx, sorted_deg), sign


def _monomial_levels(basis: GradedBasis, top: int, window=None):
    """The canonical monomials of weights 0, 1, ..., top, one sorted list per
    weight, each built from the last: a word is extended by every index from
    its last one on, past it when that factor is odd.

    With a set `window` of degrees, a word is extended only while a longer
    word within `top` may still have a degree in it, so each level holds
    (at least) its words of those degrees, in the same order.  t more
    factors add between t·lo and t·hi to a word's degree, where lo and hi
    are the least and greatest generator degrees, and 1 <= t <= top - weight."""
    degrees = basis.degrees
    n = len(degrees)
    level = [WedgeMonomial((), ())]
    yield level
    if window is not None:
        lo, hi = min(degrees, default=0), max(degrees, default=0)
        least, most = min(window, default=0), max(window, default=0)
    for weight in range(top):
        if window is not None:
            more = top - weight
            low, high = min(lo, more * lo), max(hi, more * hi)
            level = [w for w in level if least - high <= sum(w[1]) <= most - low]
        level = [
            as_monomial((indices + (j,), degs + (degrees[j],)))
            for indices, degs in level
            for j in range(indices[-1] + degs[-1] % 2 if indices else 0, n)
        ]
        yield level


def canonical_monomials(basis: GradedBasis, weight: int):
    """All canonical monomials of the given weight, in sorted order."""
    *_, level = _monomial_levels(basis, weight)
    return level


def monomials_up_to(basis: GradedBasis, cap: int):
    levels = _monomial_levels(basis, cap)
    next(levels)  # weight 0
    for level in levels:
        yield from level


class SElement(LinearCombination):
    """A sparse linear combination of wedge monomials, truncated at a cap.

    No operation drops terms beyond the cap: `wedge` refuses such a product.
    """

    __slots__ = ("basis", "cap")
    _mismatch = "elements over different presentations or caps"
    _key_order = staticmethod(WedgeMonomial.sort_key)
    _field = "monomial"

    def __init__(self, basis, cap, terms=None):
        self.basis = basis
        self.cap = int(cap)
        if self.cap < 1:
            raise ValidationError("weight cap must be >= 1")
        super().__init__(terms)

    def _check_key(self, w):
        if w.weight > self.cap:
            raise ValidationError(f"monomial of weight {w.weight} exceeds cap {self.cap}")

    def _space(self):
        return (self.basis, self.cap)

    def _key_doc(self, w):
        return w.names(self.basis)

    @classmethod
    def from_vector(cls, v: Vector, cap):
        out = cls(v.basis, cap)
        degrees = v.basis.degrees
        out.terms = {as_monomial(((i,), (degrees[i],))): c for i, c in v.terms.items()}
        return out

    def max_weight(self) -> int:
        return max(map(len, map(itemgetter(0), self.terms)), default=0)

    def weight_one_vector(self) -> Vector:
        """The weight-1 component as an algebra element."""
        out = Vector(self.basis)
        out.terms = {w[0][0]: c for w, c in self.terms.items() if len(w[0]) == 1}
        return out


class TaylorFamily:
    """Symmetric multilinear coefficients on canonical monomials.

    A family is given by its tables, one per arity, or up to a cap by a
    coefficient function `fn`, which a word's first lookup calls.  Either way
    the values live in one memo keyed by monomial, and each is checked once,
    as it enters: over the target basis and homogeneous of the monomial
    degree shifted by the family degree.  Every zero value is the family's
    `_zero`.  What needs every value (`tables`, `arities`, `==`, `to_doc`)
    computes the rest up to the cap, after which the family is tabulated.
    Evaluation at an arbitrary factor tuple normalizes first and applies the
    Koszul sign.

    The window: a value at w is of degree |w| + degree, so it is 0 unless
    the target has a generator of that degree.  `fn` must return values of
    that degree, and is called only at words inside the window; a word
    outside it enters as `_zero`, and `tables` computes no such word.
    """

    def __init__(self, source: GradedBasis, target: GradedBasis, degree: int,
                 tables=None, *, cap: int = 0, fn=None):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self._zero = Vector(target)  # the one value of every zero entry
        self._memo: dict = {}
        self._cap = int(cap)
        self._fn = fn
        # the word degrees that the family degree shifts onto a target degree
        self._window = frozenset(e - self.degree for e in target.degree_set)
        for arity, table in (tables or {}).items():
            arity = int(arity)
            if arity < 1:
                raise ValidationError("arity must be >= 1")
            for mono, value in table.items():
                # a computed family's words are canonical already; a table's
                # keys are checked here
                indices = mono[0]
                if len(indices) != arity:
                    raise ValidationError(f"monomial {mono} filed under arity {arity}")
                if not all(0 <= i < len(source) for i in indices) or (
                    monomial(source, indices) != mono
                ):
                    raise ValidationError(f"monomial {mono} is not canonical over the source")
                self._enter(mono, value)

    def _enter(self, mono: WedgeMonomial, value: Vector) -> Vector:
        if value.basis is not self.target:
            raise ValidationError("coefficient value over the wrong basis")
        if not value.terms:
            value = self._zero
        elif not value.is_homogeneous(mono.degree + self.degree):
            raise ValidationError(
                f"coefficient at {mono} not homogeneous of degree {mono.degree + self.degree}"
            )
        self._memo[mono] = value
        return value

    @classmethod
    def from_linear_map(cls, m: LinearMap) -> "TaylorFamily":
        table = {WedgeMonomial((i,), (m.source.degrees[i],)): v for i, v in m.columns.items()}
        return cls(m.source, m.target, m.degree, {1: table})

    def coefficient(self, mono: WedgeMonomial) -> Vector:
        value = self._memo.get(mono)
        if value is None:
            if self._fn is None or len(mono[0]) > self._cap:
                return self._zero
            if sum(mono[1]) in self._window:
                value = self._enter(mono, self._fn(mono))
            else:
                value = self._memo[mono] = self._zero
        return value

    @property
    def tables(self) -> dict:
        """The nonzero values by arity, each table keyed by monomial."""
        if self._fn is not None:
            window = self._window
            levels = _monomial_levels(self.source, self._cap, window)
            next(levels)  # weight 0
            for level in levels:
                for mono in level:
                    if sum(mono[1]) in window:
                        self.coefficient(mono)
            self._fn = None
        tables: dict = {}
        for mono, value in self._memo.items():
            if value.terms:
                tables.setdefault(len(mono[0]), {})[mono] = value
        return dict(sorted(tables.items()))

    def arities(self):
        return list(self.tables)

    def evaluate(self, factors) -> Vector:
        """Value at an arbitrary (possibly unsorted) factor index tuple."""
        norm = normalize_monomial(self.source, factors)
        if norm is None:
            return Vector(self.target)
        mono, sign = norm
        return sign * self.coefficient(mono)

    def arity_one_map(self) -> LinearMap:
        columns = {w[0][0]: self.coefficient(w) for w in canonical_monomials(self.source, 1)}
        return LinearMap(self.source, self.target, self.degree, columns)

    def __eq__(self, other):
        return (
            isinstance(other, TaylorFamily)
            and self.source is other.source
            and self.target is other.target
            and self.degree == other.degree
            and self.tables == other.tables
        )

    def to_doc(self):
        arities = {}
        for arity, table in self.tables.items():
            arities[str(arity)] = [
                {"monomial": mono.names(self.source), "value": table[mono].to_doc()}
                for mono in sorted(table, key=WedgeMonomial.sort_key)
            ]
        return {"degree": self.degree, "arities": arities}

    @staticmethod
    @reader(dict)
    def from_doc(doc, source: GradedBasis, target: GradedBasis) -> "TaylorFamily":
        """A coefficient-family document: a degree (default 0) and, keyed by
        arity, rows of a monomial and its value.  A monomial is stated once:
        two rows that sort to one word are refused, whatever their order or
        arity key.  A word that repeats an odd generator is 0, and so must
        its row's value be."""
        arities = field(doc, "arities", dict, {})
        tables: dict = {}
        zeros = set()  # the zero words stated, by their sorted factors
        for arity_key in arities:
            try:
                arity = int(arity_key) if str(arity_key).isdecimal() else 0
            except ValueError:  # more digits than `int` converts
                arity = 0
            if arity < 1:
                raise SchemaError("arity key must be a decimal integer >= 1", arities, arity_key)
            table = tables.setdefault(arity, {})
            for row in field(arities, arity_key, list, each=dict):
                names = field(row, "monomial", list)
                indices = [name_at(source, names, k) for k in range(len(names))]
                if len(indices) != arity:
                    raise SchemaError(f"monomial filed under arity {arity}", row, "monomial")
                value = read_vector(field(row, "value", list), target)
                norm = normalize_monomial(source, indices)
                if norm is None and value.terms:
                    raise SchemaError("an odd generator repeats: the word and its value are 0",
                                      row, "value")
                mono, sign = norm or (tuple(sorted(indices)), 0)
                if mono in table or mono in zeros:
                    raise SchemaError("monomial stated more than once", row, "monomial")
                if sign:
                    table[mono] = sign * value
                else:
                    zeros.add(mono)
        return TaylorFamily(source, target, field(doc, "degree", int, 0), tables)


def wedge(u: SElement, v: SElement) -> SElement:
    """Graded-commutative product on the symmetric coalgebra carrier.

    A product with a term past the cap is refused rather than truncated.
    """
    u._check(v)
    if u.max_weight() + v.max_weight() > u.cap:
        raise ValidationError(f"wedge product exceeds weight cap {u.cap}")
    out = SElement(u.basis, u.cap)
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            norm = _normalize(
                wu.indices + wv.indices, wu.factor_degrees + wv.factor_degrees
            )
            if norm is None:
                continue
            w, sign = norm
            out.add_term(w, sign * cu * cv)
    return out


# shared by every job in a process, keyed by word shape; past the bound the
# oldest entry goes
COPRODUCT_MEMO_ENTRIES = 2048
_coproduct_memo: dict = {}


def splits(w: WedgeMonomial) -> tuple:
    """The one place that splits a word: its signed splits into a nonempty
    block and a nonempty rest, up to permuting equal factors, as
    (coeff, first, take_block, take_rest) rows, the two getters picking the
    sorted positions of the block and of the rest out of the word's index or
    degree tuple, as tuples
    (`w_B = WedgeMonomial(take_block(w[0]), take_block(w[1]))`).

    With repetition pattern (m_0, m_1, ...), a block takes the first c_k
    positions of run k.  Equal factors are even, so which ones it takes
    changes neither value nor sign: the split stands for
    coeff = sign · prod_k C(m_k, c_k) position splits, sign being the
    Koszul sign of listing block before rest, and
    first = coeff · c_0 / m_0 = sign · C(m_0 - 1, c_0 - 1) · prod_{k>=1} C(m_k, c_k)
    of them hold the first factor in the block (for (n,) these are the
    C(n-1, k-1) of the moment recursion).  The table depends only on the
    pattern and the factor parities.  It is keyed in `_coproduct_memo` by
    which neighbouring indices are equal, which gives the pattern, and by
    the parities, both built by C-level maps; the pattern itself is counted
    only on a miss.
    """
    indices, degrees = w
    parities = tuple(map(parity, degrees))
    key = (tuple(map(eq, indices, indices[1:])), parities)
    table = _coproduct_memo.get(key)
    if table is None:
        if len(_coproduct_memo) >= COPRODUCT_MEMO_ENTRIES:
            del _coproduct_memo[next(iter(_coproduct_memo))]
        table = _coproduct_memo[key] = _split_table(repetition_pattern(indices), parities)
    return table


def _split_table(pattern, parities) -> tuple:
    """One fold over the runs: each run of length m extends every partial
    row (coeff, c_0, block, rest, odd) by its m + 1 counts c, the block
    taking the run's first c positions.  Listing block before rest moves an
    odd block factor past the odd rest factors before it; `odd` is whether
    their number is odd, and equal factors are even, so an odd run is one
    factor."""
    rows = [(1, 0, (), (), False)]
    start = 0
    for m in pattern:
        run, odd_run = tuple(range(start, start + m)), parities[start]
        counts = [(c, math.comb(m, c)) for c in range(m + 1)]
        rows = [
            (-coeff * comb if odd_run and c and odd else coeff * comb, c0 if start else c,
             block + run[:c], rest + run[c:], odd ^ (odd_run and not c))
            for coeff, c0, block, rest, odd in rows
            for c, comb in counts
        ]
        start += m
    return tuple((coeff, coeff * c0 // pattern[0], _getter(block), _getter(rest))
                 for coeff, c0, block, rest, _ in rows if block and rest)


def _getter(positions):
    """An itemgetter returning the entries at sorted `positions` as a tuple:
    a slice when they are consecutive, which also keeps one position a
    1-tuple."""
    if positions[-1] - positions[0] == len(positions) - 1:
        return itemgetter(slice(positions[0], positions[-1] + 1))
    return itemgetter(*positions)


def coproduct(w: WedgeMonomial) -> LinearCombination:
    """Reduced coproduct: the ordered complementary position splits of w,
    signed, each pair of parts once with its count (`splits`), as a sum keyed
    by (left, right) monomial pairs.

    Weight-1 monomials map to the empty sum.
    """
    indices, degrees = w
    out = LinearCombination()
    out.terms = {
        (as_monomial((take(indices), take(degrees))),
         as_monomial((leave(indices), leave(degrees)))): c
        for c, _, take, leave in splits(w)
    }
    return out


def repetition_pattern(indices) -> tuple:
    """Run lengths of equal entries in a sorted index tuple: (0,0,1,2,2,2)
    has pattern (2,1,3)."""
    return tuple(len(list(run)) for _, run in itertools.groupby(indices))


@lru_cache(maxsize=None)
def set_partitions(n: int):
    """Unordered partitions of range(n); blocks sorted, ordered by minimum."""
    if n == 0:
        return ((),)
    out = []
    # position 0 always lives in the first block
    rest = tuple(range(1, n))
    for size in range(0, n):
        for extra in itertools.combinations(rest, size):
            first = (0,) + extra
            remaining = tuple(p for p in rest if p not in set(extra))
            if remaining:
                for sub in set_partitions(len(remaining)):
                    mapped = tuple(
                        tuple(remaining[q] for q in block) for block in sub
                    )
                    out.append((first,) + mapped)
            else:
                out.append((first,))
    return tuple(out)
