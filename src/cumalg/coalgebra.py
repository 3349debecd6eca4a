"""Wedge monomials, Koszul signs and the reduced coproduct, up to a weight cap.

The symmetric coalgebra over a graded basis is spanned, in each weight n, by
canonical wedge monomials: non-decreasing index tuples in which an odd-degree
index never repeats.  The reduced coproduct splits a monomial over all ordered
pairs of complementary nonempty position subsets; reassembling blocks by
wedging later sums over unordered partitions, which is the convention under
which the cumulant bijection fixes the leading term with coefficient 1.  A
`TaylorFamily` holds an operator's coefficients on these monomials, one table
per arity.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import lru_cache, partial
from operator import itemgetter

from .algebra import (
    DEFAULT_WEIGHT_CAP,  # noqa: F401 (public here too)
    GradedBasis,
    LinearCombination,
    LinearMap,
    SchemaError,
    ValidationError,
    Vector,
    field,
    format_scalar,
    name_at,
    read_vector,
    reader,
    scalar_at,
)


def koszul_sign(degrees, permutation) -> int:
    """Sign picked up when graded factors are rearranged.

    `permutation[i]` is the position factor i moves to; each pair of factors
    that crosses contributes (-1)^(d_i*d_j).
    """
    n = len(permutation)
    if sorted(permutation) != list(range(n)) or len(degrees) != n:
        raise ValidationError("malformed permutation")
    return _sort_sign(permutation, degrees)


def _sort_sign(indices, degrees):
    """Koszul sign of stably sorting `indices` ascending; None if an odd
    degree repeats (the monomial is zero).  The general loop that counts odd
    inversions; `_split_table` counts those of its block-before-rest orders
    in one pass."""
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


def canonical_monomials(basis: GradedBasis, weight: int):
    """All canonical monomials of the given weight, in sorted order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(len(basis)), weight):
        degrees = tuple(basis.degrees[i] for i in combo)
        if _sort_sign(combo, degrees) is None:
            continue
        out.append(WedgeMonomial(combo, degrees))
    return out


def monomials_up_to(basis: GradedBasis, cap: int):
    for weight in range(1, cap + 1):
        yield from canonical_monomials(basis, weight)


class SElement(LinearCombination):
    """A sparse linear combination of wedge monomials, truncated at a cap.

    No operation drops terms beyond the cap: `wedge` refuses such a product.
    """

    __slots__ = ("basis", "cap")
    _mismatch = "elements over different presentations or caps"

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

    @classmethod
    def from_vector(cls, v: Vector, cap):
        out = cls(v.basis, cap)
        out.terms = {
            WedgeMonomial((i,), (v.basis.degrees[i],)): c for i, c in v.terms.items()
        }
        return out

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def weight_project(self, n: int) -> "SElement":
        if n < 1:
            raise ValidationError("weight must be >= 1")
        return self._new({w: c for w, c in self.terms.items() if w.weight == n})

    def max_weight(self) -> int:
        return max(map(len, map(itemgetter(0), self.terms)), default=0)

    def weight_one_vector(self) -> Vector:
        """The weight-1 component as an algebra element."""
        out = Vector(self.basis)
        out.terms = {w.indices[0]: c for w, c in self.terms.items() if w.weight == 1}
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.items():
            name = "^".join(w.names(self.basis))
            bits.append(f"({c})*{name}")
        return " + ".join(bits)

    def to_doc(self):
        return [
            {"monomial": w.names(self.basis), "coeff": format_scalar(c)}
            for w, c in self.items()
        ]

    @staticmethod
    @reader(list, dict)
    def from_doc(entries, basis: GradedBasis, cap: int) -> "SElement":
        """A coalgebra-element document: a list of {"monomial", "coeff"} terms."""
        out = SElement(basis, cap)
        for entry in entries:
            coeff = scalar_at(entry, "coeff")
            names = field(entry, "monomial", list)
            norm = normalize_monomial(basis, [name_at(basis, names, k) for k in range(len(names))])
            if norm is not None:
                w, sign = norm
                out._check_key(w)
                out.add_term(w, sign * coeff)
        return out


class TaylorFamily:
    """Symmetric multilinear coefficients, one table per arity.

    Table keys are canonical monomials; evaluation at an arbitrary factor
    tuple normalizes first and applies the Koszul sign.  Values live in the
    target basis and must be homogeneous of the monomial degree shifted by
    the family degree.
    """

    def __init__(self, source: GradedBasis, target: GradedBasis, degree: int, tables):
        self.source = source
        self.target = target
        self.degree = int(degree)
        clean: dict = {}
        for arity, table in tables.items():
            arity = int(arity)
            if arity < 1:
                raise ValidationError("arity must be >= 1")
            kept = {}
            for mono, value in table.items():
                if mono.weight != arity:
                    raise ValidationError(
                        f"monomial {mono} filed under arity {arity}"
                    )
                if value.basis is not target:
                    raise ValidationError("coefficient value over the wrong basis")
                if value.is_zero():
                    continue
                if not value.is_homogeneous(mono.degree + self.degree):
                    raise ValidationError(
                        f"coefficient at {mono} not homogeneous of degree "
                        f"{mono.degree + self.degree}"
                    )
                kept[mono] = value
            if kept:
                clean[arity] = kept
        self.tables = clean
        self._zero = Vector(target)  # the one value of every missing entry

    @classmethod
    def from_linear_map(cls, m: LinearMap) -> "TaylorFamily":
        table = {}
        for i in range(len(m.source)):
            v = m.apply(m.source.generator(i))
            if not v.is_zero():
                mono = WedgeMonomial((i,), (m.source.degrees[i],))
                table[mono] = v
        return cls(m.source, m.target, m.degree, {1: table})

    def arities(self):
        return sorted(self.tables)

    def coefficient(self, mono: WedgeMonomial) -> Vector:
        return self.tables.get(mono.weight, {}).get(mono, self._zero)

    def evaluate(self, factors) -> Vector:
        """Value at an arbitrary (possibly unsorted) factor index tuple."""
        norm = normalize_monomial(self.source, factors)
        if norm is None:
            return Vector(self.target)
        mono, sign = norm
        return sign * self.coefficient(mono)

    def arity_one_map(self) -> LinearMap:
        columns = {
            mono.indices[0]: value for mono, value in self.tables.get(1, {}).items()
        }
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
        for arity in self.arities():
            rows = []
            for mono in sorted(self.tables[arity], key=lambda w: w.sort_key()):
                rows.append(
                    {
                        "monomial": mono.names(self.source),
                        "value": self.tables[arity][mono].to_doc(),
                    }
                )
            arities[str(arity)] = rows
        return {"degree": self.degree, "arities": arities}

    @staticmethod
    @reader(dict)
    def from_doc(doc, source: GradedBasis, target: GradedBasis) -> "TaylorFamily":
        """A coefficient-family document: a degree (default 0) and, keyed by
        arity, rows of a monomial and its value."""
        arities = field(doc, "arities", dict, {})
        tables: dict = {}
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
                if norm is not None:
                    mono, sign = norm
                    table.setdefault(mono, Vector(target)).accumulate(value, sign)
        return TaylorFamily(source, target, field(doc, "degree", int, 0), tables)


def coefficient_table(basis: GradedBasis, arity: int, coefficient) -> dict:
    """The arity-n table of a coefficient function (monomial -> Vector),
    sparse on canonical monomials."""
    table = {}
    for mono in canonical_monomials(basis, arity):
        value = coefficient(mono)
        if not value.is_zero():
            table[mono] = value
    return table


def coefficient_family(source: GradedBasis, target: GradedBasis, degree: int,
                       max_arity: int, coefficient) -> TaylorFamily:
    """The tables of a coefficient function for arities 1..max_arity."""
    tables: dict = {}
    for arity in range(1, max_arity + 1):
        table = coefficient_table(source, arity, coefficient)
        if table:
            tables[arity] = table
    return TaylorFamily(source, target, degree, tables)

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


def _wedge_in(out: SElement, value: Vector, tail, scale=1) -> None:
    """Add scale * (value ∧ t) into `out` for the (monomial t, coefficient)
    pairs of `tail`, `value` being of weight one: each generator is bisected
    into t's sorted indices, an odd one changes sign per odd factor it passes
    and gives zero if t holds it already.  Refuses a product past the cap."""
    degrees, cap, add = out.basis.degrees, out.cap, out.add_term
    heads = [(i, degrees[i], a) for i, a in value.terms.items()]
    for (indices, degs), c in tail:
        if len(indices) >= cap:
            raise ValidationError(f"wedge product exceeds weight cap {cap}")
        c = scale * c
        for i, d, a in heads:
            p = bisect_left(indices, i)
            if d % 2:
                if p < len(indices) and indices[p] == i:
                    continue
                if sum(e % 2 for e in degs[:p]) % 2:
                    a = -a
            mono = WedgeMonomial(indices[:p] + (i,) + indices[p:], degs[:p] + (d,) + degs[p:])
            add(mono, a * c)


# shared by every job in a process, keyed by word shape; past the bound the
# oldest entry goes
COPRODUCT_MEMO_ENTRIES = 2048
_coproduct_memo: dict = {}


def splits(w: WedgeMonomial) -> tuple:
    """The one place that splits a word: its signed splits into a nonempty
    block and a nonempty rest, up to permuting equal factors, as
    (block, rest, coeff, first, take_block, take_rest) rows, block and rest
    being tuples of sorted positions and the two getters picking those
    positions out of the word's index or degree tuple, as tuples
    (`w_B = WedgeMonomial(take_block(w[0]), take_block(w[1]))`).

    With repetition pattern (m_0, m_1, ...), a block takes the first c_k
    positions of run k.  Equal factors are even, so which ones it takes
    changes neither value nor sign: the split stands for
    coeff = sign · prod_k C(m_k, c_k) position splits, sign being the
    Koszul sign of listing block before rest, and
    first = coeff · c_0 / m_0 = sign · C(m_0 - 1, c_0 - 1) · prod_{k>=1} C(m_k, c_k)
    of them hold the first factor in the block (for (n,) these are the
    C(n-1, k-1) of the moment recursion).  The table depends only on the
    pattern and the factor parities, which key it in `_coproduct_memo`.
    """
    key = (repetition_pattern(w[0]), tuple(d % 2 for d in w[1]))
    table = _coproduct_memo.get(key)
    if table is None:
        if len(_coproduct_memo) >= COPRODUCT_MEMO_ENTRIES:
            del _coproduct_memo[next(iter(_coproduct_memo))]
        table = _coproduct_memo[key] = _split_table(*key)
    return table


def _split_table(pattern, parities) -> tuple:
    starts = tuple(itertools.accumulate(pattern, initial=0))
    table = []
    for counts in itertools.product(*(range(m + 1) for m in pattern)):
        if not any(counts) or counts == pattern:
            continue
        runs = tuple(zip(starts, pattern, counts))
        block = tuple(p for s, _, c in runs for p in range(s, s + c))
        rest = tuple(p for s, m, c in runs for p in range(s + c, s + m))
        # listing block before rest moves each odd block factor past the odd
        # rest factors before it; equal factors are even, so no pair repeats
        taken = set(block)
        odd_rest = crossings = 0
        for p, odd in enumerate(parities):
            if odd:
                if p in taken:
                    crossings += odd_rest
                else:
                    odd_rest += 1
        coeff = (-1) ** crossings * math.prod(
            math.comb(m, c) for m, c in zip(pattern, counts)
        )
        table.append((block, rest, coeff, coeff * counts[0] // pattern[0],
                      _getter(block), _getter(rest)))
    return tuple(table)


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
        for _, _, c, _, take, leave in splits(w)
    }
    return out


def coproduct_element(v: SElement) -> LinearCombination:
    out = LinearCombination()
    for w, c in v.terms.items():
        out.accumulate(coproduct(w), c)
    return out


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


def _rearrangement_sign(mono: WedgeMonomial, blocks) -> int:
    """Koszul sign of listing the factors block by block: the sign of sorting
    the listed positions back into order."""
    order = [p for block in blocks for p in block]
    return _sort_sign(order, [mono.factor_degrees[p] for p in order])


def iterated_coproduct(w: WedgeMonomial, k: int):
    """Sweedler iterate: signed k-tuples of monomials splitting w.

    k = 1 is the identity; k = weight(w) lists all factor orderings.  The
    result is normalized (duplicate tuples accumulate) and independent of
    the parenthesization used to compute it.
    """
    if not 1 <= k <= w.weight:
        raise ValidationError(f"iterate count {k} out of range for weight {w.weight}")
    acc = LinearCombination()
    for blocks in _ordered_splits(tuple(range(w.weight)), k):
        parts = tuple(w.part(block) for block in blocks)
        acc.add_term(parts, _rearrangement_sign(w, blocks))
    return sorted(
        ((c, parts) for parts, c in acc.terms.items()),
        key=lambda item: tuple(p.sort_key() for p in item[1]),
    )


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
