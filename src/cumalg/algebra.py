"""Graded commutative algebras over Q, presented by exact structure constants.

Everything here is immutable after construction and all arithmetic is exact:
a coefficient is an `int`, or a `Rational` (a `fractions.Fraction` whose +,
- and * work on its two integers) when it is not integral, so identities can
be asserted exactly and integer structure constants never pay for rational
arithmetic.
"""
from __future__ import annotations

import functools
import itertools
import json
import re
from collections import defaultdict
from fractions import Fraction
from math import gcd
from operator import itemgetter

# the truncation weight of the coalgebra when a caller gives none, and the
# largest one the CLI accepts
DEFAULT_WEIGHT_CAP = 6
WEIGHT_CAP_CEILING = 10

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")

_basis_counter = itertools.count()
# filters the (key, coefficient) items of an accumulated dict down to those
# that did not cancel, with no Python-level call for int coefficients
_coefficient = itemgetter(1)


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(AlgebraError):
    """An input document does not have the expected shape.  The fault is at
    `node[key]`, or is `node` itself when `key` is None; `locate` puts the
    RFC 6901 JSON Pointer of that place in `witness` and in the message."""

    def __init__(self, reason: str, node=None, key=None):
        super().__init__(reason)
        self.node, self.key = node, key
        self.witness = {"kind": "schema", "pointer": ""}

    def __str__(self):
        return f"{self.args[0]} at '{self.witness['pointer']}'"

    def locate(self, doc):
        """Find the place of the fault in `doc`, searching every object and
        list in it, so that a valid document pays nothing for pointers."""
        stack = [(doc, "")]
        while stack:
            node, at = stack.pop()
            if node is self.node:
                self.witness["pointer"] = at + _step(self.key)
                return
            if isinstance(node, (dict, list)):
                pairs = node.items() if isinstance(node, dict) else enumerate(node)
                stack.extend((v, at + _step(k)) for k, v in pairs if isinstance(v, (dict, list)))


def _step(key) -> str:
    return "" if key is None else "/" + str(key).replace("~", "~0").replace("/", "~1")


class ValidationError(AlgebraError):
    """A presented structure violates one of its defining laws.

    `witness` holds machine-readable data naming the offending
    generators/entries, suitable for embedding in reports.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


class Rational(Fraction):
    """A non-integral exact scalar: a `Fraction` whose +, - and * with an
    `int`, a `Fraction` or a `Rational` read the two integers of each operand
    and reduce with `math.gcd`, as `Fraction`'s own `_add` and `_mul` do, but
    without its Python-level operand dispatch and constructor.  Their result
    is an `int` when it is integral and a `Rational` otherwise.  `==` with an
    `int`, a `Fraction` or a `Rational` compares the two reduced integers,
    skipping `Fraction`'s `numbers.Rational` check and properties; the hash
    stays `Fraction`'s.  Every other operand type and every other operation
    (division, powers, ordering, `str`, copy and pickle) is `Fraction`'s
    own.  + and * commute, so the reflected methods are the forward ones.
    Make one with `exact`, never with the constructor: so made, no
    `Rational` is integral."""

    __slots__ = ()

    def __add__(a, b):
        if type(b) is int:
            return _rational(a._numerator + b * a._denominator, a._denominator)
        if type(b) is Rational or type(b) is Fraction:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is int:
            return _rational(a._numerator - b * a._denominator, a._denominator)
        if type(b) is Rational or type(b) is Fraction:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _rational(b * a._denominator - a._numerator, a._denominator)
        if type(b) is Rational or type(b) is Fraction:
            return _sum(b._numerator, b._denominator, -a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        if type(b) is int:
            return _product(a._numerator, a._denominator, b, 1)
        if type(b) is Rational or type(b) is Fraction:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    def __eq__(a, b):
        if type(b) is Rational or type(b) is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__


# a bare Rational, for `_rational` to fill in: the bound call is quicker than
# looking up `object.__new__` and `Rational` on every result
_new_rational = functools.partial(object.__new__, Rational)


def _rational(n: int, d: int):
    """The exact scalar n/d of coprime integers with d > 0: `n` itself when
    d is 1, else a `Rational` made without `Fraction.__new__`."""
    if d == 1:
        return n
    value = _new_rational()
    value._numerator = n
    value._denominator = d
    return value


def _sum(na, da, nb, db):
    """na/da + nb/db of two reduced fractions (Knuth, TAOCP 4.5.1)."""
    g = gcd(da, db)
    if g == 1:
        return _rational(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rational(t, s * db)
    return _rational(t // g2, s * (db // g2))


def _product(na, da, nb, db):
    """(na/da) * (nb/db) of two reduced fractions, each cross pair reduced."""
    g1 = gcd(na, db)
    g2 = gcd(nb, da)
    return _rational((na // g1) * (nb // g2), (da // g2) * (db // g1))


def exact(value):
    """The exact scalar of `value`: an `int` stays an `int`, an integral
    value becomes its `int`, and any other rational (a `Fraction`, a
    `Decimal`, a string such as "1/3") becomes a `Rational`.  A float is
    refused, whatever its type, because its binary digits are not the
    rational it was written as.  This is the one way into `Rational`.

    `Fraction(2) == 2` with equal hashes and equal `str`, so which type a
    value has never shows in a comparison or a report.
    """
    if type(value) is int or type(value) is Rational and value._denominator != 1:
        return value
    if isinstance(value, float):
        raise ValidationError(f"a {type(value).__name__} is not an exact scalar: {value!r}")
    value = Fraction(value)
    return _rational(value._numerator, value._denominator)


# --- the document reader: only `field`, `scalar_at` and `name_at` check the
# JSON type of a document value, and each document is read by a `reader`

_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def load_json(text):
    """Parse JSON text, given as `str` or as UTF-8 `bytes`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as err:  # also not UTF-8, too many digits, too deep
        raise AlgebraError(f"invalid JSON: {err}") from None


def reader(kind, each=None):
    """Decorate `read(doc, *args)`, which reads documents of the JSON type
    `kind` (lists of `each`), to take its document as JSON text (`str` or
    `bytes`) or parsed, and to locate a SchemaError it raises in that
    document.  Text is parsed once: text that holds a JSON string is a
    string document, refused like any other value of the wrong type."""

    def decorate(read):
        @functools.wraps(read)
        def read_document(document, *args):
            doc = load_json(document) if isinstance(document, (str, bytes)) else document
            try:
                return read(field([doc], 0, kind, each=each), *args)
            except SchemaError as err:
                err.locate(doc)
                raise

        return read_document

    return decorate


def field(node, key, kind, default=_REQUIRED, each=None):
    """The value at `node[key]`, of the JSON type `kind` (`object`: any; no
    boolean is an integer), and a list of values of the type `each` if that is
    given.  When the object `node` lacks `key`: `default`, if given."""
    try:
        value = node[key]
    except KeyError:
        if default is _REQUIRED:
            raise SchemaError(f"lacks {key!r}", node) from None
        return default
    if type(value) is not kind and kind is not object:
        raise SchemaError(f"must be {_JSON_TYPES[kind]}", node, key)
    for k, item in enumerate(value) if each else ():
        if type(item) is not each:
            raise SchemaError(f"must be {_JSON_TYPES[each]}", value, k)
    return value


def scalar_at(node, key):
    """The exact rational at `node[key]`: a JSON integer, or "p" or "p/q" (q > 0)."""
    value = field(node, key, object)
    if type(value) is int:
        return value
    match = type(value) is str and _RATIONAL_RE.fullmatch(value)
    try:
        if match:
            p, q = match.groups()
            return int(p) if q is None else exact(Fraction(int(p), int(q)))
    except ValueError:  # more digits than `int` converts
        pass
    raise SchemaError("not an exact rational", node, key)


def name_at(basis, node, key) -> int:
    """The index in `basis` of the generator named at `node[key]`."""
    i = basis._index.get(field(node, key, str))
    if i is None:
        raise SchemaError("unknown generator", node, key)
    return i


def format_scalar(value) -> str:
    """`str` of an exact scalar, also past the interpreter's limit on the
    digits of an int-to-str conversion, which stays as it is."""
    try:
        return str(value)
    except ValueError:  # more digits than `str` converts
        from decimal import Decimal  # converts an int of any size exactly

        value = Fraction(value)
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


class GradedBasis:
    """An ordered, finite basis of named generators with integer degrees."""

    def __init__(self, generators):
        names = tuple(name for name, _ in generators)
        degrees = tuple(int(d) for _, d in generators)
        if len(set(names)) != len(names):
            raise SchemaError("duplicate generator names")
        self.names = names
        self.degrees = degrees
        # the degrees some generator has: a homogeneous element of any other
        # degree is 0, so no value of such a degree needs computing
        self.degree_set = frozenset(degrees)
        # each generator's degree mod 2, which Koszul signs and split-table keys read
        self.parities = tuple(d % 2 for d in degrees)
        self._index = {name: i for i, name in enumerate(names)}
        # word -> {generator: (word with it, sign flips) or () if 0}, for `_wedge_in`
        self.insertions = defaultdict(dict)
        # used to key per-basis caches; bases compare by identity
        self.uid = next(_basis_counter)

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise SchemaError(f"unknown generator {name!r}") from None

    def generator(self, i: int) -> "Vector":
        return Vector(self, {i: 1})

    def generators(self):
        return [self.generator(i) for i in range(len(self))]

    def __repr__(self):
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"<{type(self).__name__} {gens}>"


class LinearCombination:
    """A finite sparse linear combination over Q: `terms` maps keys to
    nonzero exact scalars (`int`s, or `Rational`s where not integral).

    The one home of add, subtract, negate, scale, equality and zero-cleaning
    for algebra elements, truncated coalgebra elements and coproduct pairs.
    A subclass fixes what differs: its key type and the check on keys from
    outside (`_check_key`), the space two operands must share (`_space`), and
    what `items()`, `to_doc()` and `repr` read: the order of its keys
    (`_key_order`), the document field of a term's key (`_field`) and how a
    key reads (`_key_doc`).  Its `__slots__` name the fields of that space,
    which results copy.  The constructor coerces and cleans what callers
    pass; arithmetic trusts the exact coefficients it computes itself.
    """

    __slots__ = ("terms",)
    _mismatch = "operands over different spaces"
    _key_order = None  # the sort key of `items()`; None sorts the keys themselves
    _field = "key"

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            self._check_key(key)
            c = exact(c)
            if c != 0:
                clean[key] = c
        self.terms = clean

    def _check_key(self, key):
        """Raise when a key from outside does not belong to this space."""

    def _space(self) -> tuple:
        """What two operands must share to be added or to compare equal."""
        return ()

    def _key_doc(self, key):
        """A key as a document and `repr` write it."""
        return key

    def _check(self, other):
        if type(other) is not type(self) or self._space() != other._space():
            raise ValidationError(self._mismatch)

    def _new(self, terms: dict):
        """An element of this space holding `terms`: exact, with no zeros."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def add_term(self, key, coeff):
        """Add `coeff` at `key` in place, dropping the key if it cancels."""
        terms = self.terms
        old = terms.get(key)
        if old is None:
            if coeff != 0:
                terms[key] = coeff
        else:
            coeff = old + coeff
            if coeff != 0:
                terms[key] = coeff
            else:
                del terms[key]

    def accumulate(self, other, scale=1):
        """Add `scale * other` into this element in place; returns self.

        Only for an element the calling routine has just created: a value
        handed out elsewhere (a product table entry, a cached image) must
        never be the receiver.  A scale that is not an `int` goes through
        `exact` first.
        """
        if type(scale) is not int:
            scale = exact(scale)
        if not scale:
            return self
        scaled = scale != 1
        terms = self.terms
        get = terms.get
        for key, c in other.terms.items():
            if scaled:
                c = scale * c
            old = get(key)
            if old is None:
                terms[key] = c
            else:
                c = old + c
                if c:
                    terms[key] = c
                else:
                    del terms[key]
        return self

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def items(self):
        """The (key, coefficient) terms, their keys in order."""
        terms = self.terms
        return [(key, terms[key]) for key in sorted(terms, key=self._key_order)]

    def to_doc(self):
        """The terms as a document: a list of {field: key, "coeff": scalar}."""
        field, key_doc = self._field, self._key_doc
        return [{field: key_doc(key), "coeff": format_scalar(c)} for key, c in self.items()]

    def __repr__(self):
        names = ((self._key_doc(key), c) for key, c in self.items())
        return " + ".join(f"({c})*{'^'.join(n) if type(n) is list else n}" for n, c in names) or "0"

    def __add__(self, other):
        self._check(other)
        return self._new(dict(self.terms)).accumulate(other)

    def __sub__(self, other):
        self._check(other)
        return self._new(dict(self.terms)).accumulate(other, -1)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scale):
        scale = exact(scale)
        if scale == 0:
            return self._new({})
        return self._new({key: scale * c for key, c in self.terms.items()})

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._space() == other._space()
            and self.terms == other.terms
        )


class Vector(LinearCombination):
    """A sparse element of the span of a GradedBasis, keyed by generator index."""

    __slots__ = ("basis",)
    _mismatch = "vectors over different presentations"
    _field = "gen"

    def __init__(self, basis: GradedBasis, coeffs: dict | None = None):
        self.basis = basis
        super().__init__(coeffs)

    def _check_key(self, i):
        if not 0 <= i < len(self.basis):
            raise ValidationError(f"generator index {i} out of range")

    def _space(self):
        return (self.basis,)

    def _key_doc(self, i):
        return self.basis.names[i]

    def get(self, i):
        return self.terms.get(i, 0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True when all terms share one degree (the given one, if stated)."""
        degs = {self.basis.degrees[i] for i in self.terms}
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}


@reader(list, dict)
def read_vector(entries, basis) -> Vector:
    """A vector document: a list of {"gen", "coeff"} terms."""
    out = Vector(basis)
    for entry in entries:
        out.add_term(name_at(basis, entry, "gen"), scalar_at(entry, "coeff"))
    return out


def parity_sign(p: int, q: int) -> int:
    """(-1)^(p*q), the sign for moving a degree-p element past degree q."""
    return -1 if (p % 2) and (q % 2) else 1


class AlgebraPresentation(GradedBasis):
    """A graded commutative associative algebra given by basis-pair products.

    The full product table is validated eagerly: degree homogeneity of every
    entry, graded commutativity on basis pairs, and associativity on the
    basis triples whose degree some generator has (on the others both sides
    are 0 by homogeneity).  Later modules assume these laws hold.
    """

    def __init__(self, generators, products):
        super().__init__(generators)
        n = len(self)
        table = [[Vector(self)] * n for _ in range(n)]
        for (i, j), value in products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise SchemaError(f"product index pair ({i},{j}) out of range")
            if isinstance(value, Vector):  # over another basis: this one is being built
                raise ValidationError("product value over another presentation")
            table[i][j] = Vector(self, value)
        self.products = tuple(tuple(row) for row in table)
        self._validate()
        # the cumulant contexts of this presentation by weight cap (filled by
        # `cumulant.cumulant_context`), so they live exactly as long as it does
        self.contexts: dict = {}

    def _validate(self):
        n = len(self)
        for i in range(n):
            for j in range(n):
                entry = self.products[i][j]
                want = self.degrees[i] + self.degrees[j]
                if not entry.is_zero() and not all(
                    self.degrees[k] == want for k in entry.terms
                ):
                    raise ValidationError(
                        f"product {self.names[i]}*{self.names[j]} is not "
                        f"homogeneous of degree {want}",
                        witness={"kind": "homogeneity", "pair": [self.names[i], self.names[j]]},
                    )
        for i in range(n):
            for j in range(i, n):
                sign = parity_sign(self.degrees[i], self.degrees[j])
                if self.products[i][j] != sign * self.products[j][i]:
                    raise ValidationError(
                        f"graded commutativity fails on pair "
                        f"({self.names[i]}, {self.names[j]})",
                        witness={"kind": "commutativity", "pair": [self.names[i], self.names[j]]},
                    )
        # (e_i e_j) e_k and e_i (e_j e_k) straight from the table; both
        # vanish when e_i e_j and e_j e_k do, and, the table being
        # homogeneous, when no generator has the degree |i|+|j|+|k| (which a
        # pair degree alone does not decide)
        P, degrees, present = self.products, self.degrees, self.degree_set
        for i in range(n):
            for j in range(n):
                ij = P[i][j].terms
                e = degrees[i] + degrees[j]
                for k in range(n):
                    jk = P[j][k].terms
                    if not ij and not jk or e + degrees[k] not in present:
                        continue
                    left = {}
                    for m, c in ij.items():
                        for t, x in P[m][k].terms.items():
                            old = left.get(t)
                            left[t] = c * x if old is None else old + c * x
                    right = {}
                    for m, c in jk.items():
                        for t, x in P[i][m].terms.items():
                            old = right.get(t)
                            right[t] = c * x if old is None else old + c * x
                    if dict(filter(_coefficient, left.items())) != dict(
                        filter(_coefficient, right.items())
                    ):
                        raise ValidationError(
                            f"associativity fails on triple "
                            f"({self.names[i]}, {self.names[j]}, {self.names[k]})",
                            witness={
                                "kind": "associativity",
                                "triple": [self.names[i], self.names[j], self.names[k]],
                            },
                        )

    def multiply(self, u: Vector, v: Vector) -> Vector:
        """Bilinear extension of the structure-constant table."""
        if u.basis is not self or v.basis is not self:
            raise ValidationError("operands do not belong to this presentation")
        return self.expand({(i, j): cu * cv for i, cu in u.terms.items()
                            for j, cv in v.terms.items()})

    def expand(self, pairs: dict) -> Vector:
        """The sum of c · x_i x_j over the generator pairs (i, j) -> c of
        `pairs`, read through the structure-constant table."""
        acc = {}
        get = acc.get
        products = self.products
        for (i, j), c in pairs.items():
            for k, x in products[i][j].terms.items():
                old = get(k)
                acc[k] = c * x if old is None else old + c * x
        out = Vector(self)
        out.terms = dict(filter(_coefficient, acc.items()))
        return out


@reader(dict)
def parse_algebra(doc) -> AlgebraPresentation:
    """Build a validated presentation from a JSON document (text or dict).

    Products may state either orientation of a pair; the omitted one defaults
    to the graded-commutative reflection.  Stating both is allowed but they
    must agree (checked by the validator).
    """
    generators = _generators(doc)
    for key in ("modulus", "characteristic"):
        if key in doc:
            raise SchemaError("only characteristic 0 (exact rationals) is supported", doc, key)
    basis = GradedBasis(generators)
    stated = {}
    for p in field(doc, "products", list, (), dict):
        pair = name_at(basis, p, "left"), name_at(basis, p, "right")
        if pair in stated:
            raise SchemaError("product stated more than once", p)
        stated[pair] = read_vector(field(p, "value", list, []), basis)
    products = {
        (j, i): parity_sign(basis.degrees[i], basis.degrees[j]) * value
        for (i, j), value in stated.items()
    }
    products.update(stated)
    return AlgebraPresentation(generators, {ij: v.terms for ij, v in products.items()})


def _generators(doc) -> list:
    """The (name, degree) pairs of a document's generator list."""
    generators = {}
    for g in field(doc, "generators", list, each=dict):
        name = field(g, "name", str)
        if name in generators:
            raise SchemaError("duplicate generator name", g, "name")
        generators[name] = field(g, "degree", int)
    return list(generators.items())


class LinearMap:
    """A degree-homogeneous linear map between two graded bases."""

    def __init__(self, source: GradedBasis, target: GradedBasis, degree: int, columns):
        self.source = source
        self.target = target
        self.degree = int(degree)
        cols = {}
        for i, v in columns.items():
            if not 0 <= i < len(source):
                raise ValidationError(f"column index {i} out of range")
            vec = v if isinstance(v, Vector) else Vector(target, v)
            if vec.is_zero():
                continue
            if vec.basis is not target:
                raise ValidationError("column vector over wrong presentation")
            want = source.degrees[i] + self.degree
            if any(target.degrees[k] != want for k in vec.terms):
                raise ValidationError(
                    f"column for {source.names[i]} is not homogeneous of "
                    f"degree {want}",
                    witness={"kind": "map_homogeneity", "gen": source.names[i]},
                )
            cols[i] = vec
        self.columns = cols

    @classmethod
    def identity(cls, basis: GradedBasis) -> "LinearMap":
        return cls(basis, basis, 0, {i: basis.generator(i) for i in range(len(basis))})

    def apply(self, v: Vector) -> Vector:
        if v.basis is not self.source:
            raise ValidationError("vector is not over the map's source")
        out = Vector(self.target)
        for i, c in v.terms.items():
            col = self.columns.get(i)
            if col is not None:
                out.accumulate(col, c)
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.target is not self.source:
            raise ValidationError("composition mismatch")
        cols = {i: self.apply(col) for i, col in other.columns.items()}
        return LinearMap(other.source, self.target, self.degree + other.degree, cols)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if (
            self.source is not other.source
            or self.target is not other.target
            or self.degree != other.degree
        ):
            raise ValidationError("cannot add maps of different shapes")
        cols = dict(self.columns)
        for i, col in other.columns.items():
            cols[i] = cols.get(i, Vector(self.target)) + col
        return LinearMap(self.source, self.target, self.degree, cols)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scale):
        return LinearMap(
            self.source,
            self.target,
            self.degree,
            {i: scale * col for i, col in self.columns.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.source is other.source
            and self.target is other.target
            and self.degree == other.degree
            and self.columns == other.columns
        )


@reader(dict)
def parse_linear_map(doc, source: GradedBasis, target: GradedBasis) -> LinearMap:
    columns = {}
    for entry in field(doc, "entries", list, each=dict):
        i = name_at(source, entry, "gen")
        if i in columns:
            raise SchemaError("duplicate map entry", entry, "gen")
        columns[i] = read_vector(field(entry, "value", list, []), target)
    return LinearMap(source, target, field(doc, "degree", int, 0), columns)
