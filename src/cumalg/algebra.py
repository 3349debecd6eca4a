"""Graded commutative algebras over Q, presented by exact structure constants.

Everything here is immutable after construction and all arithmetic is exact:
a coefficient is an `int` until a division or a rational input makes it a
`fractions.Fraction`, so identities can be asserted exactly and integer
structure constants never pay for rational arithmetic.
"""
from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from operator import itemgetter

# the truncation weight of the coalgebra when a caller gives none
DEFAULT_WEIGHT_CAP = 6

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


def exact(value):
    """An exact scalar: an `int` stays an `int`; anything else becomes a
    `Fraction`, and an integral `Fraction` becomes its `int`.

    `Fraction(2) == 2` with equal hashes and equal `str`, so which type a
    value has never shows in a comparison or a report.
    """
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


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
        self._index = {name: i for i, name in enumerate(names)}
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
    nonzero exact scalars (`int`s, or `Fraction`s once something divides).

    The one home of add, subtract, negate, scale, equality and zero-cleaning
    for algebra elements, truncated coalgebra elements and coproduct pairs.
    A subclass fixes what differs: its key type and the check on keys from
    outside (`_check_key`), the space two operands must share (`_space`), and
    the order of `items()`.  Its `__slots__` name the fields of that space,
    which results copy.  The constructor coerces and cleans what callers
    pass; arithmetic trusts the exact coefficients it computes itself.
    """

    __slots__ = ("terms",)
    _mismatch = "operands over different spaces"

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
        never be the receiver.
        """
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

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))


class Vector(LinearCombination):
    """A sparse element of the span of a GradedBasis, keyed by generator index."""

    __slots__ = ("basis",)
    _mismatch = "vectors over different presentations"

    def __init__(self, basis: GradedBasis, coeffs: dict | None = None):
        self.basis = basis
        super().__init__(coeffs)

    def _check_key(self, i):
        if not 0 <= i < len(self.basis):
            raise ValidationError(f"generator index {i} out of range")

    def _space(self):
        return (self.basis,)

    def items(self):
        return sorted(self.terms.items())

    def get(self, i):
        return self.terms.get(i, 0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True when all terms share one degree (the given one, if stated)."""
        degs = {self.basis.degrees[i] for i in self.terms}
        if degree is None:
            return len(degs) <= 1
        return degs <= {degree}

    def degree(self):
        """Degree of a homogeneous vector; None for 0 or mixed terms."""
        degs = {self.basis.degrees[i] for i in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{self.basis.names[i]}" for i, c in self.items())

    def to_doc(self):
        return [
            {"gen": self.basis.names[i], "coeff": format_scalar(c)}
            for i, c in self.items()
        ]


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
    entry, graded commutativity on basis pairs, and associativity on all
    basis triples.  Later modules assume these laws hold.
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
        # vanish when e_i e_j and e_j e_k do
        P = self.products
        for i in range(n):
            for j in range(n):
                ij = P[i][j].terms
                for k in range(n):
                    jk = P[j][k].terms
                    if not ij and not jk:
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
        acc = {}
        get = acc.get
        for i, cu in u.terms.items():
            row = self.products[i]
            for j, cv in v.terms.items():
                c = cu * cv
                for k, x in row[j].terms.items():
                    old = get(k)
                    acc[k] = c * x if old is None else old + c * x
        return u._new(dict(filter(_coefficient, acc.items())))

    def to_doc(self):
        gens = [{"name": n, "degree": d} for n, d in zip(self.names, self.degrees)]
        prods = []
        for i in range(len(self)):
            for j in range(i, len(self)):
                if not self.products[i][j].is_zero():
                    prods.append(
                        {
                            "left": self.names[i],
                            "right": self.names[j],
                            "value": self.products[i][j].to_doc(),
                        }
                    )
        return {"generators": gens, "products": prods}


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

    def __hash__(self):
        return hash((self.source.uid, self.target.uid, self.degree))

    def to_doc(self):
        return {
            "degree": self.degree,
            "entries": [
                {"gen": self.source.names[i], "value": col.to_doc()}
                for i, col in sorted(self.columns.items())
            ],
        }


def linear_bracket(m1: LinearMap, m2: LinearMap) -> LinearMap:
    """Graded commutator m1∘m2 - (-1)^(|m1||m2|) m2∘m1 of endomorphism maps."""
    sign = parity_sign(m1.degree, m2.degree)
    return m1.compose(m2) - sign * m2.compose(m1)


@reader(dict)
def parse_linear_map(doc, source: GradedBasis, target: GradedBasis) -> LinearMap:
    columns = {}
    for entry in field(doc, "entries", list, each=dict):
        i = name_at(source, entry, "gen")
        if i in columns:
            raise SchemaError("duplicate map entry", entry, "gen")
        columns[i] = read_vector(field(entry, "value", list, []), target)
    return LinearMap(source, target, field(doc, "degree", int, 0), columns)


class ChainComplex(GradedBasis):
    """A finite graded basis with a degree -1 differential and no product.

    Used for the retract side of the transfer pipeline: keeping the product
    out of the type guarantees nothing downstream can multiply in it.
    """

    def __init__(self, generators, differential_columns=None):
        super().__init__(generators)
        self.differential = LinearMap(self, self, -1, differential_columns or {})
        _require_square_zero(self.differential)

    def to_doc(self):
        gens = [{"name": n, "degree": d} for n, d in zip(self.names, self.degrees)]
        return {"generators": gens, "differential": self.differential.to_doc()}


@reader(dict)
def parse_chain_complex(doc) -> ChainComplex:
    cx = ChainComplex(_generators(doc))
    if doc.get("differential") is not None:
        diff = parse_linear_map(field(doc, "differential", dict), cx, cx)
        if diff.degree != -1:
            raise SchemaError("complex differential must have degree -1", doc, "differential")
        _require_square_zero(diff)
        cx.differential = diff
    return cx


def _require_square_zero(diff: LinearMap):
    square = diff.compose(diff)
    if square.columns:
        bad = sorted(diff.source.names[i] for i in square.columns)
        raise ValidationError(
            "differential does not square to zero",
            witness={"kind": "square_zero", "generators": bad},
        )
