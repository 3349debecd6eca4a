"""The table reports: `lift`, `invert` and `defects`, from parsed inputs.

Each job computes every row of its tables and returns the report payload
with each table's rows in a `_Table` node, which writes them as JSON text
straight from the rows (`json_text`).  The CLI reads and parses the input
documents, and its writer hands the node that call; only the table commands
load this module.
"""
from __future__ import annotations

import json
from operator import itemgetter

from .algebra import Vector, format_scalar
from .coalgebra import WedgeMonomial, canonical_monomials, monomials_up_to
from .cumulant import cumulant_context, defect_family, vanishes_above_one

_quote = json.encoder.encode_basestring_ascii


class _Table:
    """The rows of a table, in canonical monomial order: tuples (monomial,
    value, ...) with one value per name in `fields`, the monomial over
    `source` and each value an `SElement` or a `Vector` over `target`, or a
    bool.  `json_text` writes `json.dumps` of the list of row objects, each
    with the monomial's name list under "monomial" and each value, as its
    `to_doc()` or as itself, under its field: for ("value",) that is
    `SMap.to_doc` of an operator's rows, or an arity of
    `TaylorFamily.to_doc()["arities"]`."""

    __slots__ = ("source", "target", "rows", "fields")

    def __init__(self, source, target, rows, fields=("value",)):
        self.source = source
        self.target = target
        self.rows = rows
        self.fields = fields

    def json_text(self, pad: str) -> str:
        """The rows' `json.dumps(..., sort_keys=True, indent=2)` nested after
        `pad`, the newline and indentation before the closing bracket,
        written from the rows: each basis name is quoted once per call,
        each value term's monomial name list is built once, each row fills a
        layout built once per table, and no row dict is built."""
        if not self.rows:
            return "[]"
        source = [_quote(name) for name in self.source.names]
        target = [_quote(name) for name in self.target.names]
        names: dict = {}  # monomial of `target` -> its name list as a value term's
        row = pad + "  "       # each row's braces
        field = row + "  "     # "monomial" and each value's field
        term = field + "  "    # each term's braces
        entry = term + "  "    # "coeff" and "gen" or "monomial"
        head, close = "{" + entry + '"coeff": "', term + "}"
        gen, mono = '",' + entry + '"gen": ', '",' + entry + '"monomial": '

        def name_list(w, quoted, at):
            inner = at + "  "
            return "[" + inner + ("," + inner).join([quoted[i] for i in w[0]]) + at + "]"

        def term_names(w):
            text = names.get(w)
            if text is None:
                text = names[w] = name_list(w, target, entry)
            return text

        def value_text(value):
            if type(value) is bool:
                return "true" if value else "false"
            terms = value.terms
            if not terms:
                return "[]"
            if type(value) is Vector:
                return "[" + term + ("," + term).join(
                    [head + format_scalar(c) + gen + target[i] + close
                     for i, c in sorted(terms.items())]
                ) + field + "]"
            return "[" + term + ("," + term).join(
                [head + format_scalar(terms[u]) + mono + term_names(u) + close
                 for u in sorted(terms, key=WedgeMonomial.sort_key)]
            ) + field + "]"

        # a row object's keys in sorted order, as places in the row tuple
        keys = ("monomial",) + self.fields
        order = sorted(range(len(keys)), key=keys.__getitem__)
        layout = "{" + ",".join([field + _quote(keys[i]) + ": %s" for i in order]) + row + "}"
        if order == [0, 1]:  # (monomial, value), as the large tables are: no list per row
            texts = [layout % (name_list(w, source, field), value_text(value))
                     for w, value in self.rows]
        else:
            pick = itemgetter(*order)
            texts = [layout % pick([name_list(w, source, field), *map(value_text, values)])
                     for w, *values in self.rows]
        return "[" + row + ("," + row).join(texts) + pad + "]"


def lift(algebra, cap: int, inverse: bool = False):
    """The `lift` (or, inverse, the `invert`) payload: `τ̃` (or `τ̃⁻¹`) at
    every canonical monomial up to the cap, and true."""
    ctx = cumulant_context(algebra, cap)
    op = ctx.tau_tilde_inverse if inverse else ctx.tau_tilde
    rows = [(w, op.on_monomial(w)) for w in monomials_up_to(algebra, cap)]
    return {"table": _Table(algebra, algebra, rows)}, True


def defects(m, kind: str, cap: int):
    """The `defects` payload of a map: its defect tables of `kind` up to the
    cap and, for "der" from cap 3, the arity-3 comparison; and true."""
    family = defect_family(m, kind, cap=cap)
    arities = {
        str(arity): _Table(m.source, m.target, [
            (mono, table[mono]) for mono in sorted(table, key=WedgeMonomial.sort_key)
        ])
        for arity, table in family.tables.items()
    }
    payload = {
        "kind": kind,
        "tables": {"degree": family.degree, "arities": arities},
        "vanishes_above_1": vanishes_above_one(family),
    }
    if kind == "der" and cap >= 3:
        payload["arity3_comparison"] = _arity3_comparison(m, family)
    return payload, True


def _arity3_comparison(d, family):
    """Computed arity-3 table next to the seven-term variant expression
    (`oracles.h3_seven_term_variant`) at each word x·y·z of generators.  The
    pair products x·y are the product table's entries; each generator's
    image d(x) and each pair's image d(x·y) is computed once per report, so
    a row takes one `apply` and at most seven products, summed into one
    vector.

    Every term but the garbled y·x·d(x) is of degree |x·y·z| + |d|.  When A
    has no generator of that degree (the word is outside the family's
    window), the computed value and those terms are 0, and the row takes
    that one product alone."""
    A = d.source
    multiply, table, present = A.multiply, A.products, A.degree_set
    generators = A.generators()
    images = [d.apply(x) for x in generators]
    pair_images = [[d.apply(xy) for xy in row] for row in table]
    rows = []
    all_match = True
    for mono in canonical_monomials(A, 3):
        computed = family.coefficient(mono)
        i, j, k = mono[0]
        yx = table[j][i]
        if sum(mono[1]) + d.degree in present:
            x, y, z = generators[i], generators[j], generators[k]
            xy = table[i][j]
            variant = d.apply(multiply(xy, z))
            for scale, u, v in (
                (-1, pair_images[i][j], z), (1, xy, images[k]),
                (-1, pair_images[j][k], x), (1, yx, images[i]),
                (-1, pair_images[k][i], y), (1, table[k][i], images[j]),
            ):
                if u.terms and v.terms:
                    variant.accumulate(multiply(u, v), scale)
        elif yx.terms and images[i].terms:
            variant = multiply(yx, images[i])
        else:
            variant = computed
        match = computed == variant
        all_match = all_match and match
        rows.append((mono, computed, match, variant))
    return {
        "variant_matches_everywhere": all_match,
        "rows": _Table(A, d.target, rows, ("computed", "match", "variant")),
    }
